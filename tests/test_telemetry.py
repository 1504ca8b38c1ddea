"""Tests for ``repro.telemetry``: spans, exporters, and pipeline wiring.

Covers the observability contract end to end:

* span-tree well-formedness (strict nesting, children inside parent
  intervals, no orphans);
* the Chrome ``trace_event`` and JSON-lines exporters against their
  schemas;
* the no-op guard -- a full pipeline run under a disabled recorder must
  never call ``count``/``observe`` and opens only a bounded handful of
  spans;
* the pipeline e2e: every phase appears exactly once in the trace and
  :class:`~repro.tool.pipeline.PhaseTiming` is a projection of it that
  never double-counts the ``solve`` sub-phase.
"""

from __future__ import annotations

import json

import pytest

from repro.casestudies import get_case_study
from repro.casestudies.base import strip_security_annotations
from repro.frontend.parser import parse_program
from repro.inference import generate_constraints, solve
from repro.lattice import TwoPointLattice
from repro.lattice.registry import get_lattice
from repro.synth import deep_dataflow_program
from repro.telemetry import (
    NULL_RECORDER,
    CountingLattice,
    Histogram,
    Recorder,
    TelemetryError,
    TraceRecorder,
    current_recorder,
    format_trace_summary,
    metrics_dict,
    to_chrome_trace,
    to_events,
    to_jsonl,
    use_recorder,
    write_chrome_trace,
)
from repro.tool.cli import main as cli_main
from repro.tool.pipeline import PhaseTiming, check_source
from repro.tool.summary import format_summary, summarise_report


@pytest.fixture
def stripped_case():
    """A case study stripped of annotations: a real inference workload."""
    case = get_case_study("cache")
    return strip_security_annotations(case.secure_source), case.lattice_name


def traced_check(source, lattice_name, **kwargs):
    recorder = TraceRecorder()
    with use_recorder(recorder):
        report = check_source(source, lattice_name, **kwargs)
    return report, recorder


# ---------------------------------------------------------------------------
# recorder


class TestRecorder:
    def test_span_records_parent_and_interval(self):
        rec = TraceRecorder()
        with rec.span("outer") as outer:
            with rec.span("inner", size=3) as inner:
                pass
        assert outer.parent is None
        assert inner.parent == outer.sid
        assert inner.attrs == {"size": 3}
        assert outer.closed and inner.closed
        assert outer.start_us <= inner.start_us
        assert inner.end_us <= outer.end_us

    def test_strict_nesting_enforced(self):
        rec = TraceRecorder()
        a = rec._open("a", {})
        rec._open("b", {})
        with pytest.raises(TelemetryError):
            rec._close(a)  # b is still open

    def test_counters_accumulate(self):
        rec = TraceRecorder()
        rec.count("x")
        rec.count("x", 4)
        rec.count("y", 2)
        assert rec.counters == {"x": 5, "y": 2}

    def test_histogram_statistics_and_buckets(self):
        hist = Histogram()
        for value in (1, 3, 7, 100):
            hist.record(value)
        assert hist.count == 4
        assert hist.total == 111
        assert hist.minimum == 1
        assert hist.maximum == 100
        # Power-of-two upper bounds: 1, 4, 8, 128.
        assert hist.buckets == {1: 1, 4: 1, 8: 1, 128: 1}
        payload = hist.as_dict()
        assert payload["mean"] == pytest.approx(111 / 4)
        assert payload["buckets"] == {"1": 1, "4": 1, "8": 1, "128": 1}

    def test_observe_builds_histograms(self):
        rec = TraceRecorder()
        rec.observe("pops", 2)
        rec.observe("pops", 6)
        assert rec.histograms["pops"].count == 2

    def test_percentile_on_empty_histogram_is_none(self):
        hist = Histogram()
        assert hist.percentile(50.0) is None
        assert hist.percentiles() == {"p50": None, "p95": None, "p99": None}

    def test_percentile_rejects_out_of_range(self):
        hist = Histogram()
        hist.record(1)
        with pytest.raises(ValueError):
            hist.percentile(-1.0)
        with pytest.raises(ValueError):
            hist.percentile(100.5)

    def test_percentile_single_bucket_clamps_to_envelope(self):
        hist = Histogram()
        hist.record(5)
        # One observation: every percentile is that observation.
        assert hist.percentile(1.0) == 5
        assert hist.percentile(50.0) == 5
        assert hist.percentile(99.0) == 5

    def test_percentiles_are_monotone_and_bounded(self):
        hist = Histogram()
        for value in range(1, 201):
            hist.record(value)
        quantiles = [hist.percentile(q) for q in (10, 25, 50, 75, 90, 95, 99)]
        assert quantiles == sorted(quantiles)
        for quantile in quantiles:
            assert hist.minimum <= quantile <= hist.maximum
        # The bucket interpolation tracks the true quantile to within the
        # resolution of a power-of-two bucket (a factor of two).
        assert hist.percentile(50.0) == pytest.approx(100, rel=1.0)

    def test_percentile_interpolates_within_a_bucket(self):
        hist = Histogram()
        for _ in range(100):
            hist.record(100)  # all in the (64, 128] bucket
        # Uniform-within-bucket assumption, then clamped to [min, max].
        assert hist.percentile(50.0) == 100
        assert hist.percentile(99.0) == 100

    def test_percentiles_surface_in_as_dict(self):
        hist = Histogram()
        for value in (1, 3, 7, 100):
            hist.record(value)
        payload = hist.as_dict()
        assert set(payload) >= {"p50", "p95", "p99"}
        assert payload["p50"] is not None
        assert payload["p50"] <= payload["p95"] <= payload["p99"]
        assert payload["p99"] <= hist.maximum

    def test_add_span_is_anchored_under_parent(self):
        rec = TraceRecorder()
        with rec.span("phase.infer") as parent:
            pass
        child = rec.add_span("solver.solve", 1.5, parent=parent, projected=True)
        assert child.parent == parent.sid
        assert child.start_us == parent.start_us
        assert child.duration_ms == pytest.approx(1.5)
        assert child.attrs["projected"] is True

    def test_ambient_recorder_defaults_to_noop(self):
        assert current_recorder() is NULL_RECORDER
        assert not current_recorder().enabled

    def test_use_recorder_installs_and_restores(self):
        rec = TraceRecorder()
        with use_recorder(rec):
            assert current_recorder() is rec
        assert current_recorder() is NULL_RECORDER

    def test_null_recorder_is_free_of_side_effects(self):
        null = Recorder()
        with null.span("anything", attr=1) as span:
            assert span is None
        null.count("x")
        null.observe("y", 3)  # nothing to assert beyond "does not raise"

    def test_queries(self):
        rec = TraceRecorder()
        with rec.span("a") as a:
            with rec.span("b"):
                pass
            with rec.span("b"):
                pass
        assert [s.name for s in rec.roots()] == ["a"]
        assert len(rec.spans_named("b")) == 2
        assert [s.name for s in rec.children_of(a)] == ["b", "b"]
        assert rec.total_ms("b") == pytest.approx(
            sum(s.duration_ms for s in rec.spans_named("b"))
        )


# ---------------------------------------------------------------------------
# exporters


def make_recorder_with_data():
    rec = TraceRecorder()
    with rec.span("pipeline.check", program="p"):
        with rec.span("phase.core"):
            pass
    rec.count("solver.worklist_pops", 7)
    rec.observe("solver.pops_per_component", 3)
    return rec


class TestExporters:
    def test_events_schema(self):
        rec = make_recorder_with_data()
        events = to_events(rec)
        assert events[0]["type"] == "meta"
        spans = [e for e in events if e["type"] == "span"]
        assert [s["name"] for s in spans] == ["pipeline.check", "phase.core"]
        assert spans[1]["parent"] == spans[0]["sid"]
        assert all(s["dur_us"] >= 0 for s in spans)
        counters = [e for e in events if e["type"] == "counter"]
        assert counters == [
            {"type": "counter", "name": "solver.worklist_pops", "value": 7}
        ]
        hists = [e for e in events if e["type"] == "histogram"]
        assert hists[0]["name"] == "solver.pops_per_component"
        assert hists[0]["count"] == 1

    def test_jsonl_round_trips(self):
        rec = make_recorder_with_data()
        lines = to_jsonl(rec).splitlines()
        parsed = [json.loads(line) for line in lines]
        assert parsed == to_events(rec)

    def test_export_rejects_open_spans(self):
        rec = TraceRecorder()
        rec._open("dangling", {})
        with pytest.raises(TelemetryError, match="dangling"):
            to_events(rec)
        with pytest.raises(TelemetryError):
            to_chrome_trace(rec)
        with pytest.raises(TelemetryError):
            metrics_dict(rec)

    def test_chrome_trace_schema(self):
        rec = make_recorder_with_data()
        trace = to_chrome_trace(rec)
        assert set(trace) == {"traceEvents", "displayTimeUnit"}
        assert trace["displayTimeUnit"] == "ms"
        events = trace["traceEvents"]
        assert events[0]["ph"] == "M"  # process_name metadata first
        complete = [e for e in events if e["ph"] == "X"]
        assert {e["name"] for e in complete} == {"pipeline.check", "phase.core"}
        for event in complete:
            assert isinstance(event["ts"], float)
            assert isinstance(event["dur"], float)
            assert event["dur"] >= 0
            assert event["pid"] == 1 and event["tid"] == 1
            assert event["cat"] in {"pipeline", "phase"}
        counters = [e for e in events if e["ph"] == "C"]
        assert counters[0]["name"] == "solver.worklist_pops"
        assert counters[0]["args"] == {"value": 7}
        # Every event phase is one the format defines.
        assert {e["ph"] for e in events} <= {"M", "X", "C"}
        json.dumps(trace)  # must be serialisable as-is

    def test_write_chrome_trace(self, tmp_path):
        rec = make_recorder_with_data()
        path = tmp_path / "trace.json"
        write_chrome_trace(rec, str(path))
        loaded = json.loads(path.read_text())
        assert loaded == json.loads(json.dumps(to_chrome_trace(rec)))

    def test_metrics_dict_aggregates(self):
        rec = make_recorder_with_data()
        metrics = metrics_dict(rec)
        assert metrics["counters"] == {"solver.worklist_pops": 7}
        assert metrics["histograms"]["solver.pops_per_component"]["count"] == 1
        assert metrics["spans"]["phase.core"]["count"] == 1
        assert metrics["spans"]["pipeline.check"]["total_ms"] >= 0

    def test_summary_renders_tree_and_counters(self):
        rec = make_recorder_with_data()
        text = format_trace_summary(rec)
        assert "== telemetry summary ==" in text
        assert "pipeline.check" in text
        assert "  phase.core" in text  # indented under the root
        assert "solver.worklist_pops" in text

    def test_summary_and_metrics_surface_percentiles(self):
        rec = TraceRecorder()
        for value in (1, 3, 7, 100):
            rec.observe("solver.pops_per_component", value)
        text = format_trace_summary(rec)
        assert "p50=" in text and "p95=" in text and "p99=" in text
        payload = metrics_dict(rec)["histograms"]["solver.pops_per_component"]
        assert payload["p50"] is not None
        assert payload["p50"] <= payload["p95"] <= payload["p99"]

    def test_summary_aggregates_large_sibling_groups(self):
        rec = TraceRecorder()
        with rec.span("solver.propagate"):
            for _ in range(20):
                with rec.span("solver.component"):
                    pass
        text = format_trace_summary(rec)
        assert "solver.component ×20" in text
        # Not one line per component.
        assert text.count("solver.component") == 1


# ---------------------------------------------------------------------------
# CountingLattice


class TestCountingLattice:
    def test_counts_and_flushes(self):
        rec = TraceRecorder()
        lattice = CountingLattice(TwoPointLattice(), rec, scope="propagate")
        low, high = lattice.bottom, lattice.top
        lattice.join(low, high)
        lattice.leq(low, high)
        lattice.leq(high, low)
        lattice.meet(low, high)
        assert (lattice.leq_calls, lattice.join_calls, lattice.meet_calls) == (2, 1, 1)
        lattice.flush()
        assert rec.counters == {
            "lattice.leq[two-point].propagate": 2,
            "lattice.join[two-point].propagate": 1,
            "lattice.meet[two-point].propagate": 1,
        }
        # Flushing resets; a second flush adds nothing.
        lattice.flush()
        assert rec.counters["lattice.leq[two-point].propagate"] == 2

    def test_delegates_pure_operations(self):
        inner = TwoPointLattice()
        lattice = CountingLattice(inner, TraceRecorder())
        assert lattice.name == inner.name
        assert list(lattice.labels()) == list(inner.labels())
        assert lattice.height_bound() == inner.height_bound()
        assert lattice.parse_label("high") == inner.parse_label("high")
        assert lattice.format_label(inner.top) == inner.format_label(inner.top)


# ---------------------------------------------------------------------------
# pipeline e2e


class TestPipelineTracing:
    def test_every_phase_appears_exactly_once(self, stripped_case):
        source, lattice_name = stripped_case
        report, rec = traced_check(source, lattice_name, infer=True)
        assert report.ok
        assert report.trace is rec
        assert len(rec.spans_named("pipeline.check")) == 1
        for phase in ("phase.parse", "phase.core", "phase.infer", "phase.ifc"):
            assert len(rec.spans_named(phase)) == 1, phase
        # Solver fine-grained spans landed in the same tree...
        assert rec.spans_named("solver.solve")
        assert rec.spans_named("solver.build")
        assert rec.spans_named("infer.generate")
        # ...and none of them are the projected fallback.
        assert not any(
            s.attrs.get("projected") for s in rec.spans_named("solver.solve")
        )

    def test_span_tree_is_well_formed(self, stripped_case):
        source, lattice_name = stripped_case
        _, rec = traced_check(source, lattice_name, infer=True)
        assert rec.open_spans == []
        by_sid = {span.sid: span for span in rec.spans}
        roots = rec.roots()
        assert [span.name for span in roots] == ["pipeline.check"]
        for span in rec.spans:
            assert span.closed, span.name
            assert span.end_us >= span.start_us
            if span.parent is not None:
                parent = by_sid[span.parent]  # no orphans
                assert parent.start_us <= span.start_us
                assert span.end_us <= parent.end_us + 1e-6, (
                    f"{span.name} escapes {parent.name}"
                )

    def test_solver_spans_nest_under_infer(self, stripped_case):
        source, lattice_name = stripped_case
        _, rec = traced_check(source, lattice_name, infer=True)
        by_sid = {span.sid: span for span in rec.spans}

        def ancestors(span):
            while span.parent is not None:
                span = by_sid[span.parent]
                yield span.name

        for name in ("solver.solve", "solver.build", "infer.generate"):
            for span in rec.spans_named(name):
                assert "phase.infer" in list(ancestors(span)), name

    def test_counters_report_rule_site_traffic(self, stripped_case):
        source, lattice_name = stripped_case
        report, rec = traced_check(source, lattice_name, infer=True)
        assert any(name.startswith("flow.site.") for name in rec.counters)
        assert any(name.startswith("constraints.emitted.") for name in rec.counters)
        assert rec.counters["infer.runs"] == 1
        constraint_count = report.inference_result.constraint_count
        emitted = sum(
            value
            for name, value in rec.counters.items()
            if name.startswith("constraints.emitted.")
        )
        assert emitted == constraint_count
        assert rec.counters["infer.constraints_generated"] == constraint_count
        # The propagate loop counted lattice traffic through CountingLattice.
        if rec.counters.get("solver.worklist_pops"):
            assert any(name.startswith("lattice.") for name in rec.counters)
            assert rec.histograms["solver.pops_per_component"].count >= 1

    def test_private_recorder_when_tracing_is_off(self, stripped_case):
        source, lattice_name = stripped_case
        report = check_source(source, lattice_name, infer=True)
        rec = report.trace
        assert isinstance(rec, TraceRecorder)
        # Coarse phase spans only: the solver internals saw the no-op
        # ambient recorder, so solve_ms arrives as a projected span.
        projected = rec.spans_named("solver.solve")
        assert len(projected) == 1
        assert projected[0].attrs.get("projected") is True
        assert not rec.spans_named("solver.build")
        assert not rec.counters

    def test_timing_is_a_projection_of_the_trace(self, stripped_case):
        source, lattice_name = stripped_case
        report, rec = traced_check(source, lattice_name, infer=True)
        timing = report.timing
        assert timing.parse_ms == pytest.approx(rec.total_ms("phase.parse"))
        assert timing.infer_ms == pytest.approx(rec.total_ms("phase.infer"))
        solver_total = rec.total_ms("solver.solve") + rec.total_ms("solver.rebase")
        assert timing.solve_ms == pytest.approx(solver_total)
        assert 0.0 < timing.solve_ms <= timing.infer_ms


# ---------------------------------------------------------------------------
# PhaseTiming semantics


class TestPhaseTiming:
    def test_total_never_double_counts_sub_phases(self):
        timing = PhaseTiming(
            parse_ms=1.0, core_ms=2.0, infer_ms=10.0, ifc_ms=3.0, solve_ms=7.0
        )
        # solve is inside infer: the total is the top-level partition only.
        assert timing.total_ms == pytest.approx(16.0)
        for sub in PhaseTiming.SUB_PHASES:
            assert sub not in PhaseTiming.TOP_LEVEL

    def test_parse_sub_phases_are_not_double_counted(self):
        timing = PhaseTiming(parse_ms=5.0, lex_ms=2.0, descend_ms=3.0, core_ms=1.0)
        assert timing.total_ms == pytest.approx(6.0)
        tree = timing.as_dict()
        assert tree["parse"]["sub_phases"] == {"lex": {"ms": 2.0}, "descend": {"ms": 3.0}}
        assert "lex" not in tree and "descend" not in tree

    @pytest.mark.parametrize("traced", [False, True])
    def test_parse_phase_splits_into_lex_and_descend(self, stripped_case, traced):
        source, lattice_name = stripped_case
        if traced:
            report, rec = traced_check(source, lattice_name, infer=True)
        else:
            report = check_source(source, lattice_name, infer=True)
            rec = report.trace
        (parse_span,) = rec.spans_named("phase.parse")
        assert [s.name for s in rec.children_of(parse_span)] == ["parse.lex", "parse.descend"]
        timing = report.timing
        assert timing.lex_ms == pytest.approx(rec.total_ms("parse.lex"))
        assert timing.descend_ms == pytest.approx(rec.total_ms("parse.descend"))
        assert 0.0 < timing.lex_ms + timing.descend_ms <= timing.parse_ms
        top_level = sum(timing.phase_ms(phase) for phase in PhaseTiming.TOP_LEVEL)
        assert timing.total_ms == pytest.approx(top_level)

    def test_as_dict_nests_sub_phases(self):
        timing = PhaseTiming(infer_ms=10.0, solve_ms=7.0)
        tree = timing.as_dict()
        assert tree["infer"]["ms"] == 10.0
        assert tree["infer"]["sub_phases"]["solve"]["ms"] == 7.0
        assert "solve" not in tree  # not a top-level key
        assert tree["total_ms"] == pytest.approx(10.0)

    def test_from_spans_projects_and_sums(self):
        rec = TraceRecorder()
        with rec.span("phase.parse"):
            pass
        with rec.span("phase.infer") as infer_span:
            with rec.span("solver.solve"):
                pass
            with rec.span("solver.rebase"):
                pass
        rec._open("phase.core", {})  # left open: must be skipped
        timing = PhaseTiming.from_spans(rec.spans)
        assert timing.parse_ms > 0
        assert timing.infer_ms == pytest.approx(infer_span.duration_ms)
        solve = rec.total_ms("solver.solve") + rec.total_ms("solver.rebase")
        assert timing.solve_ms == pytest.approx(solve)
        assert timing.core_ms == 0.0
        assert timing.total_ms == pytest.approx(timing.parse_ms + timing.infer_ms)

    def test_report_json_keeps_flat_keys_and_adds_phases(self, stripped_case):
        from repro.tool.report import report_to_dict

        source, lattice_name = stripped_case
        report = check_source(source, lattice_name, infer=True)
        payload = report_to_dict(report)["timing_ms"]
        for key in ("parse", "core", "infer", "solve", "ifc", "total"):
            assert key in payload
        phases = payload["phases"]
        assert phases["infer"]["sub_phases"]["solve"]["ms"] == payload["solve"]
        assert payload["total"] == pytest.approx(
            sum(payload[k] for k in ("parse", "core", "infer", "ifc"))
        )


# ---------------------------------------------------------------------------
# no-op guard


class ExplodingRecorder(Recorder):
    """Disabled recorder whose metric hooks raise: proves hot paths branch
    on ``enabled`` before calling them."""

    __slots__ = ("span_calls",)

    def __init__(self):
        self.span_calls = 0

    def span(self, name, **attrs):
        self.span_calls += 1
        return super().span(name, **attrs)

    def count(self, name, amount=1):
        raise AssertionError(f"count({name!r}) called on a disabled recorder")

    def observe(self, name, value):
        raise AssertionError(f"observe({name!r}) called on a disabled recorder")


class TestNoOpGuard:
    def test_disabled_recorder_never_receives_metrics(self, stripped_case):
        source, lattice_name = stripped_case
        exploding = ExplodingRecorder()
        with use_recorder(exploding):
            report = check_source(source, lattice_name, infer=True)
        assert report.ok  # and nothing raised

    def test_disabled_span_calls_are_bounded(self, stripped_case):
        source, lattice_name = stripped_case
        exploding = ExplodingRecorder()
        with use_recorder(exploding):
            check_source(source, lattice_name, infer=True)
        # The disabled path pays only the coarse solver spans -- never one
        # per component, edge, or rule site.
        assert 0 < exploding.span_calls <= 12

    @staticmethod
    def _solve_spans(depth):
        """How many spans a build+solve opens under a disabled recorder."""
        lattice = TwoPointLattice()
        generation = generate_constraints(
            parse_program(deep_dataflow_program(depth)), lattice
        )
        assert not generation.errors
        recorder = ExplodingRecorder()
        with use_recorder(recorder):
            solution = solve(lattice, generation.constraints)
        assert solution.ok
        return recorder.span_calls

    def test_disabled_solve_span_count_is_size_independent(self):
        """Coarse stage spans only: the count must not grow with the system."""
        small = self._solve_spans(300)
        large = self._solve_spans(3_000)
        assert small == large, (
            f"span calls grew with problem size ({small} -> {large}): "
            "a per-component or per-edge span escaped its enabled guard"
        )
        assert large <= 12

    def test_disabled_deep_pipeline_never_calls_metric_hooks(self):
        """A 1,500-deep ``--infer`` run reaches every instrumented layer:
        rule-site hooks, constraint emission, graph build, propagation,
        conflict checks and the pipeline's projected solve span."""
        with use_recorder(ExplodingRecorder()):
            report = check_source(deep_dataflow_program(1_500), infer=True)
        assert report.ok


# ---------------------------------------------------------------------------
# CLI and summary surfacing


@pytest.fixture
def program_file(tmp_path, stripped_case):
    source, lattice_name = stripped_case
    path = tmp_path / "program.p4"
    path.write_text(source)
    return str(path), lattice_name


class TestCliTelemetry:
    def test_trace_writes_chrome_trace(self, tmp_path, program_file, capsys):
        path, lattice_name = program_file
        out = tmp_path / "trace.json"
        code = cli_main(
            [path, "--lattice", lattice_name, "--infer", "--trace", str(out)]
        )
        assert code == 0
        trace = json.loads(out.read_text())
        names = {e["name"] for e in trace["traceEvents"]}
        assert "pipeline.check" in names
        assert "phase.infer" in names
        assert "solver.solve" in names

    def test_trace_jsonl_suffix_switches_format(self, tmp_path, program_file):
        path, lattice_name = program_file
        out = tmp_path / "events.jsonl"
        code = cli_main(
            [path, "--lattice", lattice_name, "--infer", "--trace", str(out)]
        )
        assert code == 0
        events = [json.loads(line) for line in out.read_text().splitlines()]
        assert events[0]["type"] == "meta"
        assert any(e["type"] == "span" for e in events)

    def test_metrics_file(self, tmp_path, program_file):
        path, lattice_name = program_file
        out = tmp_path / "metrics.json"
        code = cli_main(
            [path, "--lattice", lattice_name, "--infer", "--metrics", str(out)]
        )
        assert code == 0
        metrics = json.loads(out.read_text())
        assert metrics["counters"]["infer.runs"] == 1
        assert "pipeline.check" in metrics["spans"]

    def test_trace_summary_prints_tree(self, program_file, capsys):
        path, lattice_name = program_file
        code = cli_main([path, "--lattice", lattice_name, "--infer", "--trace-summary"])
        assert code == 0
        output = capsys.readouterr().out
        assert "== telemetry summary ==" in output
        assert "pipeline.check" in output

    def test_unwritable_trace_path_is_a_usage_error(self, program_file, capsys):
        path, lattice_name = program_file
        code = cli_main(
            [path, "--lattice", lattice_name, "--trace", "/nonexistent/dir/t.json"]
        )
        assert code == 2

    def test_without_flags_no_recorder_is_installed(self, program_file, capsys):
        path, lattice_name = program_file
        code = cli_main([path, "--lattice", lattice_name, "--infer"])
        assert code == 0
        assert "telemetry summary" not in capsys.readouterr().out


class TestSummaryMetrics:
    def test_summary_surfaces_counters_when_traced(self, stripped_case):
        source, lattice_name = stripped_case
        report, _ = traced_check(source, lattice_name, infer=True)
        summary = summarise_report(report, get_lattice(lattice_name))
        assert summary.metrics is not None
        assert any(name.startswith("flow.site.") for name in summary.metrics)
        assert summary.as_dict()["metrics"] == summary.metrics
        text = format_summary(summary)
        assert "telemetry counters:" in text
        assert "solver:" in text  # full Solution.stats line

    def test_summary_metrics_absent_without_tracing(self, stripped_case):
        source, lattice_name = stripped_case
        report = check_source(source, lattice_name, infer=True)
        summary = summarise_report(report, get_lattice(lattice_name))
        assert summary.metrics is None
        assert summary.solver is not None  # stats still surface
