"""The session workspace: warm results must be indistinguishable from cold.

The central contract of `repro.workspace` is *differential transparency*:
after any sequence of edits, pins and save/load round-trips, a workspace's
answers (assignment, diagnostics, inferred labels, unsat cores, leak
witnesses, lints) are exactly what a cold one-shot check of the current
source would produce -- while re-walking only the changed units and
re-solving only the cone of influence.  These tests pin both halves: the
equality, and (via telemetry counters and solver statistics, never timing)
the incrementality.
"""

from __future__ import annotations

import gc
import random

import pytest

from repro.casestudies import get_case_study
from repro.casestudies.base import strip_body_annotations
from repro.lattice.registry import available_lattices, get_lattice
from repro.synth import sharded_dataflow_program
from repro.telemetry import TraceRecorder, use_recorder
from repro.tool.pipeline import check_source
from repro.tool.report import report_to_dict
from repro.workspace import Workspace, WorkspaceError


def _snapshot(workspace: Workspace) -> dict:
    """Everything observable about a workspace's current answers, rendered
    to plain comparable data."""
    report = workspace.check(infer=True, lint=True)
    inference = report.inference_result
    lattice = workspace.lattice
    return {
        "ok": report.ok,
        "diagnostics": [str(x) for x in report.diagnostics],
        "assignment": {
            hint: lattice.format_label(label)
            for hint, label in inference.assignment_by_hint().items()
        },
        "inferred": [x.describe(lattice) for x in inference.inferred],
        "conflicts": len(inference.solution.conflicts),
        "cores": workspace.unsat_cores(),
        "witnesses": [w.describe(lattice) for w in workspace.witnesses()],
        "lints": [
            (f.code, f.severity.value, f.message, str(f.span))
            for f in workspace.lint()
        ],
    }


def _cold_snapshot(source: str, *, lattice: str = "two-point", **options) -> dict:
    """The same snapshot taken by a fresh workspace that never saw any
    other revision -- the cold baseline."""
    workspace = Workspace(get_lattice(lattice), **options)
    assert workspace.open(source, filename="<input>")
    return _snapshot(workspace)


def _assert_matches_cold(workspace: Workspace, source: str, lattice: str) -> None:
    warm = _snapshot(workspace)
    cold = _cold_snapshot(source, lattice=lattice)
    assert warm == cold
    # And the one-shot pipeline facade agrees on the headline answers.
    report = check_source(source, infer=True, lattice=lattice, filename="<input>")
    assert warm["ok"] == report.ok
    assert warm["diagnostics"] == [str(x) for x in report.diagnostics]
    assert warm["assignment"] == {
        hint: workspace.lattice.format_label(label)
        for hint, label in report.inference_result.assignment_by_hint().items()
    }


class TestDifferentialCaseStudies:
    """Edit scripts over the paper's case studies: secure -> insecure ->
    secure, warm answers equal to cold at every step."""

    @pytest.mark.parametrize(
        "name", ["d2r", "app", "lattice", "topology", "cache", "netchain"]
    )
    def test_secure_insecure_roundtrip(self, name):
        case = get_case_study(name)
        workspace = Workspace(get_lattice(case.lattice_name))
        assert workspace.open(case.secure_source, filename="<input>")
        _assert_matches_cold(workspace, case.secure_source, case.lattice_name)
        if case.insecure_source:
            assert workspace.edit(case.insecure_source)
            _assert_matches_cold(
                workspace, case.insecure_source, case.lattice_name
            )
        assert workspace.edit(case.secure_source)
        _assert_matches_cold(workspace, case.secure_source, case.lattice_name)


def _mutate(source: str, rng: random.Random) -> str:
    """One random structural edit of a sharded program's source."""
    blocks = source.split("\n\n")
    headers = [i for i, b in enumerate(blocks) if b.startswith("header ")]
    choice = rng.randrange(4)
    if choice == 0:
        # Flip one shard's seed annotation between high and low.
        index = rng.choice(headers)
        block = blocks[index]
        flipped = (
            block.replace("high> seed", "low> seed")
            if "high> seed" in block
            else block.replace("low> seed", "high> seed")
        )
        blocks[index] = flipped
    elif choice == 1:
        # Formatting-only noise: a comment above a random block.
        index = rng.randrange(len(blocks))
        blocks[index] = "// revision note\n" + blocks[index]
    elif choice == 2:
        # Reorder: rotate the declaration blocks shard-wise (each shard's
        # header stays before its struct, so resolution is unchanged).
        decls = [b for b in blocks if not b.startswith("control ")]
        controls = [b for b in blocks if b.startswith("control ")]
        if len(decls) >= 4:
            decls = decls[2:] + decls[:2]
        blocks = decls + controls
    else:
        # Make one shard's sink explicitly low-annotated, which conflicts
        # with a high seed flowing into it.
        index = rng.choice(headers)
        block = blocks[index]
        lines = block.splitlines()
        for i, line in enumerate(lines):
            if line.strip().startswith("bit<") and line.strip().endswith(";"):
                width = line.strip().split(">")[0] + ">"
                name = line.strip().split()[-1].rstrip(";")
                lines[i] = f"    <{width}, low> {name};"
                break
        blocks[index] = "\n".join(lines)
    return "\n\n".join(blocks)


class TestDifferentialRandomEdits:
    """Randomised edit scripts over synthesized programs, across every
    registered lattice."""

    @pytest.mark.parametrize("lattice", sorted(available_lattices()))
    def test_edit_script_matches_cold(self, lattice):
        rng = random.Random(f"{lattice}/graph")
        source = sharded_dataflow_program(4, depth=3)
        workspace = Workspace(get_lattice(lattice))
        assert workspace.open(source, filename="<input>")
        for _ in range(6):
            source = _mutate(source, rng)
            assert workspace.edit(source)
            warm = _snapshot(workspace)
            cold = _cold_snapshot(source, lattice=lattice)
            assert warm == cold

    def test_save_load_mid_script(self, tmp_path):
        rng = random.Random("persist")
        source = sharded_dataflow_program(3, depth=3)
        workspace = Workspace()
        assert workspace.open(source, filename="<input>")
        for _ in range(2):
            source = _mutate(source, rng)
            assert workspace.edit(source)
        before = _snapshot(workspace)
        path = tmp_path / "session.p4bidws"
        workspace.save(path)
        loaded = Workspace.load(path)
        # The loaded workspace answers identically without re-solving...
        assert _snapshot(loaded) == before
        # ...and further edits continue warm from the restored state.
        source = _mutate(source, rng)
        assert loaded.edit(source)
        assert _snapshot(loaded) == _cold_snapshot(source)
        stats = loaded.stats()["regen"]
        assert stats["units_reused"] > 0

    def test_parse_error_keeps_previous_program(self):
        source = sharded_dataflow_program(2, depth=2)
        workspace = Workspace()
        assert workspace.open(source, filename="<input>")
        good = _snapshot(workspace)
        assert not workspace.edit("header broken {{{")
        assert workspace.parse_error is not None
        broken = workspace.check(infer=True)
        assert not broken.ok
        assert broken.parse_error is not None
        # Recovering with the old source is warm: nothing is re-walked.
        assert workspace.edit(source)
        assert _snapshot(workspace) == good
        assert workspace.stats()["regen"]["units_rewalked"] == 0


class TestIncrementality:
    """A single-declaration edit re-walks only the changed units and
    re-solves only the cone of influence -- asserted through counters and
    solver statistics, never timing."""

    def test_single_shard_edit_is_localised(self):
        shards, depth = 6, 4
        source = sharded_dataflow_program(shards, depth=depth)
        edited = source.replace(
            "header shard3_t {\n    <bit<8>, high> seed;",
            "header shard3_t {\n    <bit<8>, low> seed;",
        )
        assert edited != source
        workspace = Workspace()
        assert workspace.open(source, filename="<input>")
        workspace.check(infer=True)
        total_vars = workspace.check(infer=True).inference_result.variable_count

        recorder = TraceRecorder()
        with use_recorder(recorder):
            assert workspace.edit(edited)
            warm = workspace.check(infer=True)

        # Only shard3's header, struct and control were re-walked.
        assert recorder.counters["workspace.units_rewalked"] == 3
        assert recorder.counters["workspace.units_reused"] == 3 * shards - 3
        # The re-solve was seeded from the edit's cone, far smaller than
        # the whole system, and reused every out-of-cone variable.
        assert recorder.counters["solver.rebase.calls"] == 1
        cone = recorder.counters["solver.rebase.cone_vars"]
        reused = recorder.counters["solver.rebase.vars_reused"]
        assert 0 < cone < total_vars
        assert reused == total_vars - cone
        # The propagation itself visited only the cone's edges.
        stats = warm.inference_result.solution.stats
        assert stats is not None
        assert stats.edges_visited < warm.inference_result.constraint_count
        # And the answers still match a cold solve exactly.
        assert (
            warm.inference_result.assignment_by_hint()
            == check_source(
                edited, infer=True, filename="<input>"
            ).inference_result.assignment_by_hint()
        )

    def test_cold_check_records_no_workspace_counters(self):
        recorder = TraceRecorder()
        with use_recorder(recorder):
            check_source(sharded_dataflow_program(2, depth=2), infer=True)
        assert recorder.counters.get("solver.rebase.calls") is None
        assert recorder.counters["workspace.regenerations"] == 1
        assert recorder.counters["workspace.units_rewalked"] == 6


def _report(report) -> dict:
    """A report as ``p4bid --json`` prints it, minus the timings and the
    solver statistics, which count the warm re-solve's own work."""
    payload = report_to_dict(report)
    payload.pop("timing_ms")
    if payload["inference"] is not None:
        payload["inference"].pop("solver")
    return payload


class TestIncrementalParse:
    """Edits re-parse only the units they touch; the unchanged units come
    back as the cached nodes, and every answer stays the cold one."""

    SEED = "header shard2_t {\n    <bit<8>, low> seed;"

    def test_edit_sequence_matches_fresh_checks(self, tmp_path):
        study = get_case_study("d2r")
        stripped = strip_body_annotations(study.secure_source)
        control = stripped.index("control ")
        revisions = [
            study.insecure_source,
            stripped,
            stripped[: len(stripped) // 2],  # fails to parse
            stripped.replace("\n", "\n// note\n", 1),  # a comment line at the top
            stripped[:control] + "\n\n" + stripped[control:],  # lines above a control
            stripped[:control] + "/* only a comment */" + stripped[control:],
            "save-load",
            study.secure_source,
        ]
        workspace = Workspace(study.lattice_name)
        assert workspace.open(study.secure_source, filename="d2r.p4")
        for revision in revisions:
            if revision == "save-load":
                path = tmp_path / "session.p4bidws"
                workspace.save(path)
                workspace = Workspace.load(path)
                continue
            workspace.edit(revision)
            warm = workspace.check(infer=True, lint=True)
            cold = check_source(
                revision, study.lattice_name, infer=True, lint=True, filename="d2r.p4"
            )
            assert _report(warm) == _report(cold)

    def test_parse_counters(self):
        source = sharded_dataflow_program(4, depth=3, source_level="low")
        workspace = Workspace()
        assert workspace.open(source, filename="s.p4")
        workspace.check(infer=True)
        assert workspace.stats()["parse"] == {"units_reused": 0, "units_reparsed": 12}

        raised = source.replace(self.SEED, self.SEED.replace("low", "high"))
        recorder = TraceRecorder()
        with use_recorder(recorder):
            assert workspace.edit(raised)
            workspace.check(infer=True)
        assert workspace.stats()["parse"] == {"units_reused": 11, "units_reparsed": 1}
        assert recorder.counters["parse.units_reparsed"] == 1
        assert recorder.counters["parse.units_reused"] == 11
        # The reused units are matched by identity: nothing is re-spanned.
        assert recorder.counters["workspace.units_rewalked"] == 3
        assert recorder.counters.get("workspace.units_respanned", 0) == 0

        assert workspace.edit("// a new first line\n" + raised)
        workspace.check(infer=True)
        assert workspace.stats()["parse"] == {"units_reused": 0, "units_reparsed": 12}
        regen = workspace.stats()["regen"]
        assert (regen["units_rewalked"], regen["units_respanned"]) == (0, 12)

    def test_open_program_and_load_reset_the_index(self, tmp_path):
        source = sharded_dataflow_program(4, depth=3, source_level="low")
        raised = source.replace(self.SEED, self.SEED.replace("low", "high"))
        workspace = Workspace()
        assert workspace.open(source, filename="s.p4")
        workspace.check(infer=True)
        path = tmp_path / "session.p4bidws"
        workspace.save(path)
        loaded = Workspace.load(path)
        assert loaded.edit(raised)
        assert loaded.stats()["parse"] == {"units_reused": 0, "units_reparsed": 12}
        workspace.open_program(loaded.program)
        assert workspace.edit(source)
        assert workspace.stats()["parse"] == {"units_reused": 0, "units_reparsed": 12}

    def test_edits_retain_nothing(self):
        """Raise/lower cycles return the session to the same state, and the
        memory it holds to the same size."""
        source = sharded_dataflow_program(6, depth=8, source_level="low")
        raised = source.replace(self.SEED, self.SEED.replace("low", "high"))
        workspace = Workspace()
        assert workspace.open(source, filename="s.p4")
        workspace.check(infer=True)
        registry = workspace._generator.algebra.registry

        def counts():
            gc.collect()
            return len(gc.get_objects()), len(registry._hints), len(workspace._cache)

        for cycle in range(80):
            for revision in (raised, source):
                assert workspace.edit(revision)
                workspace.check(infer=True)
            if cycle == 0:
                first = counts()
        assert counts() == first


class TestPins:
    def test_pin_and_unpin_restore_least_solution(self):
        source = sharded_dataflow_program(2, depth=2)
        workspace = Workspace()
        assert workspace.open(source, filename="<input>")
        base = workspace.infer().assignment_by_hint()
        hint = next(iter(base))
        workspace.pin(hint, "high")
        pinned = workspace.infer().assignment_by_hint()
        assert workspace.lattice.format_label(pinned[hint]) == "high"
        assert workspace.pins == {hint: workspace.lattice.parse_label("high")}
        workspace.pin(hint, None)
        assert workspace.pins == {}
        assert workspace.infer().assignment_by_hint() == base

    def test_pin_survives_structural_edit(self):
        source = sharded_dataflow_program(3, depth=3)
        edited = source.replace("hdr.data.s1 = hdr.data.s0;", "hdr.data.s1 = 3;", 1)
        workspace = Workspace()
        assert workspace.open(source, filename="<input>")
        base = workspace.infer().assignment_by_hint()
        hint = sorted(base)[0]
        workspace.pin(hint, "high")
        assert workspace.edit(edited)
        warm = workspace.infer().assignment_by_hint()
        assert workspace.lattice.format_label(warm[hint]) == "high"
        # Unpinning after the edit lands exactly on the cold least solution.
        workspace.pin(hint, None)
        cold = check_source(
            edited, infer=True, filename="<input>"
        ).inference_result.assignment_by_hint()
        assert workspace.infer().assignment_by_hint() == cold

    def test_pin_unknown_hint_is_an_error(self):
        workspace = Workspace()
        assert workspace.open(sharded_dataflow_program(1), filename="<input>")
        with pytest.raises(WorkspaceError):
            workspace.pin("no-such-slot", "high")


class TestPersistenceFormat:
    def test_rejects_foreign_payloads(self, tmp_path):
        path = tmp_path / "bogus.p4bidws"
        path.write_bytes(b"not a workspace")
        with pytest.raises(WorkspaceError):
            Workspace.load(path)

    def test_stats_shape(self):
        workspace = Workspace(name="session-under-test")
        assert workspace.open(sharded_dataflow_program(2), filename="<input>")
        workspace.check(infer=True)
        stats = workspace.stats()
        assert stats["name"] == "session-under-test"
        assert stats["parsed"] is True
        assert stats["revision"] == 1
        assert stats["units"] == 6
        assert stats["solver"]["solved"] is True
