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
import json
import pickle
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.casestudies import get_case_study
from repro.casestudies.base import strip_body_annotations
from repro.frontend.errors import FrontendError
from repro.frontend.parser import ParseIndex, parse_program
from repro.lattice import (
    ChainLattice,
    DiamondLattice,
    ProductLattice,
    TwoPointLattice,
)
from repro.lattice.registry import available_lattices, get_lattice
from repro.synth import sharded_dataflow_program
from repro.syntax.printer import pretty_print
from repro.telemetry import TraceRecorder, use_recorder
from repro.tool.pipeline import check_source
from repro.tool.cli import _collect_findings
from repro.tool.report import format_report, report_to_dict
from repro.analysis.sarif import sarif_json
from repro.workspace import Workspace, WorkspaceError


def _snapshot(workspace: Workspace) -> dict:
    """Everything observable about a workspace's current answers, rendered
    to plain comparable data."""
    report = workspace.check(infer=True, lint=True)
    inference = report.inference_result
    lattice = workspace.lattice
    ifc = report.ifc_result
    return {
        "ok": report.ok,
        "diagnostics": [str(x) for x in report.diagnostics],
        "core": [str(x) for x in report.core_diagnostics],
        "ifc": None
        if ifc is None
        else {
            "function_bounds": {
                name: lattice.format_label(label)
                for name, label in ifc.function_bounds.items()
            },
            "table_bounds": {
                name: lattice.format_label(label)
                for name, label in ifc.table_bounds.items()
            },
            "declassifications": [str(event) for event in ifc.declassifications],
        },
        "elaborated": pretty_print(inference.elaborated),
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


def _cold_snapshot(
    source: str, *, lattice: str = "two-point", pins=None, **options
) -> dict:
    """The same snapshot taken by a fresh workspace that never saw any
    other revision -- the cold baseline.  ``pins`` (hint -> label) are
    set before its first solve, skipping hints the revision no longer
    has, exactly as a warm session ignores them."""
    workspace = Workspace(get_lattice(lattice), **options)
    assert workspace.open(source, filename="<input>")
    for hint, label in (pins or {}).items():
        try:
            workspace.pin(hint, label)
        except WorkspaceError:
            pass  # no such slot in this revision
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


def _pin_step(workspace: Workspace, rng: random.Random) -> None:
    """Pin a random slot to the lattice's top, or unpin a pinned one."""
    pinned = sorted(workspace.pins)
    if pinned and rng.random() < 0.4:
        workspace.pin(rng.choice(pinned), None)
        return
    hints = sorted(site.hint for site in workspace.infer().generation.sites)
    if hints:
        workspace.pin(rng.choice(hints), workspace.lattice.top)


def _toggle_declassify(source: str, rng: random.Random) -> str:
    """Wrap one copy in a shard's chain in ``declassify``, or unwrap one."""
    lines = source.split("\n")
    wrapped = [i for i, line in enumerate(lines) if "declassify(" in line]
    if wrapped and rng.random() < 0.5:
        index = rng.choice(wrapped)
        line = lines[index]
        lines[index] = line.replace("declassify(", "").replace(");", ";")
        return "\n".join(lines)
    copies = [
        i
        for i, line in enumerate(lines)
        if line.strip().startswith("hdr.data.s") and "declassify(" not in line
    ]
    index = rng.choice(copies)
    target, value = lines[index].split(" = ")
    lines[index] = f"{target} = declassify({value.rstrip(';')});"
    return "\n".join(lines)


class TestDifferentialRandomEdits:
    """Randomised edit scripts over synthesized programs, across every
    registered lattice."""

    @pytest.mark.parametrize("lattice", sorted(available_lattices()))
    def test_edit_script_matches_cold(self, lattice):
        rng = random.Random(f"{lattice}/graph")
        pin_rng = random.Random(f"{lattice}/pins")
        source = sharded_dataflow_program(4, depth=3)
        workspace = Workspace(get_lattice(lattice))
        assert workspace.open(source, filename="<input>")
        for _ in range(6):
            source = _mutate(source, rng)
            assert workspace.edit(source)
            warm = _snapshot(workspace)
            cold = _cold_snapshot(source, lattice=lattice, pins=workspace.pins)
            assert warm == cold
            # A pin or unpin over the same revision, warm against cold.
            _pin_step(workspace, pin_rng)
            warm = _snapshot(workspace)
            cold = _cold_snapshot(source, lattice=lattice, pins=workspace.pins)
            assert warm == cold

    @pytest.mark.parametrize("lattice", sorted(available_lattices()))
    def test_declassifying_edit_script_matches_cold(self, lattice):
        """The same scripts with audited releases honoured: declassify
        calls come and go, and the release events, write bounds and
        elaborated program stay the cold ones."""
        rng = random.Random(f"{lattice}/declassify")
        source = sharded_dataflow_program(4, depth=3)
        workspace = Workspace(get_lattice(lattice), allow_declassification=True)
        assert workspace.open(source, filename="<input>")
        for _ in range(6):
            if rng.random() < 0.5:
                source = _toggle_declassify(source, rng)
            else:
                source = _mutate(source, rng)
            assert workspace.edit(source)
            _pin_step(workspace, rng)
            warm = _snapshot(workspace)
            cold = _cold_snapshot(
                source,
                lattice=lattice,
                pins=workspace.pins,
                allow_declassification=True,
            )
            assert warm == cold

    @pytest.mark.parametrize("lattice", ["two-point", "diamond"])
    def test_save_load_mid_script(self, tmp_path, lattice):
        rng = random.Random("persist")
        source = sharded_dataflow_program(3, depth=3)
        workspace = Workspace(get_lattice(lattice))
        assert workspace.open(source, filename="<input>")
        for _ in range(2):
            source = _mutate(source, rng)
            assert workspace.edit(source)
        hint = sorted(workspace.infer().assignment_by_hint())[0]
        workspace.pin(hint, workspace.lattice.top)
        before = _snapshot(workspace)
        path = tmp_path / "session.p4bidws"
        workspace.save(path)
        loaded = Workspace.load(path)
        # The loaded workspace answers identically, pins included...
        assert loaded.pins == workspace.pins
        assert loaded.revision == workspace.revision
        assert _snapshot(loaded) == before
        # ...and further edits diff against the loaded state.
        source = _mutate(source, rng)
        assert loaded.edit(source)
        assert _snapshot(loaded) == _cold_snapshot(
            source, lattice=lattice, pins=loaded.pins
        )
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
        # The reused units are matched by identity.  The five clean ones
        # after the edit moved a character ("low" became "high").
        assert recorder.counters["workspace.units_rewalked"] == 3
        assert recorder.counters["workspace.units_respanned"] == 5

        # A line above every unit moves them all: each is reused as it
        # stands, its anchor moved, and none is re-walked or re-checked.
        assert workspace.edit("// a new first line\n" + raised)
        workspace.check(infer=True)
        assert workspace.stats()["parse"] == {"units_reused": 12, "units_reparsed": 0}
        regen = workspace.stats()["regen"]
        assert (regen["units_rewalked"], regen["units_respanned"]) == (0, 12)
        assert set(workspace.stats()["rechecks"].values()) == {0}

    def test_open_program_resets_and_load_keeps_the_index(self, tmp_path):
        source = sharded_dataflow_program(4, depth=3, source_level="low")
        raised = source.replace(self.SEED, self.SEED.replace("low", "high"))
        workspace = Workspace()
        assert workspace.open(source, filename="s.p4")
        workspace.check(infer=True)
        path = tmp_path / "session.p4bidws"
        workspace.save(path)
        # A load opens the saved source, so its first edit re-parses only
        # the unit it touched, as in the session that saved it.
        loaded = Workspace.load(path)
        assert loaded.edit(raised)
        assert loaded.stats()["parse"] == {"units_reused": 11, "units_reparsed": 1}
        workspace.open_program(loaded.program)
        assert workspace.edit(source)
        assert workspace.stats()["parse"] == {"units_reused": 0, "units_reparsed": 12}

    def test_a_workspace_never_rebases_units_it_adopted(self):
        # Wide gaps, so that stale offsets would still fall on whitespace.
        source = sharded_dataflow_program(4, depth=3, source_level="low") + "\n" * 20
        first = Workspace()
        assert first.open(source, filename="<input>")
        first.check(infer=True)
        before = _snapshot(first)
        # A second workspace adopts the first one's nodes, then edits a
        # revision of its own with five lines inserted above them.
        second = Workspace()
        second.open_program(first.program)
        second.check(infer=True)
        assert second.edit("\n" * 5 + source)
        assert "<workspace>:8:5" in str(report_to_dict(second.check(infer=True)))
        # The first workspace still renders its own revision.
        rendered = str(report_to_dict(first.check(infer=True)))
        assert "<input>:3:5" in rendered and "<workspace>" not in rendered
        assert _snapshot(first) == before
        edited = source + "\n"
        assert first.edit(edited)
        assert first.stats()["parse"] == {"units_reused": 12, "units_reparsed": 0}
        assert _snapshot(first) == _cold_snapshot(edited)

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
            # A full collection untracks a tuple of atomic items only if
            # its items were untracked before it was visited, so a nested
            # key tuple can take a second pass to leave the count.
            gc.collect()
            gc.collect()
            graph = workspace._solver.graph
            return (
                len(gc.get_objects()),
                len(registry._hints),
                len(graph.edges),
                len(graph._edge_index),
                graph.variable_count,
                len(graph.components),
            )

        for cycle in range(80):
            for revision in (raised, source):
                assert workspace.edit(revision)
                workspace.check(infer=True)
            if cycle == 0:
                first = counts()
        assert counts() == first


#: Programs and lattices for the line-edit differential: violations with
#: witnesses, slots to infer, ``@pc`` controls and a core type error.
LINE_EDIT_CORPUS = [
    (get_case_study("cache").insecure_source, "two-point"),
    (strip_body_annotations(get_case_study("d2r").secure_source), "two-point"),
    (get_case_study("lattice").insecure_source, "diamond"),
    (
        sharded_dataflow_program(3, depth=3, source_level="low").replace(
            "hdr.data.s1 = hdr.data.s0;", "hdr.data.s1 = true;", 1
        ),
        "two-point",
    ),
]


def _line_edit(data, source: str) -> str:
    """Insert or delete lines and blank lines before, inside and between
    units, re-indent a line, split or join lines, or move a unit."""
    lines = source.split("\n")
    at = data.draw(st.integers(0, len(lines) - 1))
    kind = data.draw(
        st.sampled_from(["blank", "comment", "delete", "indent", "split", "join", "move"])
    )
    if kind == "blank":
        lines.insert(at, "")
    elif kind == "comment":
        lines.insert(at, "// a note")
    elif kind == "delete":
        blank = [i for i, line in enumerate(lines) if not line.strip() or line.strip().startswith("//")]
        if blank:
            del lines[data.draw(st.sampled_from(blank))]
    elif kind == "indent":
        lines[at] = "  " + lines[at]
    elif kind == "split":
        spaces = [i for i, char in enumerate(lines[at]) if char == " "]
        if spaces:
            cut = data.draw(st.sampled_from(spaces))
            lines[at : at + 1] = [lines[at][:cut], lines[at][cut + 1 :]]
    elif kind == "join" and at + 1 < len(lines) and "//" not in lines[at]:
        lines[at : at + 2] = [lines[at] + " " + lines[at + 1]]
    elif kind == "move":
        index = ParseIndex()
        try:
            parse_program(source, "<input>", index=index)
        except FrontendError:
            return "\n".join(lines)
        units = [(unit.span.anchor.start, unit.span.anchor.end) for unit in index.units]
        start, end = data.draw(st.sampled_from(units))
        text, rest = source[start:end], source[:start] + source[end:]
        starts = [0] + [b - (end - start if b > start else 0) for b, _ in units if b != start]
        to = data.draw(st.sampled_from(starts))
        return rest[:to] + text + "\n" + rest[to:]
    return "\n".join(lines)


def _rendered(report) -> tuple:
    """A report as every output renders it: ``--json`` (minus timings and
    solver statistics), the text report (minus its timing line) and SARIF."""
    text = "\n".join(
        line for line in format_report(report).splitlines() if not line.startswith("timing:")
    )
    sarif = sarif_json([("<input>", _collect_findings(report, Path("<input>")))])
    return _report(report), text, sarif


class TestLineEditsMatchCold:
    """Edits that only add, remove or move lines move units: the warm
    session re-bases their anchors instead of re-walking them, and every
    rendered position must be the one a cold check of the same text gives
    -- diagnostics, witnesses, slot locations and SARIF regions."""

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_line_edits_render_as_cold(self, data):
        source, lattice = data.draw(st.sampled_from(LINE_EDIT_CORPUS))
        workspace = Workspace(lattice, name="prog")
        workspace.open(source, filename="<input>")
        workspace.check(infer=True, lint=True)
        for _ in range(data.draw(st.integers(1, 4))):
            source = _line_edit(data, source)
            workspace.edit(source)
            warm = workspace.check(infer=True, lint=True)
            cold = check_source(
                source, lattice, infer=True, lint=True, filename="<input>", name="prog"
            )
            assert _rendered(warm) == _rendered(cold)


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

    def test_unpin_a_slot_an_edit_removed(self):
        workspace = Workspace()
        assert workspace.open(sharded_dataflow_program(2, depth=2), filename="<input>")
        workspace.check(infer=True)
        workspace.pin("field shard1_t.s0", "high")
        one_shard = sharded_dataflow_program(1, depth=2)
        assert workspace.edit(one_shard)
        workspace.check(infer=True)
        assert workspace.stats()["pins"] == {"field shard1_t.s0": "high"}
        workspace.pin("field shard1_t.s0", None)
        assert workspace.pins == {}
        assert workspace.stats()["pins"] == {}
        assert _snapshot(workspace) == _cold_snapshot(one_shard)
        # A slot that was never pinned is still unknown.
        with pytest.raises(WorkspaceError):
            workspace.pin("field shard1_t.s0", None)

    def test_pin_unknown_hint_is_an_error(self):
        workspace = Workspace()
        assert workspace.open(sharded_dataflow_program(1), filename="<input>")
        with pytest.raises(WorkspaceError):
            workspace.pin("no-such-slot", "high")


SAVED = sharded_dataflow_program(2, depth=2)


def _saved_snapshot(tmp_path) -> dict:
    """The snapshot of a session over ``SAVED`` with one pin, decoded."""
    workspace = Workspace(name="saved")
    assert workspace.open(SAVED, filename="s.p4")
    workspace.pin("field shard0_t.s0", "high")
    path = tmp_path / "saved.p4bidws"
    workspace.save(path)
    return json.loads(path.read_bytes().decode("utf-8"))


_DROP = object()


def _with(**fields):
    """A snapshot edit setting ``fields`` (``_DROP`` removes one)."""

    def edit(snapshot: dict) -> bytes:
        for key, value in fields.items():
            if value is _DROP:
                del snapshot[key]
            else:
                snapshot[key] = value
        return json.dumps(snapshot).encode("utf-8")

    return edit


#: One malformed snapshot per way a load rejects one: each turns a good
#: snapshot's decoded fields into the bytes written.
MALFORMED = {
    "not-utf8": lambda snapshot: b"\xff\xfe" + json.dumps(snapshot).encode(),
    "not-json": lambda snapshot: b"not a workspace",
    "deep-json": lambda snapshot: b"[" * 100_000,
    "not-an-object": lambda snapshot: b"[1, 2, 3]",
    "wrong-format": _with(format="p4bid-trace"),
    "wrong-version": _with(version=4),
    "missing-field": _with(pins=_DROP),
    "extra-field": _with(workspace="anything"),
    "unknown-lattice": _with(lattice="no-such-lattice"),
    "bad-label": _with(pins={"field shard0_t.s0": "ultra"}),
    "hint-without-slot": _with(pins={"no-such-slot": "high"}),
    "source-not-text": _with(source=7),
    "revision-not-int": _with(revision="3"),
    "revision-bool": _with(revision=True),
    "revision-zero": _with(revision=0),
    "option-not-bool": _with(allow_declassification="yes"),
    "name-not-text": _with(name=5),
    "filename-null": _with(filename=None),
    "lattice-not-text": _with(lattice=["two-point"]),
    "pins-not-object": _with(pins=[["field shard0_t.s0", "high"]]),
    "pin-not-text": _with(pins={"field shard0_t.s0": 1}),
}


class _Touch:
    """Unpickling this opens, so creates, ``path``."""

    def __init__(self, path) -> None:
        self.path = str(path)

    def __reduce__(self):
        return (open, (self.path, "w"))


class TestPersistenceFormat:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_rejects_foreign_payloads(self, tmp_path, case):
        path = tmp_path / "bogus.p4bidws"
        path.write_bytes(MALFORMED[case](_saved_snapshot(tmp_path)))
        with pytest.raises(WorkspaceError):
            Workspace.load(path)

    @pytest.mark.parametrize("protocol", [0, 4])
    def test_never_unpickles(self, tmp_path, protocol):
        marker = tmp_path / "marker"
        path = tmp_path / "session.p4bidws"
        path.write_bytes(pickle.dumps(_Touch(marker), protocol=protocol))
        with pytest.raises(WorkspaceError):
            Workspace.load(path)
        assert not marker.exists()

    def test_snapshot_is_source_options_and_pins(self, tmp_path):
        assert _saved_snapshot(tmp_path) == {
            "format": "p4bid-workspace",
            "version": 5,
            "lattice": "two-point",
            "allow_declassification": False,
            "name": "saved",
            "filename": "s.p4",
            "revision": 1,
            "source": SAVED,
            "pins": {"field shard0_t.s0": "high"},
        }

    def test_unsaveable_workspaces(self, tmp_path):
        path = tmp_path / "session.p4bidws"
        with pytest.raises(WorkspaceError, match="without source text"):
            Workspace().save(path)
        opened = Workspace()
        assert opened.open(SAVED, filename="s.p4")
        from_program = Workspace()
        from_program.open_program(opened.program)
        with pytest.raises(WorkspaceError, match="without source text"):
            from_program.save(path)
        # A product has no registry name; a chain over its own levels
        # shares the name of the registry's chain over L0 .. L2.
        for lattice in (
            ProductLattice(TwoPointLattice(), DiamondLattice()),
            ChainLattice(["public", "internal", "secret"]),
        ):
            unregistered = Workspace(lattice)
            assert unregistered.open(SAVED, filename="s.p4")
            with pytest.raises(WorkspaceError, match="registry cannot rebuild"):
                unregistered.save(path)
        assert not path.exists()

    def test_unparsed_source_keeps_its_pins(self, tmp_path):
        workspace = Workspace()
        assert workspace.open(SAVED, filename="<input>")
        workspace.pin("field shard0_t.s0", "high")
        assert not workspace.edit("header broken {{{")
        path = tmp_path / "session.p4bidws"
        workspace.save(path)
        loaded = Workspace.load(path)
        assert loaded.parse_error == workspace.parse_error
        assert loaded.pins == workspace.pins
        assert loaded.edit(SAVED)
        assert _snapshot(loaded) == _cold_snapshot(SAVED, pins=workspace.pins)

    def test_stale_pins_are_left_out(self, tmp_path):
        workspace = Workspace()
        assert workspace.open(SAVED, filename="s.p4")
        workspace.pin("field shard1_t.s0", "high")
        # An edit drops the pinned slot's shard; the pin names no slot now.
        assert workspace.edit(sharded_dataflow_program(1, depth=2))
        before = _snapshot(workspace)
        path = tmp_path / "session.p4bidws"
        workspace.save(path)
        loaded = Workspace.load(path)
        assert loaded.pins == {}
        assert _snapshot(loaded) == before

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
