"""Per-unit re-checking past generation: elaboration and the IFC
re-check redo only the units an edit or a pin invalidated, and the core
diagnostics come from the walks, not a walk of their own.

Two halves, as in ``test_workspace.py``: how much was redone (through
the ``workspace.units_*`` telemetry counters and ``Workspace.stats()``,
never timing), and that what was reused is exactly what a cold check of
the same source reports -- including the edits that reuse the most
(identity-matched units, units whose declarer moved or disappeared, a
re-check skipped while the revision had conflicts).
"""

from __future__ import annotations

import random

import pytest
from test_workspace import _cold_snapshot, _mutate, _snapshot, _toggle_declassify

from repro.lattice.registry import available_lattices, get_lattice
from repro.synth import sharded_dataflow_program
from repro.telemetry import TraceRecorder, use_recorder
from repro.tool.pipeline import check_source
from repro.tool.report import report_to_dict
from repro.workspace import Workspace, diff

RECHECKS = ("units_elaborated", "units_ifc_checked")
SEED = "header shard3_t {\n    <bit<8>, low> seed;"


def _counted(action) -> dict:
    """The re-check counters one traced action recorded (0 when absent)."""
    recorder = TraceRecorder()
    with use_recorder(recorder):
        action()
    counters = recorder.counters
    return {
        name: counters.get("workspace." + name, 0)
        for name in ("units_rewalked", *RECHECKS)
    }


def _session(shards: int = 6, depth: int = 4):
    source = sharded_dataflow_program(shards, depth=depth, source_level="low")
    workspace = Workspace()
    assert workspace.open(source, filename="<input>")
    workspace.check(infer=True)
    return workspace, source


def _plain(report) -> dict:
    """A check without inference, rendered to comparable data."""
    ifc = report.ifc_result
    lattice = get_lattice(report.lattice_name)
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
    }


class TestRecheckCounters:
    def test_cold_check_walks_every_unit_once(self):
        workspace = Workspace()
        assert workspace.open(sharded_dataflow_program(2, depth=2), filename="<input>")
        counted = _counted(lambda: workspace.check(infer=True))
        assert counted == dict.fromkeys(("units_rewalked", *RECHECKS), 6)
        assert workspace.stats()["rechecks"] == dict.fromkeys(RECHECKS, 6)

    def test_single_shard_edit_rechecks_its_three_units(self):
        workspace, source = _session()
        raised = source.replace(SEED, SEED.replace("low", "high"))

        def edit():
            assert workspace.edit(raised)
            workspace.check(infer=True)

        # The shard's header, struct and control, in every phase.
        assert _counted(edit) == dict.fromkeys(("units_rewalked", *RECHECKS), 3)
        assert workspace.stats()["rechecks"] == dict.fromkeys(RECHECKS, 3)

    def test_pin_rechecks_only_the_pinned_units(self):
        workspace, _ = _session()

        def pin():
            workspace.pin("field shard2_t.s1", "high")
            workspace.check(infer=True)

        counted = _counted(pin)
        # No edit: nothing is re-walked, so the core diagnostics stand.  The
        # pinned slots live in shard 2's header, the one unit re-elaborated;
        # the IFC re-check also redoes the struct and control typed against it.
        assert counted["units_rewalked"] == 0
        assert counted["units_elaborated"] == 1
        assert counted["units_ifc_checked"] == 3

        def unpin():
            workspace.pin("field shard2_t.s1", None)
            workspace.check(infer=True)

        assert _counted(unpin)["units_ifc_checked"] == 3

    def test_line_shift_rechecks_nothing(self):
        """An edit that only moves units moves their anchors: they are
        neither re-parsed nor re-walked, and their diagnostics and
        elaborated nodes render at the new positions as they stand."""
        workspace, source = _session()
        shifted = "// a new first line\n" + source
        recorder = TraceRecorder()
        with use_recorder(recorder):
            assert workspace.edit(shifted)
            warm = workspace.check(infer=True)
        assert recorder.counters["workspace.units_respanned"] == 18
        assert recorder.counters["parse.units_reparsed"] == 0
        for name in ("units_rewalked", *RECHECKS):
            assert recorder.counters.get("workspace." + name, 0) == 0
        assert _snapshot(workspace) == _cold_snapshot(shifted)

    def test_comment_only_edit_in_place_rechecks_nothing(self):
        workspace, source = _session()
        control = source.index("control Shard4")
        noted = source[:control] + "/* reviewed */ " + source[control:]
        recorder = TraceRecorder()
        with use_recorder(recorder):
            assert workspace.edit(noted)
            workspace.check(infer=True)
        # The comment sits between units: the controls after it are reused
        # as they stand, moved, and nothing is re-checked.
        assert recorder.counters["parse.units_reparsed"] == 0
        assert recorder.counters["workspace.units_respanned"] == 2
        for name in ("units_rewalked", *RECHECKS):
            assert recorder.counters.get("workspace." + name, 0) == 0

    def test_blank_line_inside_a_unit_rechecks_nothing(self):
        """A blank line after shard 0's seed re-parses its header; the
        re-parsed header has the same tokens, so the cached one is
        re-based onto it, and no phase redoes any unit."""
        source = sharded_dataflow_program(20, depth=30, source_level="low")
        workspace = Workspace()
        assert workspace.open(source, filename="<input>")
        workspace.check(infer=True)
        seed = "header shard0_t {\n    <bit<8>, low> seed;\n"
        spaced = source.replace(seed, seed + "\n")
        for revision in (spaced, source):
            recorder = TraceRecorder()
            with use_recorder(recorder):
                assert workspace.edit(revision)
                warm = workspace.check(infer=True)
            counters = recorder.counters
            assert (counters["parse.units_reparsed"], counters["workspace.units_total"]) == (1, 60)
            for name in ("units_rewalked", *RECHECKS):
                assert counters.get("workspace." + name, 0) == 0
            assert _snapshot(workspace) == _cold_snapshot(revision)


    def test_session_without_inference_rechecks_only_the_edit(self):
        """The IFC check, which reports the core diagnostics too, reuses
        per-unit products in a session that never infers, as the served
        ``check`` does by default."""
        source = sharded_dataflow_program(6, depth=4, source_level="low")
        workspace = Workspace()
        assert workspace.open(source, filename="<input>")
        workspace.check()
        raised = source.replace(SEED, SEED.replace("low", "high"))
        counted = _counted(lambda: (workspace.edit(raised), workspace.check()))
        assert counted == {
            "units_rewalked": 0,
            "units_elaborated": 0,
            "units_ifc_checked": 3,
        }
        # Moved units are the same node objects at new positions: their
        # products render there as they stand.
        counted = _counted(
            lambda: (workspace.edit("// a new first line\n" + raised), workspace.check())
        )
        assert counted["units_ifc_checked"] == 0


class TestCoreFromTheWalks:
    """A check reads the Core P4 diagnostics from its first walk over the
    source -- the IFC check, or generation when inferring -- so it walks
    each unit once without inference and twice with it (generation, then
    the re-check of the elaborated program), never the label-free walk."""

    # Shard 1's control reads an unknown field and adds a bool to a byte.
    SOURCE = sharded_dataflow_program(3, depth=3, source_level="low").replace(
        "control Shard1(inout shard1_headers hdr) {\n    apply {\n",
        "control Shard1(inout shard1_headers hdr) {\n    apply {\n"
        "        hdr.data.s1 = hdr.data.nope;\n        hdr.data.s2 = hdr.data.s0 + true;\n",
    )

    @staticmethod
    def _core_only(source: str) -> list:
        report = check_source(source, include_ifc=False, filename="<input>")
        return [str(d) for d in report.core_diagnostics]

    @staticmethod
    def _refuse_label_free_walk(monkeypatch) -> None:
        from repro.typechecker import checker

        def refuse(*args, **kwargs):
            raise AssertionError("the label-free walk ran")

        monkeypatch.setattr(checker, "check_core_types", refuse)

    @pytest.mark.parametrize("infer", [False, True])
    def test_one_shot_check(self, monkeypatch, infer):
        expected = self._core_only(self.SOURCE)
        assert len(expected) == 2
        self._refuse_label_free_walk(monkeypatch)
        recorder = TraceRecorder()
        with use_recorder(recorder):
            report = check_source(self.SOURCE, infer=infer, filename="<input>")
        assert [str(d) for d in report.core_diagnostics] == expected
        counters = recorder.counters
        walks = (counters.get("workspace.units_rewalked", 0), counters["workspace.units_ifc_checked"])
        assert walks == ((9, 9) if infer else (0, 9))

    def test_served_warm_check(self, monkeypatch):
        from test_workspace_rpc import result_of

        from repro.workspace.rpc import WorkspaceServer

        revisions = [self.SOURCE, "// a new first line\n" + self.SOURCE, self.SOURCE]
        expected = [self._core_only(revision) for revision in revisions]
        self._refuse_label_free_walk(monkeypatch)
        server = WorkspaceServer()
        result_of(server, "open", {"source": self.SOURCE, "filename": "<input>"})
        for revision, cold in zip(revisions, expected):
            result_of(server, "edit", {"source": revision})
            assert result_of(server, "check", {"infer": True})["core_diagnostics"] == cold


class TestCoreWhenAnAnnotationDoesNotResolve:
    """A unit whose annotation did not resolve has no core outputs from
    the walk over the source; the label-free walk remakes them, and those
    of every unit that depends on it, and replays the other units."""

    # Top-level variables of an unknown type and with an unknown label,
    # which the control then misuses: five units, three of them walked.
    SOURCE = """header h_t { <bit<8>, low> a; <bit<8>, high> b; }
struct headers { h_t h; }
nosuch_t x;
<bit<8>, nolabel> y;
control C(inout headers hdr) {
    apply {
        hdr.h.a = x;
        y = true;
    }
}
"""

    @staticmethod
    def _label_free_walks(monkeypatch) -> list:
        """Collects one entry per unit the label-free walk walks."""
        from repro.typechecker.checker import LabelFreeAlgebra

        walks = []
        begin_unit = LabelFreeAlgebra.begin_unit

        def counting(self):
            walks.append(self)
            begin_unit(self)

        monkeypatch.setattr(LabelFreeAlgebra, "begin_unit", counting)
        return walks

    @pytest.mark.parametrize("infer", [False, True])
    def test_one_shot_check_walks_the_unit_and_its_dependents(self, monkeypatch, infer):
        expected = TestCoreFromTheWalks._core_only(self.SOURCE)
        # Core P4 binds x to unit and y to bit<8>: no unknown variables.
        core_only = check_source(self.SOURCE, include_ifc=False).core_diagnostics
        assert [d.rule for d in core_only] == ["typedef", "T-Assign", "T-Assign"]
        walks = self._label_free_walks(monkeypatch)
        report = check_source(self.SOURCE, infer=infer, filename="<input>")
        assert [str(d) for d in report.core_diagnostics] == expected
        assert len(walks) == 3

    @pytest.mark.parametrize("infer", [False, True])
    def test_served_edit_walks_only_the_unit_with_the_typo(self, monkeypatch, infer):
        from test_workspace_rpc import result_of

        from repro.workspace.rpc import WorkspaceServer

        source = sharded_dataflow_program(3, depth=3, source_level="low")
        last = "control Shard2(inout shard2_headers hdr) {\n"
        typo = source.replace(last, last + "    mytype_t scratch;\n")
        expected = TestCoreFromTheWalks._core_only(typo)
        assert len(expected) == 1
        server = WorkspaceServer()
        result_of(server, "open", {"source": source, "filename": "<input>"})
        result_of(server, "check", {"infer": infer})
        walks = self._label_free_walks(monkeypatch)
        result_of(server, "edit", {"source": typo})
        assert result_of(server, "check", {"infer": infer})["core_diagnostics"] == expected
        assert len(walks) == 1


def _relabelled(action) -> int:
    """How many slot labels one traced action made afresh."""
    recorder = TraceRecorder()
    with use_recorder(recorder):
        action()
    return recorder.counters.get("workspace.slots_relabelled", 0)


def _report(report) -> dict:
    """A JSON report without the fields that describe the work done."""
    rendered = report_to_dict(report)
    del rendered["timing_ms"]
    if rendered["inference"] is not None:
        del rendered["inference"]["solver"]
    return rendered


#: A program with a header no control uses yet.
SPARE = """header used_t {
    bit<8> a;
}

header spare_t {
    bit<8> x;
    bit<8> y;
}

struct used_headers { used_t data; }

control Main(inout used_headers hdr) {
    apply {
        hdr.data.a = hdr.data.a;
    }
}
"""


class TestSlotRelabelling:
    """The per-slot products of a warm check -- the inferred labels with
    their text and location, and the elaborations' validity -- are
    remade only where the solver moved a label, a unit was re-walked or
    a span moved (``workspace.slots_relabelled``, never timing)."""

    def test_cold_check_labels_every_slot_once(self):
        workspace = Workspace()
        assert workspace.open(sharded_dataflow_program(2, depth=2), filename="<input>")
        assert _relabelled(lambda: workspace.check(infer=True)) == 4
        assert workspace.stats()["slots_relabelled"] == 4
        # Not a re-check count: a line-only edit may relabel slots.
        assert "slots_relabelled" not in workspace.stats()["rechecks"]

    def test_seed_flip_relabels_only_its_shard(self):
        workspace, source = _session()
        raised = source.replace(SEED, SEED.replace("low", "high"))

        def edit():
            assert workspace.edit(raised)
            workspace.check(infer=True)

        # Shard 3's four slots; the other shards' spans shifted by one
        # character, on the same lines and columns.
        assert _relabelled(edit) == 4
        assert workspace.stats()["slots_relabelled"] == 4
        assert _snapshot(workspace) == _cold_snapshot(raised)

    def test_pin_relabels_the_slots_it_moved(self):
        workspace, _ = _session()

        def pin(label):
            workspace.pin("field shard2_t.s1", label)
            workspace.check(infer=True)

        # s1 and the two slots downstream of it go high, then back.
        assert _relabelled(lambda: pin("high")) == 3
        assert _relabelled(lambda: pin(None)) == 3
        assert _relabelled(lambda: workspace.check(infer=True)) == 0

    def test_moves_between_checks_accumulate(self):
        """Two solves between checks: the second check relabels what
        either moved."""
        workspace, source = _session()
        workspace.pin("field shard2_t.s1", "high")
        workspace.unsat_cores()  # solves without relabelling
        raised = source.replace(SEED, SEED.replace("low", "high"))
        assert workspace.edit(raised)
        workspace.lint()
        workspace.check(infer=True)
        assert workspace.stats()["slots_relabelled"] == 3 + 4
        assert _snapshot(workspace) == _cold_snapshot(
            raised, pins={"field shard2_t.s1": "high"}
        )

    def test_checks_without_inference_keep_the_moved_set_bounded(self):
        """Edits checked with lints but no inference grow what the next
        inference must relabel; past the size of the site list the
        workspace stops tracking it and that inference relabels all."""
        workspace, source = _session()
        raised = source.replace(SEED, SEED.replace("low", "high"))
        sites = workspace.stats()["sites"]
        for cycle in range(50):
            assert workspace.edit(raised if cycle % 2 == 0 else source)
            workspace.check(lint=True)
            assert workspace._moved is None or len(workspace._moved) <= sites
        assert workspace._moved is None
        assert workspace.edit(raised)
        workspace.check(lint=True)
        assert workspace._moved is None and not workspace._sited
        workspace.check(infer=True)
        assert workspace.stats()["slots_relabelled"] == sites
        assert _snapshot(workspace) == _cold_snapshot(raised)
        # And tracked again from there on.
        assert workspace._moved == set()

    def test_blank_line_above_a_shard_matches_cold(self):
        """Units below a blank line keep every product but their
        rendered locations, which must be a cold check's."""
        workspace, source = _session()
        shard = source.index("header shard3_t")
        spaced = source[:shard] + "\n" + source[shard:]
        recorder = TraceRecorder()
        with use_recorder(recorder):
            assert workspace.edit(spaced)
            warm = workspace.check(infer=True)
        counters = recorder.counters
        for name in ("units_rewalked", *RECHECKS):
            assert counters.get("workspace." + name, 0) == 0
        # Shards 3, 4 and 5 moved down a line: their four slots each.
        assert counters["workspace.slots_relabelled"] == 12
        cold = check_source(spaced, infer=True, filename="<input>")
        assert _report(warm) == _report(cold)
        assert _report(warm)["inference"]["labels"][-1]["location"].startswith("<input>:")
        # And back: the same units move up again.
        assert workspace.edit(source)
        assert _report(workspace.check(infer=True)) == _report(
            check_source(source, infer=True, filename="<input>")
        )
        assert workspace.stats()["slots_relabelled"] == 12

    def test_first_use_of_a_clean_header_keeps_its_field_names(self):
        """An edit makes the control use a header nothing used before:
        the header is not re-walked, yet its slots are named after its
        fields, as a cold check names them."""
        workspace = Workspace()
        assert workspace.open(SPARE, filename="<input>")
        workspace.check(infer=True)
        edited = SPARE.replace(
            "        hdr.data.a = hdr.data.a;\n",
            "        spare_t spare;\n        spare.y = hdr.data.a;\n",
        )
        assert workspace.edit(edited)
        inferred = workspace.check(infer=True).inference_result.inferred
        assert workspace.stats()["regen"]["units_rewalked"] == 1
        assert [slot.hint for slot in inferred] == [
            "field used_t.a",
            "field spare_t.x",
            "field spare_t.y",
        ]
        assert _snapshot(workspace) == _cold_snapshot(edited)


class TestTenThousandConstraints:
    """The incrementality claims at 10k constraints (100 shards x depth
    101), on counters rather than clocks."""

    SOURCE = sharded_dataflow_program(100, depth=101)
    EDITED = SOURCE.replace(
        "header shard50_t {\n    <bit<8>, high> seed;",
        "header shard50_t {\n    <bit<8>, low> seed;",
    )

    @pytest.fixture(scope="class")
    def cold(self):
        """A fresh session converged on the edited source, and its result."""
        workspace = Workspace()
        assert workspace.open(self.EDITED, filename="<input>")
        return workspace, workspace.check(infer=True).inference_result

    def test_one_seed_flip_rechecks_three_of_300_units(self, cold):
        assert self.EDITED != self.SOURCE
        workspace = Workspace()
        assert workspace.open(self.SOURCE, filename="<input>")
        workspace.check(infer=True)  # converge the session before the edit
        assert workspace.edit(self.EDITED)
        warm = workspace.check(infer=True).inference_result
        stats = workspace.stats()
        _, cold = cold
        # 10,100 constraints, less the flipped seed's now-trivial one.
        assert cold.constraint_count >= 10_000

        # The shard's header, struct and control: re-walked, and re-checked
        # in every phase after generation.
        assert stats["regen"]["units_rewalked"] == 3
        assert stats["regen"]["units_reused"] == 297
        assert stats["rechecks"] == dict.fromkeys(RECHECKS, 3)
        # The shard's slots are relabelled, at most 2% of them all.
        assert 50 * stats["slots_relabelled"] <= stats["sites"], stats
        # The re-solve visits the edit's cone: 100 of the cold 10,099 edges.
        warm_edges = warm.solution.stats.edges_visited
        cold_edges = cold.solution.stats.edges_visited
        assert 100 * warm_edges <= cold_edges, (warm_edges, cold_edges)
        assert warm.assignment_by_hint() == cold.assignment_by_hint()

    def test_pin_in_a_converged_session_takes_the_label(self, cold):
        workspace, result = cold
        fmt = workspace.lattice.format_label
        before = {hint: fmt(label) for hint, label in result.assignment_by_hint().items()}
        chain = {f"field shard50_t.s{i}" for i in range(101)}
        # The flipped seed leaves shard 50's chain low: the pin must raise it.
        assert {before[hint] for hint in chain} == {"low"}
        workspace.pin("field shard50_t.s0", "high")
        try:
            pinned = workspace.infer()
            # Exactly the slots the pin moved are relabelled.
            assert workspace.stats()["slots_relabelled"] == len(chain)
            after = {hint: fmt(label) for hint, label in pinned.assignment_by_hint().items()}
            moved = {hint for hint in before if after[hint] != before[hint]}
            assert moved == chain
            assert {after[hint] for hint in chain} == {"high"}
            # The re-solve visits the pin's cone, not the program.
            pin_edges = pinned.solution.stats.edges_visited
            cold_edges = result.solution.stats.edges_visited
            assert 100 * pin_edges <= cold_edges, (pin_edges, cold_edges)
        finally:
            workspace.pin("field shard50_t.s0", None)
        assert workspace.infer().assignment_by_hint() == result.assignment_by_hint()


class TestRecheckMatchesCold:
    @pytest.mark.parametrize("declassify", [False, True])
    @pytest.mark.parametrize("lattice", sorted(available_lattices()))
    def test_edit_script_without_inference_matches_cold(self, lattice, declassify):
        """Random edits checked without inference, every other revision
        also with it (the checked nodes swap between source and
        elaborated ones): each plain check is the cold one's."""
        rng = random.Random(f"{lattice}/plain/{declassify}")
        source = sharded_dataflow_program(4, depth=3)
        workspace = Workspace(get_lattice(lattice), allow_declassification=declassify)
        assert workspace.open(source, filename="<input>")
        workspace.check()
        for step in range(6):
            if declassify and rng.random() < 0.5:
                source = _toggle_declassify(source, rng)
            else:
                source = _mutate(source, rng)
            assert workspace.edit(source)
            if step % 2:
                workspace.check(infer=True)
            cold = check_source(
                source,
                lattice=lattice,
                allow_declassification=declassify,
                filename="<input>",
            )
            assert _plain(workspace.check()) == _plain(cold)

    def test_recheck_after_skipped_recheck(self):
        """A revision whose inference fails skips the IFC re-check; the
        next good revision must not reuse products made before it."""
        workspace, source = _session(4, 3)
        # Shard 1's high seed reaches its sink, now annotated low.
        conflicting = source.replace(
            "header shard1_t {\n    <bit<8>, low> seed;",
            "header shard1_t {\n    <bit<8>, high> seed;",
        ).replace(
            "    bit<8> s2;\n}\n\nstruct shard1",
            "    <bit<8>, low> s2;\n}\n\nstruct shard1",
        )
        assert conflicting.count("<bit<8>, low> s2;") == 1
        shard2 = "header shard2_t {\n    <bit<8>, low> seed;"
        raised = source.replace(shard2, shard2.replace("low", "high"))
        assert raised != source
        for revision in (conflicting, raised, source):
            assert workspace.edit(revision)
            assert _snapshot(workspace) == _cold_snapshot(revision)
        assert workspace.edit(conflicting)
        assert not workspace.check(infer=True).ok
        workspace.pin("field shard0_t.s0", "high")
        assert workspace.edit(raised)
        assert _snapshot(workspace) == _cold_snapshot(raised, pins=workspace.pins)

    def test_pin_reaches_write_bounds_through_declarers(self):
        """Pinning a header field re-elaborates only the header, but the
        action that writes the field lives in a control typed against a
        struct embedding it: the struct and the control must be
        re-checked, or the action's write bound would stay stale."""
        source = (
            "header h_t { bit<8> f; <bit<8>, low> k; }\n\n"
            "struct hs { h_t h; }\n\n"
            "control C(inout hs hdr) {\n"
            "    action set_f() { hdr.h.f = 1; }\n"
            "    table t {\n"
            "        key = { hdr.h.k: exact; }\n"
            "        actions = { set_f; }\n"
            "    }\n"
            "    apply { t.apply(); }\n"
            "}\n"
        )
        workspace = Workspace()
        assert workspace.open(source, filename="<input>")
        before = _snapshot(workspace)
        assert before["ifc"]["function_bounds"] == {"set_f": "low"}
        counted = _counted(lambda: workspace.pin("field h_t.f", "high"))
        pinned = _snapshot(workspace)
        assert pinned == _cold_snapshot(source, pins={"field h_t.f": "high"})
        assert pinned["ifc"]["function_bounds"] == {"set_f": "high"}
        assert workspace.stats()["rechecks"]["units_elaborated"] == 1
        assert workspace.stats()["rechecks"]["units_ifc_checked"] == 3
        assert counted["units_rewalked"] == 0
        workspace.pin("field h_t.f", None)
        assert _snapshot(workspace) == before

    def test_deleting_a_duplicate_declaration(self):
        """Dependents of the later of two identical declarations resolve
        to the earlier one once it is deleted: same content, other label
        variables, so they are re-walked, not reused."""
        header = "header h_t { bit<8> a; }\n\n"
        rest = (
            "struct hs { h_t h; <bit<8>, high> s; }\n\n"
            "control C(inout hs hdr) {\n    apply { hdr.h.a = hdr.s; }\n}\n"
        )
        workspace = Workspace()
        assert workspace.open(header + header + rest, filename="<input>")
        assert workspace.check(infer=True).ok
        for revision in (header + rest, header + header + rest, rest):
            assert workspace.edit(revision)
            assert _snapshot(workspace) == _cold_snapshot(revision)

    def test_redeclared_match_kind_reaches_the_table(self):
        """A table's known match kinds are every ``match_kind``
        declaration's: adding a second declaration keeps ``foo`` known,
        and editing the first one away re-checks the second (whose kinds
        extend it) and the control holding the table, though neither
        moves nor changes its own text."""
        base = (
            "match_kind { FIRST }EXTRA\n"
            "header h_t { bit<8> a; }\n\n"
            "struct hs { h_t h; }\n\n"
            "control C(inout hs hdr) {\n"
            "    action nop() { }\n"
            "    table t {\n"
            "        key = { hdr.h.a: foo; }\n"
            "        actions = { nop; }\n"
            "    }\n"
            "    apply { t.apply(); }\n"
            "}\n"
        )
        workspace = Workspace()
        revision = base.replace("FIRST", "foo").replace("EXTRA", "")
        assert workspace.open(revision, filename="<input>")
        assert workspace.check(infer=True).core_ok
        for first, extra in (
            ("foo", "\nmatch_kind { bar }"),
            ("baz", "\nmatch_kind { bar }"),
            ("foo", "\nmatch_kind { bar }"),
            ("foo", ""),
        ):
            revision = base.replace("FIRST", first).replace("EXTRA", extra)
            assert workspace.edit(revision)
            warm = workspace.check(infer=True)
            cold = check_source(revision, infer=True, filename="<input>")
            assert [str(x) for x in warm.core_diagnostics] == [
                str(x) for x in cold.core_diagnostics
            ]
            # Only dropping ``foo`` from the first declaration leaves it
            # unknown to the table.
            assert warm.core_ok == (first == "foo")

    def test_moved_core_errors_render_at_their_new_lines(self):
        source = sharded_dataflow_program(3, depth=2).replace(
            "hdr.data.s1 = hdr.data.s0;", "hdr.data.s1 = true;"
        )
        workspace = Workspace()
        assert workspace.open(source, filename="<input>")
        assert len(workspace.check(infer=True).core_diagnostics) == 3
        control = source.index("control Shard1")
        for revision in (
            source[:control] + "\n\n" + source[control:],
            "// a new first line\n" + source,
            source,
        ):
            assert workspace.edit(revision)
            assert _snapshot(workspace) == _cold_snapshot(revision)

    def test_declassify_events_follow_their_unit(self):
        """Release events are per-unit products: editing one control's
        release leaves the other's event reused, in unit order."""
        source = sharded_dataflow_program(3, depth=3)
        released = source.replace(
            "hdr.data.s1 = hdr.data.s0;", "hdr.data.s1 = declassify(hdr.data.s0);"
        )
        assert released.count("declassify(") == 3
        last_only = released.replace(
            "hdr.data.s1 = declassify(hdr.data.s0);", "hdr.data.s1 = hdr.data.s0;", 2
        )
        workspace = Workspace(allow_declassification=True)
        assert workspace.open(released, filename="<input>")
        for revision in (released, last_only, released):
            assert workspace.edit(revision)
            warm = _snapshot(workspace)
            assert warm == _cold_snapshot(revision, allow_declassification=True)
        assert len(warm["ifc"]["declassifications"]) == 3


class TestDeferredFirstPlan:
    """A first plan computes no fingerprint, reference set or signature;
    what a later edit or IFC run reads is filled in from the same nodes,
    and every answer stays the cold one."""

    @pytest.mark.parametrize("infer", [False, True])
    def test_one_shot_check_computes_no_diff(self, monkeypatch, infer):
        calls = []

        def counted(function):
            def wrapper(unit):
                calls.append(function.__name__)
                return function(unit)

            return wrapper

        for name in ("unit_fingerprint", "referenced_names"):
            target = "repro.workspace.diff." + name
            monkeypatch.setattr(target, counted(getattr(diff, name)))
        source = sharded_dataflow_program(3, depth=3)
        report = check_source(source, infer=infer, lint=True, filename="<input>")
        assert report.ifc_result is not None
        assert calls == []

    def test_settled_first_plan_equals_an_eager_plan(self):
        """What :func:`diff.settle_states` fills in is what an eager plan
        computes, and a pin in the first revision -- the first IFC run
        that could reuse products -- still re-checks the units typed
        against the re-elaborated header."""
        workspace, source = _session(shards=3)
        states = workspace._generator.units
        assert all(state.signature is None for state in states)
        units = [state.node for state in states]
        fingerprints = [diff.unit_fingerprint(unit) for unit in units]
        referenced = [diff.referenced_names(unit) for unit in units]
        declarers = []
        signatures = diff.environment_signatures(
            units, fingerprints, referenced, declarers
        )
        diff.settle_states(states)
        assert [state.fingerprint for state in states] == fingerprints
        assert [state.referenced for state in states] == referenced
        assert [state.signature for state in states] == signatures
        assert [state.declarers for state in states] == declarers

        workspace, source = _session(shards=3)

        def pin():
            workspace.pin("field shard2_t.s1", "high")
            workspace.check(infer=True)

        counted = _counted(pin)
        assert counted["units_elaborated"] == 1
        assert counted["units_ifc_checked"] == 3
        assert _snapshot(workspace) == _cold_snapshot(
            source, pins={"field shard2_t.s1": "high"}
        )

    def test_plain_then_inferred_check_in_one_revision(self):
        """The inferred check's IFC run is the first to find products it
        could reuse; it settles the deferred declarers, and a unit whose
        declarer it re-checks is re-checked too."""
        rng = random.Random("deferred")
        source = sharded_dataflow_program(4, depth=3)
        workspace = Workspace()
        assert workspace.open(source, filename="<input>")
        cold_plain = _plain(check_source(source, filename="<input>"))
        assert _plain(workspace.check()) == cold_plain
        assert _snapshot(workspace) == _cold_snapshot(source)
        assert _plain(workspace.check()) == cold_plain
        for _ in range(3):
            source = _mutate(source, rng)
            assert workspace.edit(source)
            assert _snapshot(workspace) == _cold_snapshot(source)
            assert _plain(workspace.check()) == _plain(
                check_source(source, filename="<input>")
            )

    @pytest.mark.parametrize("infer", [False, True])
    def test_save_load_never_edited_then_edit(self, tmp_path, infer):
        rng = random.Random(f"deferred-persist/{infer}")
        source = sharded_dataflow_program(3, depth=3)
        workspace = Workspace()
        assert workspace.open(source, filename="<input>")
        workspace.check(infer=infer)
        path = tmp_path / "never-edited.p4bidws"
        workspace.save(path)
        loaded = Workspace.load(path)
        source = _mutate(source, rng)
        assert loaded.edit(source)
        assert _snapshot(loaded) == _cold_snapshot(source)


class TestServedPerUnitBookkeeping:
    """A served warm check encodes only the labels it remade and hashes
    only the deep fingerprints whose inputs changed (counters
    ``workspace.labels_encoded`` and ``workspace.signatures_hashed``)."""

    SOURCE = sharded_dataflow_program(20, depth=30, source_level="low")

    def test_seed_flip_encodes_one_shard_and_hashes_two_declarers(self):
        from test_workspace_rpc import result_of

        from repro.workspace.rpc import WorkspaceServer

        server = WorkspaceServer()
        recorder = TraceRecorder()
        with use_recorder(recorder):
            result_of(server, "open", {"source": self.SOURCE, "filename": "<input>"})
            result_of(server, "check", {"infer": True})
        assert recorder.counters["workspace.labels_encoded"] == 600
        raised = self.SOURCE.replace(SEED, SEED.replace("low", "high"))
        # The first edit settles what the first plan deferred (40 hashes).
        result_of(server, "edit", {"source": self.SOURCE})
        result_of(server, "check", {"infer": True})
        recorder = TraceRecorder()
        with use_recorder(recorder):
            result_of(server, "edit", {"source": raised})
            served = result_of(server, "check", {"infer": True})
        assert recorder.counters["workspace.labels_encoded"] == 30
        # The edited header and the struct embedding it.
        assert recorder.counters["workspace.signatures_hashed"] == 2
        cold = report_to_dict(check_source(raised, infer=True, filename="<input>"))
        assert served["inference"]["labels"] == cold["inference"]["labels"]
