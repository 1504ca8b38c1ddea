"""Structural-diff edge cases for the workspace's incremental engine.

These tests pin the unit-granularity diff (`repro.workspace.diff` over the
`repro.syntax.digest` helpers) on the edits that historically break
incremental checkers: declaration reorders, rename-only edits,
formatting-only edits, and deletions.  Each case asserts both the diff's
verdict (which units are dirty) and, through a `Workspace`, that the warm
result still matches a cold check of the edited source.
"""

from __future__ import annotations

from repro.frontend.parser import ParseIndex, parse_program
from repro.syntax.digest import (
    declared_names,
    referenced_names,
    unit_fingerprint,
)
from repro.tool.pipeline import check_source
from repro.tool.report import report_to_dict
from repro.workspace import Workspace, diff_program, program_units
from repro.workspace.diff import environment_signatures, settle_states


BASE = """
header h_t { <bit<8>, low> a; <bit<8>, high> b; }
struct headers { h_t h; }
control Main(inout headers hdr) {
    apply {
        hdr.h.a = 1;
    }
}
"""


def _states_for(source: str):
    """Diff a cold parse against nothing, yielding fresh unit states."""
    program = parse_program(source)
    plans = diff_program([], program)
    return [plan.state for plan in plans], program


def _diff(source_before: str, source_after: str):
    states, _ = _states_for(source_before)
    return diff_program(states, parse_program(source_after)), states


def _regen_stats(workspace: Workspace) -> dict:
    workspace.check()
    return workspace.stats()["regen"]


class TestDigest:
    def test_fingerprint_ignores_formatting(self):
        compact = parse_program("header h_t { <bit<8>, low> a; }")
        spaced = parse_program(
            "// a comment\nheader   h_t {\n    <bit<8>, low>   a;\n}\n"
        )
        assert unit_fingerprint(compact.declarations[0]) == unit_fingerprint(
            spaced.declarations[0]
        )

    def test_fingerprint_sees_content(self):
        low = parse_program("header h_t { <bit<8>, low> a; }")
        high = parse_program("header h_t { <bit<8>, high> a; }")
        assert unit_fingerprint(low.declarations[0]) != unit_fingerprint(
            high.declarations[0]
        )

    def test_declared_and_referenced_names(self):
        program = parse_program(BASE)
        header, struct = program.declarations
        (control,) = program.controls
        assert declared_names(header) == ("h_t",)
        assert declared_names(struct) == ("headers",)
        assert declared_names(control) == ()
        assert "h_t" in referenced_names(struct)
        assert "headers" in referenced_names(control)

    def test_rebase_moves_a_unit_in_place(self):
        old = parse_program("header h_t { <bit<8>, low> a; }").declarations[0]
        new = parse_program(
            "\n\n\nheader   h_t {\n  <bit<8>, low> a; }"
        ).declarations[0]
        spans = [old.span, old.fields[0].ty.span]
        assert repr(old) != repr(new)
        old.span.anchor.rebase(new.span.anchor)
        # The same span objects, equal as before, now render where the
        # re-parsed unit sits.
        assert [old.span, old.fields[0].ty.span] == spans
        assert repr(old) == repr(new)
        assert str(old.fields[0].ty.span) == "<input>:5:3"

    def test_rebase_noop_on_identical_positions(self):
        old = parse_program(BASE).declarations[0]
        new = parse_program(BASE).declarations[0]
        before = repr(old)
        old.span.anchor.rebase(new.span.anchor)
        assert repr(old) == before == repr(new)


def _signatures(source: str):
    units = program_units(parse_program(source))
    fingerprints = [unit_fingerprint(u) for u in units]
    referenced = [referenced_names(u) for u in units]
    return environment_signatures(units, fingerprints, referenced)


class TestEnvironmentSignatures:
    def test_transitive_dirtiness_through_struct(self):
        """Editing a header must change the signature of a control that
        only references the *struct* embedding it."""
        before = _signatures(BASE)
        after = _signatures(BASE.replace("<bit<8>, high> b;", "<bit<8>, low> b;"))
        # The struct's own text did not change, but its signature did...
        assert before[1] != after[1]
        # ...and so did the control's, through the struct's deep hash.
        assert before[2] != after[2]

    def test_unrelated_units_keep_their_signature(self):
        extended = BASE + "\nheader other_t { <bit<8>, low> x; }\n"
        edited = extended.replace(
            "header other_t { <bit<8>, low> x; }",
            "header other_t { <bit<8>, high> x; }",
        )
        before = _signatures(extended)
        after = _signatures(edited)
        # Nothing references other_t, so every other signature is stable.
        assert before[0] == after[0]
        assert before[1] == after[1]


class TestDiffVerdicts:
    TWO_SHARDS = """
header a_t { <bit<8>, high> x; }
struct a_headers { a_t data; }
header b_t { <bit<8>, low> y; }
struct b_headers { b_t data; }
control A(inout a_headers hdr) { apply { hdr.data.x = 1; } }
control B(inout b_headers hdr) { apply { hdr.data.y = 2; } }
"""

    def test_reorder_of_independent_units_is_all_clean(self):
        # Swap the two independent shards wholesale: every unit still
        # resolves its references to byte-identical declarations.
        reordered = """
header b_t { <bit<8>, low> y; }
struct b_headers { b_t data; }
header a_t { <bit<8>, high> x; }
struct a_headers { a_t data; }
control B(inout b_headers hdr) { apply { hdr.data.y = 2; } }
control A(inout a_headers hdr) { apply { hdr.data.x = 1; } }
"""
        plans, states = _diff(self.TWO_SHARDS, reordered)
        assert not any(plan.dirty for plan in plans)
        # Matched plans reuse the cached state objects (identity matters:
        # they anchor the label variables).
        assert {id(plan.state) for plan in plans} == {id(s) for s in states}

    def test_edit_of_a_type_declared_after_its_use_dirties_its_users(self):
        # The struct's signature resolves h_t at its own position (to
        # nothing), but the control converts its field against the final
        # declarations: the struct and the control must be re-walked.
        before = """
struct headers { h_t h; }
header h_t { <bit<8>, low> a; }
control Main(inout headers hdr) { apply { hdr.h.a = 1; } }
"""
        plans, _ = _diff(before, before.replace("low", "high"))
        assert [plan.dirty for plan in plans] == [True, True, True]
        # The header itself reaches no such name: a comment edit spares it.
        plans, _ = _diff(before, "// touched\n" + before)
        assert [plan.dirty for plan in plans] == [True, False, True]

    def test_type_declared_twice_dirties_its_users_on_every_revision(self):
        # Units in walk order: a_t, a_headers, b_t, b_headers, a_t, A, B.
        source = self.TWO_SHARDS + "header a_t { <bit<8>, low> x; }\n"
        plans, _ = _diff(source, "// touched\n" + source)
        assert [plan.dirty for plan in plans] == [False, True, False, False, False, True, False]

    def test_resolution_changing_reorder_is_dirty(self):
        # Moving the struct above the header it references changes what
        # its type name resolves to -- that is a semantic edit, not a
        # formatting one, and the unit must be re-walked.
        reordered = """
struct headers { h_t h; }
header h_t { <bit<8>, low> a; <bit<8>, high> b; }
control Main(inout headers hdr) {
    apply {
        hdr.h.a = 1;
    }
}
"""
        plans, _ = _diff(BASE, reordered)
        dirty = {type(plan.state.node).__name__: plan.dirty for plan in plans}
        assert dirty["StructDecl"] is True

    def test_whitespace_and_comments_are_clean(self):
        noisy = BASE.replace(
            "header h_t", "// widened later\nheader    h_t"
        ).replace("hdr.h.a = 1;", "hdr.h.a   =   1;  // constant")
        plans, _ = _diff(BASE, noisy)
        assert not any(plan.dirty for plan in plans)

    def test_rename_dirties_declarer_and_referencers(self):
        renamed = BASE.replace("h_t", "pkt_t")
        plans, _ = _diff(BASE, renamed)
        # Header changed content (its name); struct references the renamed
        # type; the control's struct reference changed transitively.
        assert [plan.dirty for plan in plans] == [True, True, True]

    def test_body_edit_dirties_only_that_unit(self):
        edited = BASE.replace("hdr.h.a = 1;", "hdr.h.a = 2;")
        plans, _ = _diff(BASE, edited)
        assert [plan.dirty for plan in plans] == [False, False, True]

    def test_duplicate_units_match_fifo(self):
        # Two structurally identical controls share one fingerprint; the
        # diff must pair them positionally, not double-claim one state.
        twin = """
struct headers { }
control A(inout headers hdr) { apply { } }
control A(inout headers hdr) { apply { } }
"""
        plans, states = _diff(twin, twin)
        controls = [p for p in plans if p.state.is_control]
        assert len(controls) == 2
        assert controls[0].state is states[1]
        assert controls[1].state is states[2]

    def test_reused_nodes_match_by_identity(self, monkeypatch):
        # A unit the parser handed back unchanged *is* the cached node: it
        # matches without a fingerprint or a token comparison.
        index = ParseIndex()
        states = [
            plan.state
            for plan in diff_program([], parse_program(BASE, index=index))
        ]
        edited = BASE.replace("hdr.h.a = 1;", "hdr.h.a = 2;")
        program = parse_program(edited, index=index)
        assert index.reparsed == 1
        # A first plan defers its states' fingerprints and signatures; fill
        # them in now so only the diff's own fingerprinting is counted.
        settle_states(states)
        fingerprinted = []

        def counting(unit):
            fingerprinted.append(unit)
            return unit_fingerprint(unit)

        monkeypatch.setattr("repro.workspace.diff.unit_fingerprint", counting)
        monkeypatch.setattr("repro.workspace.diff._same_tokens", None)
        plans = diff_program(states, program)
        assert [plan.state for plan in plans[:2]] == states[:2]
        assert fingerprinted == [program.controls[0]]
        assert [plan.dirty for plan in plans] == [False, False, True]

    def test_identity_matches_come_before_fifo(self):
        # A fresh copy of a reused unit falls to the fingerprint pool; it
        # must not claim the state the reused node itself matches.
        twin = "\nstruct headers { }\ncontrol A(inout headers hdr) { apply { } }\n"
        index = ParseIndex()
        states = [plan.state for plan in diff_program([], parse_program(twin, index=index))]
        copied = twin.replace("\nstruct", "\ncontrol A(inout headers hdr) { apply { } } struct")
        program = parse_program(copied, index=index)
        assert index.reused == 2
        struct, fresh, reused = diff_program(states, program)
        # The struct is reused too, moved onto the line it now shares
        # with the copy.
        assert struct.state is states[0] and not struct.dirty
        assert str(struct.state.node.span) == "<input>:2:44"
        assert reused.state is states[1] and not reused.dirty
        assert fresh.state not in states and fresh.dirty

class TestWorkspaceEdits:
    """End-to-end: the regen statistics and the warm-vs-cold contract."""

    def _open(self, source: str, **options) -> Workspace:
        workspace = Workspace(**options)
        assert workspace.open(source, filename="<input>")
        return workspace

    def test_comment_only_edit_rewalks_nothing(self):
        workspace = self._open(BASE)
        cold = workspace.check(infer=True)
        assert workspace.edit("// touched\n" + BASE)
        warm = workspace.check(infer=True)
        stats = workspace.stats()["regen"]
        assert stats["units_rewalked"] == 0
        assert stats["units_reused"] == stats["units_total"] == 3
        assert str(warm.inference_result.solution.assignment) == str(
            cold.inference_result.solution.assignment
        )

    def test_reorder_edit_rewalks_nothing(self):
        workspace = self._open(TestDiffVerdicts.TWO_SHARDS)
        cold = workspace.check(infer=True)
        reordered = """
header b_t { <bit<8>, low> y; }
struct b_headers { b_t data; }
header a_t { <bit<8>, high> x; }
struct a_headers { a_t data; }
control B(inout b_headers hdr) { apply { hdr.data.y = 2; } }
control A(inout a_headers hdr) { apply { hdr.data.x = 1; } }
"""
        assert workspace.edit(reordered)
        warm = workspace.check(infer=True)
        stats = workspace.stats()["regen"]
        assert stats["units_rewalked"] == 0
        assert stats["units_reused"] == 6
        assert warm.ok == cold.ok

    def test_respan_keeps_diagnostics_at_new_positions(self):
        insecure = BASE.replace("hdr.h.a = 1;", "hdr.h.a = hdr.h.b;")
        workspace = self._open(insecure)
        workspace.check(infer=True)
        shifted = "\n\n" + insecure
        assert workspace.edit(shifted)
        warm = workspace.check(infer=True)
        stats = workspace.stats()["regen"]
        assert stats["units_rewalked"] == 0
        assert stats["units_respanned"] >= 1
        cold = check_source(shifted, infer=True, filename="<input>")
        assert [str(x) for x in warm.inference_result.diagnostics] == [
            str(x) for x in cold.inference_result.diagnostics
        ]

    def test_regrouped_parentheses_make_a_new_unit(self):
        # Parentheses print alike, so the re-parsed control has the cached
        # one's fingerprint and as many tokens -- but not the same ones:
        # the cached spans would index the wrong tokens, so the control is
        # matched to nothing.
        released = BASE.replace("hdr.h.a = 1;", "hdr.h.a = ((declassify(hdr.h.b)));")
        regrouped = "\n" + released.replace(
            "((declassify(hdr.h.b)))", "(declassify((hdr.h.b)))"
        )
        workspace = self._open(released, allow_declassification=True)
        workspace.check(infer=True)
        assert workspace.edit(regrouped)
        warm = workspace.check(infer=True, lint=True)
        assert workspace.stats()["regen"]["units_rewalked"] == 1
        cold = check_source(
            regrouped, infer=True, lint=True, filename="<input>", allow_declassification=True
        )
        rendered = [report_to_dict(report) for report in (warm, cold)]
        for payload in rendered:
            payload.pop("timing_ms")
            payload["inference"].pop("solver")
        assert rendered[0] == rendered[1]
        # The release is located at its call, inside the parentheses.
        assert rendered[0]["declassifications"][0]["location"] == "<input>:7:20"

    def test_table_and_action_deletion(self):
        from repro.synth import wide_table_program

        source = wide_table_program(
            tables=2, actions_per_table=2, keys_per_table=1, seed=11
        )
        workspace = self._open(source)
        workspace.check(infer=True)
        # Delete the second table and its actions from the control body:
        # everything from "action act_1_0() {" through tbl_1's closing
        # brace (the first "}" after its actions list), plus its apply.
        lines = source.splitlines()
        start = next(i for i, l in enumerate(lines) if "action act_1_0" in l)
        actions_line = next(
            i for i, l in enumerate(lines) if "actions = { act_1_0" in l
        )
        closing = actions_line + next(
            i for i, l in enumerate(lines[actions_line:]) if l.strip() == "}"
        )
        pruned = lines[:start] + lines[closing + 1 :]
        pruned = [l for l in pruned if "tbl_1.apply" not in l]
        edited = "\n".join(pruned)
        assert workspace.edit(edited)
        warm = workspace.check(infer=True)
        cold = check_source(edited, infer=True, filename="<input>")
        assert warm.ok == cold.ok
        assert [str(x) for x in warm.inference_result.diagnostics] == [
            str(x) for x in cold.inference_result.diagnostics
        ]
        assert (
            warm.inference_result.assignment_by_hint()
            == cold.inference_result.assignment_by_hint()
        )

    def test_declaration_deletion_drops_cached_sites(self):
        from repro.synth import sharded_dataflow_program

        source = sharded_dataflow_program(3, depth=3)
        workspace = self._open(source)
        workspace.check(infer=True)
        sites_before = workspace.stats()["sites"]
        # Drop shard2 wholesale (header, struct, control).
        kept = [
            block
            for block in source.split("\n\n")
            if "shard2" not in block and "Shard2" not in block
        ]
        edited = "\n\n".join(kept)
        assert workspace.edit(edited)
        warm = workspace.check(infer=True)
        stats = workspace.stats()
        assert stats["units"] == 6
        assert stats["sites"] < sites_before
        cold = check_source(edited, infer=True, filename="<input>")
        assert (
            warm.inference_result.assignment_by_hint()
            == cold.inference_result.assignment_by_hint()
        )


def _served_check(server, source=None) -> dict:
    """One served ``check {infer: true}`` (after an ``edit`` to ``source``),
    minus what differs between a warm and a cold session by design: the
    revision, the timings and the work counters."""
    import json

    def call(method, params):
        line = server.handle_line(
            json.dumps({"jsonrpc": "2.0", "id": 1, "method": method, "params": params})
        )
        return json.loads(line)["result"]

    if source is not None:
        call("edit", {"source": source})
    payload = call("check", {"infer": True})
    for key in ("revision", "regen", "timing_ms"):
        payload.pop(key, None)
    # The solver's work counters are the incremental solver's, not a cold one's.
    payload.get("inference", {}).pop("solver", None)
    return payload


def _block_edit(rng, blocks):
    """One random edit of the top-level blocks: swap two, delete one,
    duplicate one, or move one field's label up (none → low → high)."""
    blocks = list(blocks)
    op = rng.choice(("swap", "delete", "duplicate", "relabel"))
    if op == "swap" and len(blocks) > 1:
        i, j = rng.sample(range(len(blocks)), 2)
        blocks[i], blocks[j] = blocks[j], blocks[i]
    elif op == "delete" and len(blocks) > 1:
        del blocks[rng.randrange(len(blocks))]
    elif op == "duplicate":
        i = rng.randrange(len(blocks))
        blocks.insert(rng.randrange(len(blocks) + 1), blocks[i])
    else:
        fields = [
            (i, line)
            for i, block in enumerate(blocks)
            for line in block.splitlines()
            if line.strip().endswith(";") and "bit<8>" in line and "high>" not in line
        ]
        if fields:
            i, line = rng.choice(fields)
            raised = (
                line.replace("<bit<8>, low>", "<bit<8>, high>", 1)
                if "low>" in line
                else line.replace("bit<8>", "<bit<8>, low>", 1)
            )
            blocks[i] = blocks[i].replace(line, raised, 1)
    return blocks


class TestRandomBlockEditsMatchCold:
    """A seeded random script of block edits -- swapping, deleting and
    duplicating top-level declarations, and raising field labels -- makes
    type names declared twice or after their use; a warm served check must
    still answer every step as a cold one."""

    def test_warm_check_matches_cold_at_every_step(self):
        import random

        from repro.synth import sharded_dataflow_program
        from repro.workspace.rpc import WorkspaceServer

        rng = random.Random(20)
        blocks = sharded_dataflow_program(5, depth=4).strip("\n").split("\n\n")
        warm = WorkspaceServer()
        warm.workspace.open("\n\n".join(blocks) + "\n", filename="<input>")
        _served_check(warm)
        differ = []
        for step in range(80):
            blocks = _block_edit(rng, blocks)
            source = "\n\n".join(blocks) + "\n"
            cold = WorkspaceServer()
            cold.workspace.open(source, filename="<input>")
            if _served_check(warm, source) != _served_check(cold):
                differ.append(step)
        assert differ == []
