"""Incremental re-parsing: an edit re-parses only the units it touched.

``parse_program(..., index=...)`` hands back the previous parse's node
objects for every unit the edit cannot have touched.  The contract is
differential: whatever the edit, the result is ``repr``-identical (spans
included) to a cold parse of the same source, or raises the same error
with the same message and span.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.casestudies import all_case_studies
from repro.casestudies.base import strip_body_annotations
from repro.frontend.errors import FrontendError
from repro.frontend.parser import ParseIndex, parse_program
from repro.synth import sharded_dataflow_program
from repro.synth.programs import deep_dataflow_program, scc_cycle_program

#: The cold_check corpus programs (case studies three ways, small
#: synthetics) and a small sharded program.
CORPUS = [
    text
    for study in all_case_studies()
    for text in (
        study.secure_source,
        study.insecure_source,
        strip_body_annotations(study.secure_source),
    )
] + [
    deep_dataflow_program(6, chains=2),
    scc_cycle_program(2, 3),
    sharded_dataflow_program(3, depth=3, source_level="low"),
]

#: Four shards: a header, a struct and a control each, 12 units.
SHARDED = sharded_dataflow_program(4, depth=3, source_level="low")
SEED = "header shard2_t {\n    <bit<8>, low> seed;"

SNIPPETS = [
    "/*", "*/", "//", "{", "}", ";", " ", "\n", "\n\n", "\r\n", "@pc(high)\n", "@",
    "// note\n", "/* note */", "header extra_t { <bit<8>, low> f; }\n",
    "typedef bit<8> byte_t;\n", "control",
]


def outcome(source: str, filename: str, index: ParseIndex | None = None):
    try:
        return repr(parse_program(source, filename, index=index))
    except FrontendError as exc:
        return ("error", exc.message, exc.span)


def unit_texts(source: str) -> list:
    """Each top-level unit's source text, from a cold parse (or [])."""
    index = ParseIndex()
    try:
        parse_program(source, "u.p4", index=index)
    except FrontendError:
        return []
    anchors = [unit.span.anchor for unit in index.units]
    return [source[anchor.start : anchor.end] for anchor in anchors]


def edit(data, source: str) -> str:
    """One random edit of ``source``."""
    kind = data.draw(
        st.sampled_from(["insert", "delete", "move", "unit", "raise", "crlf"])
    )
    start = data.draw(st.integers(0, len(source)))
    end = data.draw(st.integers(start, min(len(source), start + 80)))
    if kind == "insert":
        return source[:start] + data.draw(st.sampled_from(SNIPPETS)) + source[start:]
    if kind == "delete":
        return source[:start] + source[end:]
    if kind == "move":
        chunk, rest = source[start:end], source[:start] + source[end:]
        to = data.draw(st.integers(0, len(rest)))
        return rest[:to] + chunk + rest[to:]
    if kind == "unit":
        # Duplicate a whole unit, or move it, to the start of a line.
        units = unit_texts(source)
        if not units:
            return source[:end] + source[start:end] + source[end:]
        text = data.draw(st.sampled_from(units))
        if data.draw(st.booleans()):
            source = source.replace(text, "", 1)
        lines = source.split("\n")
        at = data.draw(st.integers(0, len(lines)))
        return "\n".join(lines[:at] + [text] + lines[at:])
    if kind == "raise":
        return source[:start] + source[start:end].replace("low", "high") + source[end:]
    return source[:start] + source[start:end].replace("\n", "\r\n") + source[end:]


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_incremental_parse_matches_cold_parse(data):
    source = data.draw(st.sampled_from(CORPUS))
    filename = "a.p4"
    index = ParseIndex()
    parse_program(source, filename, index=index)
    for _ in range(data.draw(st.integers(1, 4))):
        source = edit(data, source)
        filename = data.draw(st.sampled_from(["a.p4"] * 7 + ["b.p4"]))
        assert outcome(source, filename, index) == outcome(source, filename)


def units_of(program) -> list:
    return [*program.declarations, *program.controls]


class TestReuse:
    def test_a_one_line_edit_reparses_one_unit(self):
        index = ParseIndex()
        before = parse_program(SHARDED, "s.p4", index=index)
        assert (index.reused, index.reparsed) == (0, 12)
        raised = SHARDED.replace(SEED, SEED.replace("low", "high"))
        after = parse_program(raised, "s.p4", index=index)
        assert (index.reused, index.reparsed) == (11, 1)
        shared = {id(unit) for unit in units_of(before)} & {
            id(unit) for unit in units_of(after)
        }
        assert len(shared) == 11
        assert repr(after) == repr(parse_program(raised, "s.p4"))

    def test_a_line_inserted_at_the_top_reparses_nothing(self):
        index = ParseIndex()
        before = parse_program(SHARDED, "s.p4", index=index)
        shifted = "// first line\n" + SHARDED
        after = parse_program(shifted, "s.p4", index=index)
        assert (index.reused, index.reparsed) == (12, 0)
        # The very nodes, moved a line down.
        assert [id(unit) for unit in units_of(after)] == [id(unit) for unit in units_of(before)]
        assert repr(after) == repr(parse_program(shifted, "s.p4"))

    def test_a_line_inserted_inside_a_unit_reparses_only_that_unit(self):
        index = ParseIndex()
        parse_program(SHARDED, "s.p4", index=index)
        spaced = SHARDED.replace(SEED, SEED + "\n")
        program = parse_program(spaced, "s.p4", index=index)
        assert (index.reused, index.reparsed) == (11, 1)
        assert repr(program) == repr(parse_program(spaced, "s.p4"))

    def test_a_comment_between_units_reparses_nothing(self):
        index = ParseIndex()
        parse_program(SHARDED, "s.p4", index=index)
        commented = SHARDED.replace("}\n\nstruct shard1", "}\n/* note */\nstruct shard1")
        assert commented != SHARDED
        program = parse_program(commented, "s.p4", index=index)
        assert (index.reused, index.reparsed) == (12, 0)
        assert repr(program) == repr(parse_program(commented, "s.p4"))

    def test_a_failed_parse_keeps_the_last_good_index(self):
        index = ParseIndex()
        parse_program(SHARDED, "s.p4", index=index)
        broken = SHARDED.replace(SEED, SEED.replace(";", ""))
        assert outcome(broken, "s.p4", index) == outcome(broken, "s.p4")
        assert index.source == SHARDED
        parse_program(SHARDED.replace(SEED, SEED.replace("low", "high")), "s.p4", index=index)
        assert (index.reused, index.reparsed) == (11, 1)

    @pytest.mark.parametrize("marker", ["/*", "@pc(high)\n", "}"])
    def test_an_edit_reaching_into_reused_units_gives_the_cold_error(self, marker):
        index = ParseIndex()
        parse_program(SHARDED, "s.p4", index=index)
        at = SHARDED.index("struct shard1")
        edited = SHARDED[:at] + marker + SHARDED[at:]
        assert outcome(edited, "s.p4", index)[0] == "error"
        assert outcome(edited, "s.p4", index) == outcome(edited, "s.p4")

    def test_a_new_filename_reparses_every_unit(self):
        index = ParseIndex()
        parse_program(SHARDED, "s.p4", index=index)
        program = parse_program(SHARDED, "t.p4", index=index)
        assert (index.reused, index.reparsed) == (0, 12)
        assert repr(program) == repr(parse_program(SHARDED, "t.p4"))
