"""The parser's nesting cap: input nested deeper than ``MAX_DEPTH`` gets a
located ``ParserError`` instead of a ``RecursionError``, and input at the
cap runs through every downstream walker -- checking, inference, lints,
reporting, printing and the served session."""

import dataclasses
import json

import pytest

from repro.frontend.errors import ParserError
from repro.frontend.parser import MAX_DEPTH, parse_expression, parse_program
from repro.syntax.expressions import Expression
from repro.syntax.printer import pretty_print
from repro.syntax.source import Position, SourceSpan
from repro.syntax.statements import Statement
from repro.tool.pipeline import check_source
from repro.tool.report import format_report, report_to_dict
from repro.workspace.rpc import WorkspaceServer


def ast_depth(node) -> int:
    """Statements and expressions on the longest nested chain (iterative)."""
    deepest, stack = 0, [(node, 0)]
    while stack:
        value, depth = stack.pop()
        if isinstance(value, tuple):
            stack.extend((item, depth) for item in value)
            continue
        if not dataclasses.is_dataclass(value) or isinstance(value, (SourceSpan, Position)):
            continue
        depth += isinstance(value, (Statement, Expression))
        deepest = max(deepest, depth)
        stack.extend((getattr(value, f.name), depth) for f in dataclasses.fields(value))
    return deepest


HEADER = "header h_t { bit<8> f; bool b; } struct hs { h_t h; }\n"


def in_apply(body: str) -> str:
    return HEADER + "control C(inout hs hdr) {\n  apply {\n    " + body + "\n  }\n}\n"


# Each shape builds a program whose depth grows by one per unit of ``n``,
# paired with its depth at ``n == 0`` (apply block, statement, root).
SHAPES = {
    "binary chain": (lambda n: in_apply("hdr.h.f = 1" + " + 1" * n + ";"), 3),
    "nested blocks": (lambda n: in_apply("{" * n + "exit;" + "}" * n), 2),
    "nested calls": (lambda n: in_apply("hdr.h.f = " + "f(" * n + "1" + ")" * n + ";"), 3),
    "nested records": (lambda n: in_apply("hdr.h.f = " + "{a = " * n + "1" + "}" * n + ";"), 3),
    "negations": (lambda n: in_apply("hdr.h.b = " + "!" * n + "true;"), 3),
    "field chain": (lambda n: in_apply("hdr.h.f = hdr" + ".h" * n + ";"), 3),
}


def at_cap(shape: str, extra: int = 0) -> str:
    build, offset = SHAPES[shape]
    return build(MAX_DEPTH - offset + extra)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_program_at_the_cap_runs_through_every_walker(shape):
    source = at_cap(shape)
    assert ast_depth(parse_program(source)) == MAX_DEPTH
    report = check_source(source, infer=True, lint=True, explain_released_flows=True)
    assert report.parse_error is None
    report_to_dict(report)
    format_report(report, verbose=True)
    pretty_print(report.program)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_one_level_past_the_cap_is_a_located_parse_error(shape):
    report = check_source(at_cap(shape, extra=1), infer=True)
    assert report.parse_error is not None
    assert f"nesting deeper than {MAX_DEPTH} levels" in report.parse_error
    assert report.parse_error.startswith("<input>:")  # located, not <unknown>


@pytest.mark.parametrize("shape", ["binary chain", "nested blocks", "nested records"])
def test_served_open_at_and_past_the_cap(shape):
    server = WorkspaceServer()

    def call(method, **params):
        reply = json.loads(
            server.handle_line(json.dumps({"jsonrpc": "2.0", "id": 1, "method": method, "params": params}))
        )
        return reply["result"]

    opened = call("open", source=at_cap(shape), filename="deep.p4")
    assert opened["parsed"] and opened["parse_error"] is None
    assert call("check", infer=True)["revision"] == opened["revision"]
    refused = call("open", source=at_cap(shape, extra=1), filename="deep.p4")
    assert not refused["parsed"]
    assert refused["parse_error"].startswith("deep.p4:")
    assert f"nesting deeper than {MAX_DEPTH} levels" in refused["parse_error"]


def test_parenthesised_groups_count_as_levels():
    assert parse_expression("(" * (MAX_DEPTH - 1) + "a" + ")" * (MAX_DEPTH - 1)).describe() == "a"
    with pytest.raises(ParserError, match="nesting deeper"):
        parse_expression("(" * MAX_DEPTH + "a" + ")" * MAX_DEPTH)
    with pytest.raises(ParserError) as excinfo:
        parse_expression("(" * 5000 + "a" + ")" * 5000)
    assert excinfo.value.span.start == Position(1, MAX_DEPTH + 1)  # the first '(' too many


def test_seventy_parentheses_now_check():
    report = check_source(in_apply("hdr.h.f = " + "(" * 70 + "1" + ")" * 70 + ";"), infer=True)
    assert report.parse_error is None and report.ok


@pytest.mark.parametrize(
    "source",
    [
        in_apply("hdr.h.f = 1" + " + 1" * 599 + ";"),
        in_apply("{" * 600 + "}" * 600),
        in_apply("hdr.h.b = " + "!" * 5000 + "true;"),
        in_apply("if (hdr.h.b) {" * 600 + "}" * 600),
    ],
    ids=["600-term chain", "600 blocks", "5000 negations", "600 ifs"],
)
def test_inputs_that_used_to_overflow_are_refused(source):
    report = check_source(source, infer=True)
    assert f"nesting deeper than {MAX_DEPTH} levels" in report.parse_error
