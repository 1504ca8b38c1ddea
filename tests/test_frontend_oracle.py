"""Differential tests: the master-pattern lexer and the precedence-climbing
parser against the seed front end kept in ``tests/lexer_oracle.py``.

Tokens must agree on ``(kind, text, span, value, width)``, lexer errors on
message and span, and expressions on the whole AST, spans included.  A
parsed span compares by its unit's anchor, not by position, so ASTs are
compared through ``repr``, which renders every span's start, end and file
name.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from lexer_oracle import BINARY_PRECEDENCE, oracle_parse_expression, oracle_tokenize
from repro.frontend.errors import FrontendError, LexerError
from repro.frontend.lexer import tokenize
from repro.frontend.parser import parse_expression

#: Characters on which regex classes and ``str`` predicates can disagree:
#: ``½`` is alphanumeric but neither alpha nor digit, ``²`` a digit
#: but not decimal, ``٣`` a decimal digit outside ASCII, ``\f`` trivia to
#: neither lexer.
TRICKY = ["½", "²", "é", "٣", "\f", "\r\n", "\n", "8w", "0x", "1_000", "/*", "*/", "//", "_"]

source_text = st.lists(
    st.one_of(st.text(max_size=4), st.sampled_from(TRICKY), st.sampled_from(list("{}()<>=!&|+-*/%;.,@?"))),
    max_size=30,
).map("".join)


def lex_outcome(lex, source):
    try:
        return [(t.kind, t.text, t.span, t.value, t.width) for t in lex(source, "f.p4")]
    except LexerError as exc:
        return ("error", exc.message, exc.span)


@pytest.mark.parametrize(
    "source",
    [
        "½", "a½", "²", "1²", "8w²", "é٣", "٣", "\f", "a\r\nb", "8w", "0x", "1_000",
        "8w255", "32w0xFF", "01", "/* never closed", "a\n  /* x\n y", "x // c\ny",
        "a/b", "<<=", "x<<=y", "", "\n\n", "a $ b",
    ],
)
def test_lexer_matches_oracle_on_edge_cases(source):
    assert lex_outcome(tokenize, source) == lex_outcome(oracle_tokenize, source)


@given(st.one_of(st.text(), source_text))
@settings(max_examples=400, deadline=None)
@example("hdr.x = 8w255; /* a\nb */ if (½) {}")
def test_lexer_matches_oracle(source):
    assert lex_outcome(tokenize, source) == lex_outcome(oracle_tokenize, source)


#: All 18 binary operators of the seed grammar.
OPERATORS = [op for level in BINARY_PRECEDENCE for op in level]
ATOMS = ["a", "b.c", "f(x, 1)", "t.apply()", "x[i + 1]", "8w3", "7", "true", "{p = 1, q = z}"]
GAPS = [" ", "", "\n  "]


def _binary(parts):
    left, gap, op, right = parts
    return f"{left}{gap}{op}{gap}{right}"


expressions = st.recursive(
    st.sampled_from(ATOMS),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(GAPS), st.sampled_from(OPERATORS), inner).map(_binary),
        st.tuples(st.sampled_from("!-~"), inner).map("".join),
        inner.map(lambda text: f"({text})"),
    ),
    max_leaves=24,
)


def parse_outcome(parse, source):
    try:
        return repr(parse(source, "e.p4"))
    except FrontendError as exc:
        return ("error", type(exc).__name__, exc.message, exc.span)


@given(expressions)
@settings(max_examples=400, deadline=None)
@example("a || b && c == d < e | f ^ g & h << i + j * k")
@example("a * b + c - d << e >> f & g ^ h | i >= j != k && l || m")
@example("-a.b[1] * !(c) % ~d(e)")
def test_precedence_climbing_matches_the_recursive_oracle(source):
    assert parse_outcome(parse_expression, source) == parse_outcome(oracle_parse_expression, source)


@pytest.mark.parametrize("source", ["a +", "(a", "a.", "a.apply", "f(a,", "{p = }", "a b", ""])
def test_expression_errors_match_the_oracle(source):
    assert parse_outcome(parse_expression, source) == parse_outcome(oracle_parse_expression, source)
