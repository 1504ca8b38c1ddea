"""Differential tests: the master-pattern lexer and the precedence-climbing
parser against the seed front end kept in ``tests/lexer_oracle.py``.

Tokens must agree on ``(kind, text, span, value, width)``, lexer errors on
message and span, and expressions on the whole AST, spans included.  A
parsed span compares by its unit's anchor, not by position, so ASTs are
compared through ``repr``, which renders every span's start, end and file
name.  A region lexed on its own must agree with the whole source's lex.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from lexer_oracle import BINARY_PRECEDENCE, oracle_parse_expression, oracle_tokenize
from repro.frontend.errors import FrontendError, LexerError
from repro.frontend.lexer import TokenKind, scan, tokenize
from repro.frontend.parser import parse_expression
from repro.syntax.source import LineTable

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


#: Pieces of sources the lexer accepts on their own; joined without
#: separators they may merge into other tokens, or fail to lex.
LEXABLE = [
    "hdr", "x_1", "apply", "bit", "8w255", "0x1F", "1_000", "42", "<<", ">>", "<=", "&&",
    "||", "==", "!=", "<", ">", "/", "*", "=", ".", ";", "{", "}", "?", "@",
    " ", "  ", "\n", "\t", "\r\n", "// line\n", "// tail", "/* block\n */", "/**/",
]


def scanned(lines, pos, stop):
    """``scan``'s columns as one ``(text, kind, start, end, value)`` per token."""
    texts, kinds, offsets, values = scan(lines, pos, stop)
    return [
        (texts[i], kinds[i], offsets[2 * i], offsets[2 * i + 1], values.get(texts[i]))
        for i in range(len(texts))
    ]


@given(st.lists(st.sampled_from(LEXABLE), max_size=24).map("".join), st.data())
@settings(max_examples=400, deadline=None)
def test_a_region_lexes_as_the_slice_of_the_whole(source, data):
    """``scan`` over ``[pos, stop)``, both token boundaries of the whole
    source, gives the whole lex's tokens that start in the region and EOF
    at ``stop``; it fails exactly when a token or trivia runs past
    ``stop``, that is when no token of the whole lex starts there, with
    an error located at ``stop``."""
    lines = LineTable(source, "f.p4")
    try:
        whole = scanned(lines, 0, len(source))
    except LexerError:
        return
    starts = {start for _, kind, start, _, _ in whole}
    boundaries = sorted(starts | {end for _, _, _, end, _ in whole} | {0})
    pos = data.draw(st.sampled_from(boundaries))
    stop = data.draw(st.sampled_from([b for b in boundaries if b >= pos]))
    if stop not in starts:
        with pytest.raises(LexerError) as info:
            scan(lines, pos, stop)
        assert info.value.message == "a token runs past the end of the region"
        assert (info.value.span.start, info.value.span.end) == (lines.position(stop),) * 2
        return
    expected = [token for token in whole[:-1] if pos <= token[2] < stop]
    assert scanned(lines, pos, stop) == expected + [("", TokenKind.EOF, stop, stop, None)]


@pytest.mark.parametrize(
    "source, pos, stop, expected",
    [
        ("abc def", 0, 2, ("a token runs past the end of the region", "1:3-1:3")),
        ("8wx1 y", 0, 2, ("malformed literal '8wx1'", "1:1-1:5")),
        ("a 8w2", 0, 4, ("a token runs past the end of the region", "1:5-1:5")),
        ("a/* c */b", 0, 2, ("a token runs past the end of the region", "1:3-1:3")),
        ("a/* c */b", 0, 1, ("a token runs past the end of the region", "1:2-1:2")),
        ("a // c\nb", 0, 3, ("a token runs past the end of the region", "1:4-1:4")),
        ("a /* never", 0, 4, ("unterminated block comment", "1:3-1:5")),
        ("a /* c */ b", 0, 4, ("a token runs past the end of the region", "1:5-1:5")),
        ("a << b", 0, 3, ("a token runs past the end of the region", "1:4-1:4")),
        ("a $ b", 0, 3, ("unexpected character '$'", "1:3-1:3")),
        ("x½y", 0, 2, ("a token runs past the end of the region", "1:3-1:3")),
        ("½x", 0, 1, ("unexpected character '½'", "1:1-1:1")),
        ("a /", 0, 3, [("a", 0, 1), ("/", 2, 3), ("", 3, 3)]),
        ("a b", 1, 3, [("b", 2, 3), ("", 3, 3)]),
        ("a b", 2, 2, [("", 2, 2)]),
        ("a b", 1, 1, ("a token runs past the end of the region", "1:2-1:2")),
        ("a /*x*/ /* y", 2, 12, ("unterminated block comment", "1:9-1:13")),
        ("a\n/*\n*/b", 0, 4, ("a token runs past the end of the region", "2:3-2:3")),
        ("1 ²", 0, 3, ("malformed literal '²'", "1:3-1:4")),
        ("a\fb", 0, 3, ("unexpected character '\\x0c'", "1:2-1:2")),
        ("a b ", 0, 4, [("a", 0, 1), ("b", 2, 3), ("", 4, 4)]),
        ("a //", 0, 3, ("a token runs past the end of the region", "1:4-1:4")),
    ],
)
def test_a_region_that_cuts_a_token_or_trivia(source, pos, stop, expected):
    """Regions whose ends are no token boundaries: the outcome the
    token-at-a-time lexer gave, error or tokens, is kept."""
    try:
        tokens = scanned(LineTable(source, "r.p4"), pos, stop)
        outcome = [(text, start, end) for text, _, start, end, _ in tokens]
    except LexerError as exc:
        outcome = (exc.message, f"{exc.span.start}-{exc.span.end}")
    assert outcome == expected


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
