"""Lexer for the annotated P4 dialect.

One compiled master pattern matches the trivia before a token together
with the token, and :func:`tokenize` walks the source with it in a single
loop.  The loop keeps the current line number and line start, counting
newlines with ``str.count`` over the skipped trivia (whitespace, line and
block comments) -- tokens never span lines.  :func:`scan` runs the same
loop over a slice of the source from a known line, for re-parsing the
region an edit touched.  A :class:`Token` stores its line and column; its
:class:`SourceSpan` is built only when the parser reads ``.span``.  All
context-sensitive decisions -- e.g. whether ``<`` opens a security
annotation or is a comparison -- are made by the parser.
"""

from __future__ import annotations

import enum
import re
from collections import namedtuple
from typing import List

from repro.frontend.errors import LexerError
from repro.syntax.source import Position, SourceSpan

#: Keywords of the dialect.  Identifiers are never allowed to shadow them.
KEYWORDS = frozenset(
    """header struct typedef match_kind control action function table key actions
    apply if else exit return true false bit int bool void in out inout const""".split()
)


class TokenKind(enum.Enum):
    """Lexical category of a token."""

    IDENT = "identifier"
    KEYWORD = "keyword"
    INT = "integer"
    PUNCT = "punctuation"
    EOF = "end-of-file"


class Token(namedtuple("_TokenFields", "kind text value width line column filename")):
    """A single token: its kind, source text, value, and position.

    Immutable (a named tuple).  A token never spans lines, so its line
    and 1-based column fix its :class:`SourceSpan`, which is built only
    when :attr:`span` is read -- most tokens never need one.
    """

    __slots__ = ()

    @property
    def span(self) -> SourceSpan:
        return SourceSpan(
            Position(self.line, self.column),
            Position(self.line, self.column + len(self.text)),
            self.filename,
        )

    def is_punct(self, text: str) -> bool:
        return self.kind is TokenKind.PUNCT and self.text == text

    def is_keyword(self, text: str) -> bool:
        return self.kind is TokenKind.KEYWORD and self.text == text

    def __str__(self) -> str:
        return f"{self.kind.value} {self.text!r}"


#: One match = the trivia before a token, then the token: a run of word
#: characters (group 1; identifier, keyword or number) or punctuation
#: (group 2; multi-character operators first, for maximal munch).  ``\w``
#: is exactly ``str.isalnum() or "_"``; the first character decides the
#: token class.  ``?`` only ever appears as the short spelling of an
#: ``infer`` security annotation (``<bit<8>, ?>``); the parser rejects it
#: anywhere else.  A ``/`` that opens an unterminated block comment
#: matches nothing, so the loop reports it.
_MASTER = re.compile(
    r"(?:[ \t\r\n]+|//[^\n]*|/\*.*?\*/)*"
    r"(?:(\w+)|(<<|>>|==|!=|<=|>=|&&|\|\||/(?!\*)|[{}()\[\]<>,;:.=+\-*%&|^~!@?]))?",
    re.DOTALL,
)


def _parse_number(text: str) -> tuple[int, int | None]:
    """Value and width of an integer literal; ``ValueError`` if malformed."""
    cleaned = text.replace("_", "")
    # width-annotated literals such as 8w255 or 32w0xFF
    if "w" in cleaned and not cleaned.lower().startswith("0x"):
        width_text, _, value_text = cleaned.partition("w")
        if width_text.isdigit() and value_text:
            return int(value_text, 0), int(width_text)
    return int(cleaned, 0), None


def tokenize(source: str, filename: str = "<input>") -> List[Token]:
    """Lex ``source`` into a token list ending in an EOF token."""
    return scan(source, filename, 0, len(source), 1, 0)


def scan(
    source: str, filename: str, pos: int, stop: int, line: int, line_start: int
) -> List[Token]:
    """Lex ``source[pos:stop]`` as if ``stop`` were the end of the input.

    ``pos`` must be where a token may start, on line ``line``, which
    starts at offset ``line_start``; the EOF token sits at ``stop``.  A
    block comment that closes only after ``stop`` is unterminated here.
    """
    match = _MASTER.match
    count = source.count
    ident, keyword, punct = TokenKind.IDENT, TokenKind.KEYWORD, TokenKind.PUNCT
    tokens: List[Token] = []
    append = tokens.append
    new = Token._make
    while True:
        m = match(source, pos, stop)
        start = m.end() if m.lastindex is None else m.start(m.lastindex)
        newlines = count("\n", pos, start)
        if newlines:
            line += newlines
            line_start = source.rindex("\n", pos, start) + 1
        column = start - line_start + 1
        word, op = m.groups()
        if op is not None:
            append(new((punct, op, None, None, line, column, filename)))
        elif word is not None:
            first = word[0]
            if first.isalpha() or first == "_":
                kind = keyword if word in KEYWORDS else ident
                append(new((kind, word, None, None, line, column, filename)))
            elif first.isdigit():
                token = new((TokenKind.INT, word, None, None, line, column, filename))
                try:
                    value, width = _parse_number(word)
                except ValueError as exc:
                    raise LexerError(f"malformed literal {word!r}", token.span) from exc
                append(token._replace(value=value, width=width))
            else:
                _unexpected(first, line, column, filename)
        elif start == stop:
            append(new((TokenKind.EOF, "", None, None, line, column, filename)))
            return tokens
        elif source.startswith("/*", start):
            # The span runs to the end of the input, as far as the scan got.
            end = Position(
                line + count("\n", start, stop), stop - source.rfind("\n", 0, stop)
            )
            raise LexerError(
                "unterminated block comment",
                SourceSpan(Position(line, column), end, filename),
            )
        else:
            _unexpected(source[start], line, column, filename)
        pos = m.end()


def _unexpected(char: str, line: int, column: int, filename: str) -> None:
    raise LexerError(f"unexpected character {char!r}", SourceSpan.point(line, column, filename))
