"""Lexer for the annotated P4 dialect.

One compiled master pattern matches the trivia before a token together
with the token, and :func:`tokenize` walks the source with it in a single
loop that records offsets and never counts lines.  :func:`scan` runs the
same loop over a region of the source, for re-parsing the text an edit
touched.  A :class:`Token` stores its offset and the parse's
:class:`~repro.syntax.source.LineTable`, which turns it into a
:class:`SourceSpan` only when ``.span`` is read -- most tokens never need
one.  All context-sensitive decisions -- e.g. whether ``<`` opens a
security annotation or is a comparison -- are made by the parser.
"""

from __future__ import annotations

import enum
import re
from array import array
from collections import namedtuple
from typing import List, Tuple

from repro.frontend.errors import LexerError
from repro.syntax.source import LineTable, SourceSpan

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


class Token(namedtuple("_TokenFields", "kind text value width offset index lines")):
    """A single token: its kind, source text, value, and where it sits.

    Immutable (a named tuple).  ``offset`` is where the token starts in
    its source, ``index`` where it sits in its token list, and ``lines``
    the source's line table; the :class:`SourceSpan` is built only when
    :attr:`span` is read -- most tokens never need one.
    """

    __slots__ = ()

    @property
    def span(self) -> SourceSpan:
        lines = self.lines
        return SourceSpan(
            lines.position(self.offset),
            lines.position(self.offset + len(self.text)),
            lines.filename,
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
    return scan(LineTable(source, filename), 0, len(source))[0]


def scan(lines: LineTable, pos: int, stop: int) -> Tuple[List[Token], "array[int]"]:
    """Lex the tokens of ``lines.source`` that start in ``[pos, stop)``.

    ``pos`` must be where a token may start.  The EOF token sits at
    ``stop``, which must be the end of the source or where the whole
    source has a token start: a token or comment that runs past ``stop``
    is a :class:`LexerError`.  Returns the tokens and their offsets, a
    start and an end per token.
    """
    source = lines.source
    match = _MASTER.match
    ident, keyword, punct = TokenKind.IDENT, TokenKind.KEYWORD, TokenKind.PUNCT
    tokens: List[Token] = []
    append = tokens.append
    offsets = array("l")
    push = offsets.extend
    new = Token._make
    index = 0
    while True:
        m = match(source, pos)
        start = m.end() if m.lastindex is None else m.start(m.lastindex)
        if start >= stop:
            if start > stop:
                raise LexerError("a token runs past the end of the region", _point(lines, stop))
            append(new((TokenKind.EOF, "", None, None, stop, index, lines)))
            push((stop, stop))
            return tokens, offsets
        pos = m.end()
        word, op = m.groups()
        if op is not None:
            append(new((punct, op, None, None, start, index, lines)))
        elif word is not None:
            first = word[0]
            if first.isalpha() or first == "_":
                kind = keyword if word in KEYWORDS else ident
                append(new((kind, word, None, None, start, index, lines)))
            elif first.isdigit():
                token = new((TokenKind.INT, word, None, None, start, index, lines))
                try:
                    value, width = _parse_number(word)
                except ValueError as exc:
                    raise LexerError(f"malformed literal {word!r}", token.span) from exc
                append(token._replace(value=value, width=width))
            else:
                raise LexerError(f"unexpected character {first!r}", _point(lines, start))
        elif source.startswith("/*", start):
            # The span runs to the end of the region.
            raise LexerError(
                "unterminated block comment",
                SourceSpan(lines.position(start), lines.position(stop), lines.filename),
            )
        else:
            raise LexerError(f"unexpected character {source[start]!r}", _point(lines, start))
        push((start, pos))
        index += 1


def _point(lines: LineTable, offset: int) -> SourceSpan:
    position = lines.position(offset)
    return SourceSpan(position, position, lines.filename)
