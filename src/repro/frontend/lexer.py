"""Lexer for the annotated P4 dialect.

:func:`scan` lexes a region into columns, not token objects: the texts
and the kinds of the tokens, their offsets (a start and an end per token,
in one array) and the value and width of each integer literal's text; a
token is its index into them.  One master pattern matches the trivia
before a token together with the token, a single C-level ``split`` yields
every piece, and the offsets are the running sum of their lengths.
:func:`tokenize` renders a whole source as :class:`Token` objects.
Context-sensitive decisions (whether ``<`` opens a security annotation)
are the parser's.
"""

from __future__ import annotations

import enum
import re
from array import array
from collections import namedtuple
from itertools import accumulate
from typing import Dict, List, Tuple

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


class Token(namedtuple("_TokenFields", "kind text value width offset lines")):
    """A single token: its kind, source text, value, and where it starts.

    Immutable (a named tuple).  ``offset`` is where the token starts in
    its source and ``lines`` the source's line table; the
    :class:`SourceSpan` is built only when :attr:`span` is read.
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


#: One match = the trivia before a token (group 1), then the token (group
#: 2): a run of word characters (identifier, keyword or number),
#: punctuation (multi-character operators first, for maximal munch), the
#: ``/*`` of a block comment that never ends, any other single character,
#: or the end of the region as an empty token.  So every character is
#: matched, the pieces ``split`` yields tile the region, and no token is
#: ever empty but the last.  The token matches wherever the trivia stops,
#: so the trivia never gives a character back and no token starts inside
#: a comment.  ``\w`` is exactly ``str.isalnum() or "_"``; the first
#: character decides the token class.  ``?`` only ever appears as the
#: short spelling of an ``infer`` security annotation (``<bit<8>, ?>``);
#: the parser rejects it anywhere else.
_MASTER = re.compile(
    r"((?:[ \t\r\n]+|//[^\n]*|/\*.*?\*/)*)"
    r"(\w+|<<|>>|==|!=|<=|>=|&&|\|\||/\*|[{}()\[\]<>,;:.=+\-*/%&|^~!@?]|.|\Z)",
    re.DOTALL,
)

#: The kind of every spelling that has one whatever its context.
_KINDS: Dict[str, TokenKind] = {
    **dict.fromkeys(
        "<< >> == != <= >= && || { } ( ) [ ] < > , ; : . = + - * / % & | ^ ~ ! @ ?".split(),
        TokenKind.PUNCT,
    ),
    **dict.fromkeys(KEYWORDS, TokenKind.KEYWORD),
}


def _parse_number(text: str) -> tuple[int, int | None]:
    """Value and width of an integer literal; ``ValueError`` if malformed."""
    cleaned = text.replace("_", "")
    # width-annotated literals such as 8w255 or 32w0xFF
    if "w" in cleaned and not cleaned.lower().startswith("0x"):
        width_text, _, value_text = cleaned.partition("w")
        if width_text.isdigit() and value_text:
            return int(value_text, 0), int(width_text)
    return int(cleaned, 0), None


Columns = Tuple[List[str], List[TokenKind], "array[int]", Dict[str, Tuple[int, "int | None"]]]


def scan(lines: LineTable, pos: int, stop: int) -> Columns:
    """Lex the tokens of ``lines.source`` that start in ``[pos, stop)``.

    ``pos`` must be where a token may start.  The EOF token sits at
    ``stop``, which must be the end of the source or where the whole
    source has a token start: a token or comment that runs past ``stop``
    is a :class:`LexerError`.  Returns the columns of the tokens, EOF
    last: their texts, their kinds, their offsets (a start and an end per
    token) and the ``(value, width)`` of each integer literal's text.
    """
    source = lines.source
    pieces = _MASTER.split(source[pos:stop])
    del pieces[::3]  # the empty text between two adjacent matches
    texts = pieces[1::2]
    count = texts.index("")  # the end of the region
    del texts[count:]
    offsets = array("l")
    offsets.fromlist(list(accumulate(map(len, pieces[: 2 * count]), initial=pos)))
    del offsets[0]
    # Only the match that ends at ``stop`` can differ from the whole
    # source's lex: redo it against the whole source, which shows a
    # token or trivia that runs past ``stop``.
    if offsets and offsets[-1] == stop:
        texts.pop()
        del offsets[-2:]
    match = _MASTER.match
    m = match(source, offsets[-1] if offsets else pos)
    after = m.start(2)
    if after < stop:
        texts.append(m[2])
        offsets.extend((after, m.end(2)))
        after = match(source, m.end(2)).start(2)

    kinds = _KINDS.copy()
    values: Dict[str, Tuple[int, "int | None"]] = {}
    bad = set()
    for word in set(texts).difference(kinds):
        first = word[0]
        if first.isalpha() or first == "_":
            kinds[word] = TokenKind.IDENT
        elif first.isdigit():
            try:
                values[word] = _parse_number(word)
            except ValueError:
                bad.add(word)
            kinds[word] = TokenKind.INT
        else:
            bad.add(word)
    if bad:
        at = next(at for at, text in enumerate(texts) if text in bad)
        _fail(lines, texts[at], offsets[2 * at], stop)
    if after > stop:
        raise LexerError("a token runs past the end of the region", _span(lines, stop, stop))
    column = list(map(kinds.__getitem__, texts))
    column.append(TokenKind.EOF)
    texts.append("")
    offsets.extend((stop, stop))
    return texts, column, offsets, values


def _fail(lines: LineTable, text: str, start: int, stop: int) -> None:
    """Raise the error for token ``text`` at ``start``, which no kind fits."""
    if text[0].isdigit():
        raise LexerError(f"malformed literal {text!r}", _span(lines, start, start + len(text)))
    if text == "/*":
        if lines.source.find("*/", start + 2) >= 0:
            # A comment that ends past ``stop`` is trivia of the whole source.
            raise LexerError("a token runs past the end of the region", _span(lines, stop, stop))
        # The span runs to the end of the region.
        raise LexerError("unterminated block comment", _span(lines, start, stop))
    raise LexerError(f"unexpected character {text[0]!r}", _span(lines, start, start))


def tokenize(source: str, filename: str = "<input>") -> List[Token]:
    """Lex ``source`` into a token list ending in an EOF token."""
    lines = LineTable(source, filename)
    texts, kinds, offsets, values = scan(lines, 0, len(source))
    return [
        Token(kind, text, *values.get(text, (None, None)), start, lines)
        for kind, text, start in zip(kinds, texts, offsets[::2])
    ]


def _span(lines: LineTable, start: int, end: int) -> SourceSpan:
    return SourceSpan(lines.position(start), lines.position(end), lines.filename)
