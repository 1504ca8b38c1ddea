"""Source positions and spans for diagnostics.

Every AST node carries a :class:`SourceSpan` so that both the ordinary type
checker and the IFC checker can report errors at the precise location of the
offending expression, mirroring how P4BID extends p4c's diagnostics.

A parsed span is position-independent: it holds the :class:`Anchor` of its
top-level unit and two indices into the offsets of the unit's tokens, and
its ``line:column`` positions are computed through the anchor's
:class:`LineTable` only when they are read.  An edit that moves a unit, or
changes only the whitespace and comments between its tokens, re-bases the
unit's anchor, and every node, constraint and diagnostic made from the unit
renders at the new positions with the very span objects it had.  A span's
equality and hash never look at positions, so a re-base changes neither.
This is the only module that knows how a span maps to a position.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import List, Optional


@dataclass(frozen=True, slots=True)
class Position:
    """A 1-based line/column position in a source file."""

    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


class LineTable:
    """One source text, its file name and the offset each line starts at;
    every anchor of one parse shares it."""

    __slots__ = ("source", "filename", "starts")

    def __init__(self, source: str, filename: str) -> None:
        self.source = source
        self.filename = filename
        self.starts = list(accumulate((len(line) + 1 for line in source.split("\n")), initial=0))

    def position(self, offset: int) -> Position:
        line = bisect_right(self.starts, offset)
        return Position(line, offset - self.starts[line - 1] + 1)


class Anchor:
    """Where the tokens of one top-level unit sit in the current source.

    ``offsets`` holds a start and an end offset per token, as the parse
    that made the unit found them; the unit's own run from index ``base``
    to ``stop``, and ``shift`` moves them to where the unit sits now.  A
    span index ``i`` is offset ``offsets[base + i] + shift``.  Anchors
    compare by identity.
    """

    __slots__ = ("offsets", "base", "stop", "shift", "lines")

    def __init__(self, offsets: "array[int]", lines: LineTable, base: int = 0) -> None:
        self.offsets = offsets
        self.base = base
        self.stop = len(offsets)
        self.shift = 0
        self.lines = lines

    @property
    def start(self) -> int:
        """Where the unit starts now."""
        return self.offsets[self.base] + self.shift

    @property
    def end(self) -> int:
        """Where the unit ends now."""
        return self.offsets[self.stop - 1] + self.shift

    def tokens(self) -> List[str]:
        """The text of each of the unit's tokens."""
        offsets, shift, source = self.offsets, self.shift, self.lines.source
        return [
            source[offsets[at] + shift : offsets[at + 1] + shift]
            for at in range(self.base, self.stop, 2)
        ]

    def move(self, lines: LineTable, delta: int) -> None:
        """The unit now sits ``delta`` characters later, in ``lines``."""
        self.shift += delta
        self.lines = lines

    def rebase(self, other: "Anchor") -> None:
        """Sit where ``other`` does; its unit must have the same tokens."""
        self.offsets, self.base, self.stop = other.offsets, other.base, other.stop
        self.shift, self.lines = other.shift, other.lines


class SourceSpan:
    """A half-open region of source text, with the name of its file.

    Built from two :class:`Position` objects, the span sits at them for
    good: its anchor is the file name.  The parser builds anchored spans
    with :func:`span_at`.
    """

    __slots__ = ("anchor", "lo", "hi")

    def __init__(self, start: Position, end: Position, filename: str = "<input>") -> None:
        self.anchor = filename
        self.lo = start
        self.hi = end

    def _position(self, index) -> Position:
        anchor = self.anchor
        if type(anchor) is str:
            return index
        return anchor.lines.position(anchor.offsets[anchor.base + index] + anchor.shift)

    @property
    def start(self) -> Position:
        return self._position(self.lo)

    @property
    def end(self) -> Position:
        return self._position(self.hi)

    @property
    def filename(self) -> str:
        anchor = self.anchor
        return anchor if type(anchor) is str else anchor.lines.filename

    @classmethod
    def unknown(cls) -> "SourceSpan":
        """A placeholder span for synthesised nodes (tests, builders)."""
        return cls(Position(0, 0), Position(0, 0), "<synthesised>")

    @classmethod
    def point(cls, line: int, column: int, filename: str = "<input>") -> "SourceSpan":
        """A zero-width span at a single position."""
        return cls(Position(line, column), Position(line, column), filename)

    def merge(self, other: "SourceSpan") -> "SourceSpan":
        """The smallest span covering both ``self`` and ``other``."""
        if self.is_unknown():
            return other
        if other.is_unknown():
            return self
        start = min(
            (self.start, other.start), key=lambda p: (p.line, p.column)
        )
        end = max((self.end, other.end), key=lambda p: (p.line, p.column))
        return SourceSpan(start, end, self.filename)

    def is_unknown(self) -> bool:
        return type(self.anchor) is str and self.lo.line == 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SourceSpan):
            return NotImplemented
        return self.anchor == other.anchor and self.lo == other.lo and self.hi == other.hi

    def __hash__(self) -> int:
        return hash((self.anchor, self.lo, self.hi))

    def __repr__(self) -> str:
        return f"SourceSpan(start={self.start!r}, end={self.end!r}, filename={self.filename!r})"

    def __str__(self) -> str:
        anchor = self.anchor
        if type(anchor) is str:
            return "<unknown>" if self.lo.line == 0 else f"{anchor}:{self.lo}"
        # Every report renders every slot: no Position objects here.
        lines = anchor.lines
        offset = anchor.offsets[anchor.base + self.lo] + anchor.shift
        line = bisect_right(lines.starts, offset)
        return f"{lines.filename}:{line}:{offset - lines.starts[line - 1] + 1}"


def anchor_of(span: SourceSpan) -> Optional[Anchor]:
    """The anchor of a parsed span; None for one built from positions."""
    anchor = span.anchor
    return anchor if type(anchor) is Anchor else None


def placement(anchor: Anchor) -> tuple:
    """What the spans of ``anchor``'s unit render from: the token offsets
    it indexes, its file, and the line and column where it starts.

    A unit's text changes only by a re-parse, which re-bases its anchor
    onto new offsets; a reused unit's text is the same, so while the
    placement is the same (:func:`same_placement`), so is every line and
    column of the unit, even when its offset moved.
    """
    lines = anchor.lines
    start = anchor.offsets[anchor.base] + anchor.shift
    line = bisect_right(lines.starts, start)
    return anchor.offsets, anchor.base, lines.filename, line, start - lines.starts[line - 1]


def same_placement(anchor: Anchor, mark: tuple) -> bool:
    """Whether ``anchor`` renders as it did when :func:`placement` gave ``mark``."""
    now = placement(anchor)
    return now[0] is mark[0] and now[1:] == mark[1:]


_new = object.__new__


def span_at(anchor: Anchor, lo: int, hi: int) -> SourceSpan:
    """The span from index ``lo`` to index ``hi`` of ``anchor``."""
    span = _new(SourceSpan)
    span.anchor = anchor
    span.lo = lo
    span.hi = hi
    return span
