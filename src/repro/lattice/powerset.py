"""Powerset lattices over a finite set of principals.

The labels are (frozen) subsets of a universe of principals, ordered by
inclusion, with union as join and intersection as meet.  The diamond lattice
of Figure 8b is the powerset lattice over ``{Alice, Bob}``; powersets over
more principals give the "directly generalised to more parties" lattices the
paper sketches at the end of Section 5.4.
"""

from __future__ import annotations

from itertools import chain, combinations
from typing import FrozenSet, Iterable, Sequence

from repro.lattice.base import Label, Lattice, LatticeError


class PowersetLattice(Lattice):
    """Subsets of ``principals`` ordered by inclusion."""

    def __init__(self, principals: Sequence[str], *, name: str | None = None) -> None:
        if len(set(principals)) != len(principals):
            raise LatticeError("principals must be distinct")
        self._universe: FrozenSet[str] = frozenset(principals)
        self._ordered_principals = tuple(principals)
        self.name = name or f"powerset-{len(principals)}"

    @property
    def principals(self) -> tuple:
        """The principals in declaration order (the canonical bit order of
        the packed label codec's bitset encoding)."""
        return self._ordered_principals

    def labels(self) -> Iterable[FrozenSet[str]]:
        items = self._ordered_principals
        return tuple(
            frozenset(c)
            for c in chain.from_iterable(
                combinations(items, r) for r in range(len(items) + 1)
            )
        )

    def height_bound(self) -> int:
        # Chains add one principal at a time: at most |universe| + 1 steps.
        # (The default would enumerate all 2^n subsets.)
        return max(2, len(self._universe) + 1)

    def leq(self, a: Label, b: Label) -> bool:
        self.require(a)
        self.require(b)
        return frozenset(a) <= frozenset(b)

    @property
    def bottom(self) -> FrozenSet[str]:
        return frozenset()

    @property
    def top(self) -> FrozenSet[str]:
        return self._universe

    def join(self, a: Label, b: Label) -> FrozenSet[str]:
        self.require(a)
        self.require(b)
        return frozenset(a) | frozenset(b)

    def meet(self, a: Label, b: Label) -> FrozenSet[str]:
        self.require(a)
        self.require(b)
        return frozenset(a) & frozenset(b)

    def __contains__(self, label: Label) -> bool:
        try:
            return frozenset(label) <= self._universe
        except TypeError:
            return False

    def parse_label(self, text: str) -> FrozenSet[str]:
        cleaned = text.strip()
        if cleaned.lower() in {"bot", "bottom", "{}", ""}:
            return self.bottom
        if cleaned.lower() in {"top", "all"}:
            return self.top
        if cleaned.startswith("{") and cleaned.endswith("}"):
            cleaned = cleaned[1:-1]
        parts = [p.strip() for p in cleaned.split(",") if p.strip()]
        label = frozenset(parts)
        if label not in self:
            raise LatticeError(
                f"unknown principals {sorted(label - self._universe)!r} "
                f"for lattice {self.name!r}"
            )
        return label

    def format_label(self, label: Label) -> str:
        items = sorted(frozenset(label))
        return "{" + ", ".join(items) + "}"
