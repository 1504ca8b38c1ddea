"""Total-order ("chain") lattices of arbitrary height.

A chain of height ``n`` has labels ``L0 ⊑ L1 ⊑ ... ⊑ L(n-1)``.  The paper's
two-point lattice is the chain of height 2; taller chains are used by our
lattice-size ablation benchmark and to model multi-level clearances.

The order is structural: each label's rank (its position in the chain)
decides ``leq``, ``join`` (the higher rank) and ``meet`` (the lower), so a
chain costs O(height) to build and O(1) per operation, with no closure or
bounds tables.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from repro.lattice.base import Label, Lattice, LatticeError


class ChainLattice(Lattice):
    """A totally ordered lattice over the given labels (lowest first)."""

    def __init__(self, levels: Sequence[str], *, name: str | None = None) -> None:
        if len(levels) < 2:
            raise LatticeError("a chain lattice needs at least two levels")
        if len(set(levels)) != len(levels):
            raise LatticeError("chain levels must be distinct")
        self.name = name or f"chain-{len(levels)}"
        self._levels: Tuple[str, ...] = tuple(levels)
        self._ranks: Dict[Label, int] = {level: i for i, level in enumerate(levels)}

    @classmethod
    def of_height(cls, height: int) -> "ChainLattice":
        """A chain ``L0 ⊑ ... ⊑ L(height-1)`` with generated label names."""
        return cls([f"L{i}" for i in range(height)])

    @property
    def levels(self) -> tuple:
        """The labels in increasing order."""
        return self._levels

    def height_bound(self) -> int:
        # A chain's height is exactly its number of levels.
        return len(self._levels)

    def rank(self, label: str) -> int:
        """The position of ``label`` in the chain (0 = bottom)."""
        rank = self._ranks.get(label)
        if rank is None:
            self.require(label)
        return rank

    # -- Lattice interface --------------------------------------------------

    def labels(self) -> Tuple[str, ...]:
        return self._levels

    def __contains__(self, label: Label) -> bool:
        return label in self._ranks

    @property
    def bottom(self) -> str:
        return self._levels[0]

    @property
    def top(self) -> str:
        return self._levels[-1]

    def leq(self, a: Label, b: Label) -> bool:
        return self.rank(a) <= self.rank(b)

    def join(self, a: Label, b: Label) -> Label:
        return self._levels[max(self.rank(a), self.rank(b))]

    def meet(self, a: Label, b: Label) -> Label:
        return self._levels[min(self.rank(a), self.rank(b))]
