"""Finite lattices given by an explicit order relation.

Most concrete lattices in this package are small and finite, so they are
implemented by closing a user-supplied covering relation under reflexivity
and transitivity and computing joins/meets by search.  This keeps the
concrete lattice classes (two-point, diamond, ...) tiny.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Mapping, Sequence, Set, Tuple

from repro.lattice.base import Label, Lattice, LatticeError


class FiniteLattice(Lattice):
    """A finite lattice defined by its members and an order relation.

    Parameters
    ----------
    members:
        The carrier set.
    order:
        Pairs ``(a, b)`` meaning ``a ⊑ b``.  The reflexive-transitive closure
        is taken automatically, so supplying only the covering (Hasse) edges
        is enough.
    name:
        Display name used in diagnostics and by the registry.
    """

    def __init__(
        self,
        members: Sequence[Label],
        order: Iterable[Tuple[Label, Label]],
        *,
        name: str = "finite",
    ) -> None:
        self.name = name
        self._members: Tuple[Label, ...] = tuple(dict.fromkeys(members))
        member_set = set(self._members)
        for a, b in order:
            if a not in member_set or b not in member_set:
                raise LatticeError(
                    f"order pair ({a!r}, {b!r}) mentions a label outside the carrier"
                )
        self._leq: Dict[Label, FrozenSet[Label]] = self._close(self._members, order)
        self._bottom = self._find_bottom()
        self._top = self._find_top()
        self._join_table: Dict[Tuple[Label, Label], Label] = {}
        self._meet_table: Dict[Tuple[Label, Label], Label] = {}
        self._precompute_bounds()

    # -- construction helpers ---------------------------------------------

    @staticmethod
    def _close(
        members: Sequence[Label], order: Iterable[Tuple[Label, Label]]
    ) -> Dict[Label, FrozenSet[Label]]:
        """Reflexive-transitive closure: map each label to its up-set."""
        above: Dict[Label, Set[Label]] = {m: {m} for m in members}
        edges: Dict[Label, Set[Label]] = {m: set() for m in members}
        for a, b in order:
            edges[a].add(b)
        changed = True
        while changed:
            changed = False
            for a in members:
                new = set(above[a])
                for b in list(new):
                    new |= edges[b]
                    new |= above[b]
                if new != above[a]:
                    above[a] = new
                    changed = True
        return {m: frozenset(above[m]) for m in members}

    def _find_bottom(self) -> Label:
        candidates = [m for m in self._members if self._leq[m] == frozenset(self._members)]
        if len(candidates) != 1:
            raise LatticeError(
                f"lattice {self.name!r} must have exactly one bottom element, "
                f"found {candidates!r}"
            )
        return candidates[0]

    def _find_top(self) -> Label:
        candidates = [
            m
            for m in self._members
            if all(m in self._leq[other] for other in self._members)
        ]
        if len(candidates) != 1:
            raise LatticeError(
                f"lattice {self.name!r} must have exactly one top element, "
                f"found {candidates!r}"
            )
        return candidates[0]

    def _precompute_bounds(self) -> None:
        members = self._members
        for a in members:
            for b in members:
                uppers = [c for c in members if self.leq(a, c) and self.leq(b, c)]
                least = [u for u in uppers if all(self.leq(u, v) for v in uppers)]
                if len(least) != 1:
                    raise LatticeError(
                        f"labels {a!r} and {b!r} have no unique join in {self.name!r}"
                    )
                self._join_table[(a, b)] = least[0]
                lowers = [c for c in members if self.leq(c, a) and self.leq(c, b)]
                greatest = [l for l in lowers if all(self.leq(v, l) for v in lowers)]
                if len(greatest) != 1:
                    raise LatticeError(
                        f"labels {a!r} and {b!r} have no unique meet in {self.name!r}"
                    )
                self._meet_table[(a, b)] = greatest[0]

    # -- Lattice interface --------------------------------------------------

    def labels(self) -> Tuple[Label, ...]:
        return self._members

    def leq(self, a: Label, b: Label) -> bool:
        self.require(a)
        self.require(b)
        return b in self._leq[a]

    @property
    def bottom(self) -> Label:
        return self._bottom

    @property
    def top(self) -> Label:
        return self._top

    def join(self, a: Label, b: Label) -> Label:
        self.require(a)
        self.require(b)
        return self._join_table[(a, b)]

    def meet(self, a: Label, b: Label) -> Label:
        self.require(a)
        self.require(b)
        return self._meet_table[(a, b)]

    def __contains__(self, label: Label) -> bool:
        return label in self._leq

    # -- alternative constructors -------------------------------------------

    @classmethod
    def from_upsets(
        cls, upsets: Mapping[Label, Iterable[Label]], *, name: str = "finite"
    ) -> "FiniteLattice":
        """Construct from a mapping ``label -> labels above it``."""
        members = list(upsets)
        order = [(a, b) for a, bs in upsets.items() for b in bs]
        return cls(members, order, name=name)
