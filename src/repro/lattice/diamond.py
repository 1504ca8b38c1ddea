"""The four-point diamond lattice of Figure 8b.

::

          top
         /    \\
        B      A
         \\    /
          bot

Used in Section 5.4 to model network isolation: Alice's data is labelled
``A``, Bob's data ``B``, in-band telemetry ``top`` and globally visible
routing data ``bot``.  Non-interference then guarantees that Alice cannot
influence Bob's fields and vice versa, and neither can read telemetry.
"""

from __future__ import annotations

from types import MappingProxyType

from repro.lattice.finite import FiniteLattice

BOT = "bot"
ALICE = "A"
BOB = "B"
TOP = "top"

_MEMBERS = (BOT, ALICE, BOB, TOP)
#: Each label's up-set: the labels above it, itself included.
_UPSETS = MappingProxyType(
    {
        BOT: frozenset(_MEMBERS),
        ALICE: frozenset({ALICE, TOP}),
        BOB: frozenset({BOB, TOP}),
        TOP: frozenset({TOP}),
    }
)
# ``A`` and ``B`` are the only incomparable pair: their join is ``top``,
# their meet ``bot``; every other pair is ordered.
_JOIN = MappingProxyType(
    {
        (a, b): b if b in _UPSETS[a] else a if a in _UPSETS[b] else TOP
        for a in _MEMBERS
        for b in _MEMBERS
    }
)
_MEET = MappingProxyType(
    {
        (a, b): a if b in _UPSETS[a] else b if a in _UPSETS[b] else BOT
        for a in _MEMBERS
        for b in _MEMBERS
    }
)


class DiamondLattice(FiniteLattice):
    """``{bot, A, B, top}`` with ``bot ⊑ A ⊑ top`` and ``bot ⊑ B ⊑ top``.

    The order, join and meet tables are immutable class constants, built
    once at import, so constructing a diamond costs nothing.
    """

    name = "diamond"
    _members = _MEMBERS
    _leq = _UPSETS
    _bottom = BOT
    _top = TOP
    _join_table = _JOIN
    _meet_table = _MEET

    def __init__(self) -> None:
        pass  # every table is a class constant

    def parse_label(self, text: str) -> str:
        lowered = text.strip().lower()
        aliases = {
            "alice": ALICE,
            "a": ALICE,
            "bob": BOB,
            "b": BOB,
            "low": BOT,
            "high": TOP,
        }
        if lowered in aliases:
            return aliases[lowered]
        return super().parse_label(text)
