"""The two-point security lattice ``{low, high}`` used throughout the paper.

``low`` is public (or trusted, under the integrity reading of Section 5.3)
and ``high`` is secret (or untrusted); ``low ⊑ high``.  It is the
two-level chain, so it orders by rank and builds no tables.
"""

from __future__ import annotations

from repro.lattice.chain import ChainLattice

#: Canonical spelling of the public / trusted label.
LOW = "low"
#: Canonical spelling of the secret / untrusted label.
HIGH = "high"

_ALIASES = {
    "public": LOW,
    "trusted": LOW,
    "l": LOW,
    "secret": HIGH,
    "untrusted": HIGH,
    "h": HIGH,
}


class TwoPointLattice(ChainLattice):
    """The classic ``low ⊑ high`` lattice (the paper's default)."""

    def __init__(self) -> None:
        super().__init__([LOW, HIGH], name="two-point")

    def parse_label(self, text: str) -> str:
        alias = _ALIASES.get(text.strip().lower())
        if alias is not None:
            return alias
        return super().parse_label(text)
