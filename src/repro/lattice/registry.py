"""A small registry of named lattices for the CLI and the test-suite.

The P4BID tool selects the lattice by name (``--lattice two-point`` or
``--lattice diamond``); additional lattices can be registered by library
users (e.g. chains of a given height for multi-level policies).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.lattice.base import Lattice, LatticeError
from repro.lattice.chain import ChainLattice
from repro.lattice.diamond import DiamondLattice
from repro.lattice.policy import mini_policy_lattice, policy_lattice
from repro.lattice.two_point import TwoPointLattice

#: The tallest ``chain-N`` that :func:`get_lattice` builds.
MAX_CHAIN_HEIGHT = 256
#: The most purposes, recipients or retention classes of a
#: ``policy-P-R-T`` that :func:`get_lattice` builds.
MAX_POLICY_GROUP = 512

_FACTORIES: Dict[str, Callable[[], Lattice]] = {}


def register_lattice(name: str, factory: Callable[[], Lattice]) -> None:
    """Register ``factory`` so ``get_lattice(name)`` can construct it."""
    _FACTORIES[name] = factory


def available_lattices() -> Tuple[str, ...]:
    """Names of every registered lattice, sorted."""
    return tuple(sorted(_FACTORIES))


def get_lattice(name: str) -> Lattice:
    """Construct the lattice registered under ``name``.

    Also accepts two parametric families even if the exact shape was never
    explicitly registered:

    * ``chain-N`` for any integer ``2 <= N <=`` :data:`MAX_CHAIN_HEIGHT`;
    * ``policy-P-R-T`` for integers ``P, R, T >= 1``, each at most
      :data:`MAX_POLICY_GROUP` — a policy lattice with ``P`` purposes,
      ``R`` recipients and ``T`` retention classes (e.g.
      ``policy-120-96-8`` is the 216-principal benchmark shape).

    A larger shape is a :class:`LatticeError`, raised before anything is
    built: a name may come from a client.
    """
    if name in _FACTORIES:
        return _FACTORIES[name]()
    if name.startswith("chain-"):
        sizes = _sizes(name[len("chain-"):], 1)
        if sizes is not None and sizes[0] >= 2:
            if sizes[0] > MAX_CHAIN_HEIGHT:
                raise LatticeError(
                    f"lattice {name!r} is too tall: a chain has at most "
                    f"{MAX_CHAIN_HEIGHT} levels"
                )
            return ChainLattice.of_height(int(sizes[0]))
    if name.startswith("policy-"):
        sizes = _sizes(name[len("policy-"):], 3)
        if sizes is not None and min(sizes) >= 1:
            if max(sizes) > MAX_POLICY_GROUP:
                raise LatticeError(
                    f"lattice {name!r} is too large: a policy has at most "
                    f"{MAX_POLICY_GROUP} purposes, recipients and retention classes"
                )
            return policy_lattice(*(int(size) for size in sizes))
    raise LatticeError(
        f"unknown lattice {name!r}; available: {', '.join(available_lattices())}"
    )


def _sizes(text: str, count: int) -> Optional[List[float]]:
    """``count`` dash-separated decimal sizes, or None.  A size with more
    digits than any bound is infinite, so it is never converted."""
    parts = text.split("-")
    if len(parts) != count or not all(part.isascii() and part.isdigit() for part in parts):
        return None
    return [int(part) if len(part) < 10 else float("inf") for part in parts]


register_lattice("two-point", TwoPointLattice)
register_lattice("diamond", DiamondLattice)
register_lattice("policy-mini", mini_policy_lattice)
