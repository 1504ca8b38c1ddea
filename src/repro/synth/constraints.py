"""Mega-scale synthetic constraint systems for solver benchmarking.

The program generators in :mod:`repro.synth.programs` stress the whole
pipeline, but parsing and constraint *generation* dominate long before the
solver does -- a 1M-constraint program would spend minutes in the frontend
to benchmark seconds of solving.  :func:`mega_constraint_system` therefore
builds :class:`~repro.inference.constraints.Constraint` lists directly, in
the exact shapes the generator emits (variable-to-variable propagation
chains, join fan-ins, occasional cycles, constant sources, upper-bound
checks), so solver tests and timings can run at 10k to 1M constraints.

The system is deterministic for a given argument tuple (seeded
:class:`random.Random`, no set iteration), and its propagation graph has
``chains`` mostly independent constant-seeded chains, sparse cross-links
inside a chain, and optional small cycles to exercise the iterating
schedule.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

from repro.inference.constraints import Constraint
from repro.inference.terms import (
    ConstTerm,
    JoinTerm,
    LabelVar,
    Term,
    VarSupply,
    VarTerm,
)
from repro.lattice.base import Label, Lattice


def mega_constraint_system(
    n_constraints: int,
    lattice: Lattice,
    *,
    seed: int = 0,
    chains: int = 64,
    cross_link_every: int = 17,
    cycle_every: int = 0,
    check_every: int = 100,
) -> Tuple[List[Constraint], List[LabelVar]]:
    """A deterministic constraint system of roughly ``n_constraints``.

    ``chains`` parallel def-use chains are grown round-robin, each seeded
    from a constant source label (cycling through the lattice's non-bottom
    labels so different chains converge to different values).  Every
    ``cross_link_every``-th step joins the previous link with a neighbour
    of the *same* chain a few links back (keeping chains in separate
    propagation clusters); every ``cycle_every``-th step (0 = never) adds a
    back-edge a few links up the same chain, creating a small genuine SCC;
    every ``check_every``-th step emits an upper-bound check against ⊤
    (always satisfiable) so the check machinery is exercised without
    drowning the output in conflicts.

    Returns ``(constraints, chain_tails)`` -- the tails are the final
    variable of each chain, handy for spot-checking solved values.
    """
    if n_constraints < chains:
        chains = max(1, n_constraints)
    rng = random.Random(seed)
    supply = VarSupply()
    constraints: List[Constraint] = []
    seeds = _seed_labels(lattice, chains, rng)
    tails: List[LabelVar] = []
    history: List[List[LabelVar]] = []
    for chain_index in range(chains):
        head = supply.fresh(hint=f"chain{chain_index}.v0")
        constraints.append(
            Constraint(
                ConstTerm(seeds[chain_index]),
                VarTerm(head),
                rule="synth-source",
                reason=f"chain {chain_index} source",
            )
        )
        tails.append(head)
        history.append([head])
    step = 0
    while len(constraints) < n_constraints:
        chain_index = step % chains
        step += 1
        prev = tails[chain_index]
        links = history[chain_index]
        nxt = supply.fresh(hint=f"chain{chain_index}.v{len(links)}")
        lhs: Term = VarTerm(prev)
        if cross_link_every and step % cross_link_every == 0 and len(links) > 3:
            other = links[rng.randrange(0, len(links) - 1)]
            lhs = JoinTerm((VarTerm(prev), VarTerm(other)))
        constraints.append(
            Constraint(lhs, VarTerm(nxt), rule="synth-step")
        )
        if cycle_every and step % cycle_every == 0 and len(links) > 4:
            back = links[-rng.randrange(2, min(5, len(links)))]
            constraints.append(
                Constraint(VarTerm(nxt), VarTerm(back), rule="synth-cycle")
            )
        if check_every and step % check_every == 0:
            constraints.append(
                Constraint(
                    VarTerm(nxt),
                    ConstTerm(lattice.top),
                    rule="synth-check",
                    reason="synthetic upper bound",
                )
            )
        tails[chain_index] = nxt
        links.append(nxt)
        # Bound the per-chain history so cross links stay local and memory
        # stays flat at the 1M tier.
        if len(links) > 64:
            del links[: len(links) - 64]
    return constraints, tails


def _seed_labels(lattice: Lattice, chains: int, rng: random.Random) -> List[Label]:
    """One source label per chain, cycling through a few non-bottom labels.

    Structured lattices can have astronomically many labels; sampling joins
    of ``top``-ish primitives keeps this cheap.  At minimum the list
    alternates ``top`` with one intermediate label when one exists.
    """
    pool: List[Label] = []
    for label in lattice.labels():
        if not lattice.equal(label, lattice.bottom):
            pool.append(label)
        if len(pool) >= 8:
            break
    if not pool:
        pool = [lattice.top]
    return [pool[rng.randrange(0, len(pool))] for _ in range(chains)]


def constraint_label_count(constraints: Sequence[Constraint]) -> int:
    """Distinct label variables a constraint list mentions (for reports)."""
    seen = set()
    for constraint in constraints:
        seen.update(constraint.variables())
    return len(seen)
