"""Solver scaling: SCC-condensed scheduling vs the seed worklist, at 10k+.

The synthesised stress programs (:func:`repro.synth.deep_dataflow_program`
and :func:`repro.synth.scc_cycle_program`) yield constraint systems of
10,000+ constraints.  These tests pin the structural claims that make the
solver scale, on counters rather than clocks:

* the SCC-condensed scheduler performs **strictly fewer worklist pops**
  than the seed's single global worklist (``tests/solver_oracle.py``) on
  the same deduplicated edges;
* acyclic systems converge in exactly one pass per component;
* iteration is confined to genuine cycles (``max_passes`` > 1 only there);
* an incremental :meth:`repro.inference.Solver.resolve` after a
  single-slot edit visits only the edit's cone of influence, and produces
  the same assignment as a from-scratch solve;
* a leak at the end of a long chain yields an unsat core that walks the
  whole chain.

``benchmarks/regenerate.py`` prints the same systems' pop counts and
times as the solver series.
"""

from __future__ import annotations

import pytest

from repro.frontend.parser import parse_program
from repro.inference import (
    Constraint,
    ConstTerm,
    Solver,
    VarSupply,
    VarTerm,
    generate_constraints,
    solve,
)
from repro.lattice.two_point import TwoPointLattice
from repro.synth import deep_dataflow_program, scc_cycle_program
from solver_oracle import solve_worklist

#: Sized so each system comfortably clears 10,000 constraints.
DEEP_DEPTH = 10_500
CYCLE_COUNT = 1_700
CYCLE_LENGTH = 5
CONSTRAINT_FLOOR = 10_000


def _system(source: str):
    lattice = TwoPointLattice()
    generation = generate_constraints(parse_program(source), lattice)
    assert not generation.errors
    return lattice, generation.constraints


@pytest.fixture(scope="module")
def deep_system():
    return _system(deep_dataflow_program(DEEP_DEPTH))


@pytest.fixture(scope="module")
def cycle_system():
    return _system(scc_cycle_program(CYCLE_COUNT, CYCLE_LENGTH))


def test_deep_chain_scc_beats_worklist(deep_system):
    """Acyclic 10k-edge chain: one pass, strictly fewer pops than the seed."""
    lattice, constraints = deep_system
    assert len(constraints) >= CONSTRAINT_FLOOR
    scc = solve(lattice, constraints)
    seed = solve_worklist(lattice, constraints)

    assert scc.ok and seed.ok
    for var in seed.assignment:
        assert lattice.equal(scc.value_of(var), seed.value_of(var))
    assert scc.iterations < seed.iterations, (
        f"SCC scheduling should pop strictly fewer edges: "
        f"{scc.iterations} vs {seed.iterations}"
    )
    # An acyclic condensation is solved in a single pass per component:
    # exactly one pop per edge, and no component iterates.
    assert scc.stats.cyclic_scc_count == 0
    assert scc.stats.max_passes == 1
    assert scc.iterations == scc.stats.edge_count


def test_cycle_program_confines_iteration(cycle_system):
    """Ring-structured SCCs: iteration stays local, pops stay below seed."""
    lattice, constraints = cycle_system
    assert len(constraints) >= CONSTRAINT_FLOOR
    scc = solve(lattice, constraints)
    seed = solve_worklist(lattice, constraints)

    assert scc.ok and seed.ok
    for var in seed.assignment:
        assert lattice.equal(scc.value_of(var), seed.value_of(var))
    assert scc.iterations < seed.iterations
    # Every ring is recognised as one cyclic component of the right size,
    # and only those components iterate (a second sweep to confirm the
    # fixpoint -- never a global restart).
    assert scc.stats.cyclic_scc_count == CYCLE_COUNT
    assert scc.stats.largest_scc == CYCLE_LENGTH
    assert scc.stats.max_passes >= 2


def test_incremental_resolve_visits_only_the_cone():
    """A single-slot edit near the tail re-visits only its cone of influence."""
    lattice = TwoPointLattice()
    supply = VarSupply()
    length = DEEP_DEPTH
    variables = [supply.fresh(f"v{i}") for i in range(length)]
    constraints = [Constraint(ConstTerm("low"), VarTerm(variables[0]))]
    constraints += [
        Constraint(VarTerm(variables[i - 1]), VarTerm(variables[i]))
        for i in range(1, length)
    ]

    solver = Solver(lattice, constraints)
    full = solver.solve()
    assert full.ok
    full_visits = full.stats.edges_visited
    assert full_visits == len(solver.graph.edges)

    tail = 50
    edited = variables[length - tail]
    incremental = solver.resolve({edited: "high"})
    # The cone of the edited slot is the suffix of the chain: `tail`
    # variables, one in-edge each.
    assert incremental.stats.edges_visited == tail
    assert incremental.stats.edges_visited < full_visits

    scratch = solve(
        lattice,
        constraints + [Constraint(ConstTerm("high"), VarTerm(edited))],
    )
    for var in variables:
        assert lattice.equal(incremental.value_of(var), scratch.value_of(var))

    # Reverting the edit lowers the cone back down -- still cone-local.
    reverted = solver.resolve({edited: None})
    assert reverted.stats.edges_visited == tail
    for var in variables:
        assert lattice.equal(reverted.value_of(var), full.value_of(var))


def test_unsat_core_extraction_scales():
    """A leaky 5k-deep chain still yields a complete source-to-sink core."""
    depth = DEEP_DEPTH // 2
    lattice, constraints = _system(deep_dataflow_program(depth, sink_level="low"))
    solution = solve(lattice, constraints)
    assert not solution.ok
    (conflict,) = solution.conflicts
    # The core walks the whole chain back from the low sink to the high
    # seed: depth propagation constraints (plus the seeding assignment).
    assert len(conflict.core) >= depth
