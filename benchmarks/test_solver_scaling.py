"""Solver scaling: SCC-condensed scheduling vs the seed worklist, at 10k+.

The synthesised stress programs (:func:`repro.synth.deep_dataflow_program`
and :func:`repro.synth.scc_cycle_program`) yield constraint systems of
10,000+ constraints.  This suite asserts the structural claims that make
the new solver scale -- not just wall time, which shared CI runners make
noisy:

* the SCC-condensed scheduler performs **strictly fewer worklist pops**
  than the seed's single global worklist on the same (deduplicated) edges;
* acyclic systems converge in exactly one pass per component;
* iteration is confined to genuine cycles (``max_passes`` > 1 only there);
* an incremental :meth:`repro.inference.Solver.resolve` after a
  single-slot edit visits only the edit's cone of influence, and produces
  the same assignment as a from-scratch solve.

Set ``P4BID_SOLVER_BENCH_SMOKE=1`` to run the same assertions at reduced
size (the CI smoke job does this so solver regressions fail fast); the
10k-constraint floor is only asserted at full size.
"""

from __future__ import annotations

import os
import time

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
    solve_worklist,
)
from repro.lattice.two_point import TwoPointLattice
from repro.synth import deep_dataflow_program, scc_cycle_program

SMOKE = os.environ.get("P4BID_SOLVER_BENCH_SMOKE", "") not in {"", "0"}
#: Sized so each system comfortably clears 10,000 constraints at full size.
DEEP_DEPTH = 400 if SMOKE else 10_500
CYCLE_COUNT = 80 if SMOKE else 1_700
CYCLE_LENGTH = 5
CONSTRAINT_FLOOR = 0 if SMOKE else 10_000

def _system(source: str):
    lattice = TwoPointLattice()
    generation = generate_constraints(parse_program(source), lattice)
    assert not generation.errors
    return lattice, generation.constraints


def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, (time.perf_counter() - start) * 1000.0


@pytest.fixture(scope="module")
def deep_system():
    return _system(deep_dataflow_program(DEEP_DEPTH))


@pytest.fixture(scope="module")
def cycle_system():
    return _system(scc_cycle_program(CYCLE_COUNT, CYCLE_LENGTH))


def _bench_entry(solution, ms):
    """pytest-agnostic numbers for the ``BENCH_solver.json`` artefact."""
    return {
        "pops": solution.iterations,
        "ms": round(ms, 3),
        "pops_per_sec": round(solution.iterations / (ms / 1000.0), 1) if ms else None,
    }


def test_deep_chain_scc_beats_worklist(deep_system, record_table, record_json):
    """Acyclic 10k-edge chain: one pass, strictly fewer pops than the seed."""
    lattice, constraints = deep_system
    assert len(constraints) >= CONSTRAINT_FLOOR
    scc, scc_ms = _timed(solve, lattice, constraints)
    seed, seed_ms = _timed(solve_worklist, lattice, constraints)

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

    record_table(
        "solver_scaling_deep.txt",
        "\n".join(
            [
                f"Deep dataflow chain (depth {DEEP_DEPTH}, "
                f"{len(constraints)} constraints)",
                f"{'Solver':<24} {'pops':>10} {'ms':>10}",
                f"{'seed worklist':<24} {seed.iterations:>10d} {seed_ms:>10.1f}",
                f"{'SCC-condensed':<24} {scc.iterations:>10d} {scc_ms:>10.1f}",
                f"SCCs: {scc.stats.scc_count} "
                f"(cyclic {scc.stats.cyclic_scc_count}, "
                f"largest {scc.stats.largest_scc})",
            ]
        ),
    )
    record_json(
        "BENCH_solver.json",
        {
            "deep_chain": {
                "smoke": SMOKE,
                "depth": DEEP_DEPTH,
                "constraints": len(constraints),
                "sccs": scc.stats.scc_count,
                "scc_condensed": _bench_entry(scc, scc_ms),
                "seed_worklist": _bench_entry(seed, seed_ms),
            }
        },
    )


def test_cycle_program_confines_iteration(cycle_system, record_table, record_json):
    """Ring-structured SCCs: iteration stays local, pops stay below seed."""
    lattice, constraints = cycle_system
    assert len(constraints) >= CONSTRAINT_FLOOR
    scc, scc_ms = _timed(solve, lattice, constraints)
    seed, seed_ms = _timed(solve_worklist, lattice, constraints)

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

    record_table(
        "solver_scaling_cycles.txt",
        "\n".join(
            [
                f"SCC rings ({CYCLE_COUNT} cycles x {CYCLE_LENGTH} fields, "
                f"{len(constraints)} constraints)",
                f"{'Solver':<24} {'pops':>10} {'ms':>10}",
                f"{'seed worklist':<24} {seed.iterations:>10d} {seed_ms:>10.1f}",
                f"{'SCC-condensed':<24} {scc.iterations:>10d} {scc_ms:>10.1f}",
                f"SCCs: {scc.stats.scc_count} "
                f"(cyclic {scc.stats.cyclic_scc_count}, "
                f"largest {scc.stats.largest_scc}), "
                f"max passes {scc.stats.max_passes}",
            ]
        ),
    )
    record_json(
        "BENCH_solver.json",
        {
            "scc_rings": {
                "smoke": SMOKE,
                "cycles": CYCLE_COUNT,
                "cycle_length": CYCLE_LENGTH,
                "constraints": len(constraints),
                "max_passes": scc.stats.max_passes,
                "scc_condensed": _bench_entry(scc, scc_ms),
                "seed_worklist": _bench_entry(seed, seed_ms),
            }
        },
    )


def test_incremental_resolve_visits_only_the_cone(record_table, record_json):
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

    record_table(
        "solver_incremental.txt",
        "\n".join(
            [
                f"Incremental re-solve on a {length}-variable chain",
                f"full solve edge visits:        {full_visits}",
                f"single-slot edit edge visits:  {incremental.stats.edges_visited}",
                f"(cone of influence = {tail} slots)",
            ]
        ),
    )
    record_json(
        "BENCH_solver.json",
        {
            "incremental_resolve": {
                "smoke": SMOKE,
                "chain_length": length,
                "full_edge_visits": full_visits,
                "incremental_edge_visits": incremental.stats.edges_visited,
                "cone_size": tail,
                "full_solve_ms": round(full.stats.solve_ms, 3),
                "incremental_solve_ms": round(incremental.stats.solve_ms, 3),
            }
        },
    )


def test_unsat_core_extraction_scales(record_table, record_json):
    """A leaky 10k-chain still yields a complete source-to-sink core fast."""
    depth = DEEP_DEPTH // 2
    lattice, constraints = _system(
        deep_dataflow_program(depth, sink_level="low")
    )
    solution, ms = _timed(solve, lattice, constraints)
    assert not solution.ok
    (conflict,) = solution.conflicts
    # The core walks the whole chain back from the low sink to the high
    # seed: depth propagation constraints (plus the seeding assignment).
    assert len(conflict.core) >= depth
    record_table(
        "solver_unsat_core.txt",
        f"Unsat core over a {depth}-deep leak: {len(conflict.core)} "
        f"constraint(s) in {ms:.1f} ms",
    )
    record_json(
        "BENCH_solver.json",
        {
            "unsat_core": {
                "smoke": SMOKE,
                "depth": depth,
                "constraints": len(constraints),
                "core_size": len(conflict.core),
                "ms": round(ms, 3),
            }
        },
    )
