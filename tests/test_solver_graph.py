"""Unit tests for the propagation-graph subsystem and the incremental Solver.

Covers the tentpole pieces directly: edge deduplication with provenance,
Tarjan SCC condensation in topological order, cone-of-influence queries,
single-pass scheduling of acyclic regions, and ``Solver.resolve`` -- the
cone-restricted incremental re-solve whose results must be
indistinguishable from a from-scratch solve.
"""

from __future__ import annotations

from repro.ifc.errors import ViolationKind
from repro.inference import (
    Constraint,
    ConstTerm,
    JoinTerm,
    PropagationGraph,
    Solver,
    VarSupply,
    VarTerm,
    solve,
)
from repro.lattice.registry import get_lattice


def _chain(lattice, supply, names):
    """Variables v0..vn with edges v0 → v1 → ... → vn."""
    variables = [supply.fresh(name) for name in names]
    constraints = [
        Constraint(VarTerm(a), VarTerm(b))
        for a, b in zip(variables, variables[1:])
    ]
    return variables, constraints


class TestGraphStructure:
    def test_edges_dedupe_by_shape_keep_provenance(self):
        lattice = get_lattice("two-point")
        supply = VarSupply()
        a, b = supply.fresh("a"), supply.fresh("b")
        first = Constraint(VarTerm(a), VarTerm(b), rule="T-Assign")
        # A repeated use site: same shape, different provenance.
        second = Constraint(VarTerm(a), VarTerm(b), rule="T-TblDecl")
        graph = PropagationGraph(lattice, [first, second])
        assert len(graph.edges) == 1
        assert graph.edges[0].constraints == (first, second)

    def test_dedupe_does_not_inflate_propagation_count(self):
        lattice = get_lattice("two-point")
        supply = VarSupply()
        a, b = supply.fresh("a"), supply.fresh("b")
        repeated = [
            Constraint(VarTerm(a), VarTerm(b), rule=f"use-{i}") for i in range(5)
        ]
        solution = solve(lattice, repeated)
        assert solution.propagation_count == 1

    def test_distinct_covers_stay_distinct_edges(self):
        lattice = get_lattice("diamond")
        supply = VarSupply()
        a, b = supply.fresh("a"), supply.fresh("b")
        low_cover = Constraint(
            VarTerm(a), JoinTerm((VarTerm(b), ConstTerm("A")))
        )
        high_cover = Constraint(
            VarTerm(a), JoinTerm((VarTerm(b), ConstTerm("B")))
        )
        graph = PropagationGraph(lattice, [low_cover, high_cover])
        assert len(graph.edges) == 2

    def test_components_in_topological_order(self):
        lattice = get_lattice("two-point")
        supply = VarSupply()
        variables, constraints = _chain(lattice, supply, ["a", "b", "c", "d"])
        graph = PropagationGraph(lattice, constraints)
        positions = [graph.component_of[var] for var in variables]
        assert positions == sorted(positions)
        assert len(graph.components) == len(variables)
        assert graph.cyclic_component_count == 0

    def test_cycle_collapses_into_one_component(self):
        lattice = get_lattice("two-point")
        supply = VarSupply()
        a, b, c, d = (supply.fresh(n) for n in "abcd")
        constraints = [
            Constraint(VarTerm(a), VarTerm(b)),
            Constraint(VarTerm(b), VarTerm(c)),
            Constraint(VarTerm(c), VarTerm(b)),  # b <-> c cycle
            Constraint(VarTerm(c), VarTerm(d)),
        ]
        graph = PropagationGraph(lattice, constraints)
        assert graph.component_of[b] == graph.component_of[c]
        assert graph.component_of[a] < graph.component_of[b]
        assert graph.component_of[c] < graph.component_of[d]
        assert graph.cyclic_component_count == 1
        assert graph.largest_component == 2

    def test_self_loop_marks_component_cyclic(self):
        lattice = get_lattice("two-point")
        supply = VarSupply()
        a, b = supply.fresh("a"), supply.fresh("b")
        constraints = [
            Constraint(JoinTerm((VarTerm(a), VarTerm(b))), VarTerm(b)),
        ]
        graph = PropagationGraph(lattice, constraints)
        assert graph.cyclic_component_count == 1

    def test_cone_of_influence_is_forward_closure(self):
        lattice = get_lattice("two-point")
        supply = VarSupply()
        variables, constraints = _chain(
            lattice, supply, ["a", "b", "c", "d", "e"]
        )
        a, b, c, d, e = variables
        other = supply.fresh("other")
        constraints.append(Constraint(VarTerm(other), VarTerm(e)))
        graph = PropagationGraph(lattice, constraints)
        assert graph.cone_of([c]) == {c, d, e}
        assert graph.cone_of([other]) == {other, e}
        assert graph.cone_of([e]) == {e}

    def test_cone_includes_whole_cycles(self):
        lattice = get_lattice("two-point")
        supply = VarSupply()
        a, b, c = (supply.fresh(n) for n in "abc")
        constraints = [
            Constraint(VarTerm(a), VarTerm(b)),
            Constraint(VarTerm(b), VarTerm(c)),
            Constraint(VarTerm(c), VarTerm(b)),
        ]
        graph = PropagationGraph(lattice, constraints)
        assert graph.cone_of([a]) == {a, b, c}

    def test_edges_visited_counts_distinct_edges_not_pops(self):
        lattice = get_lattice("two-point")
        supply = VarSupply()
        a, b, c = (supply.fresh(n) for n in "abc")
        constraints = [
            Constraint(ConstTerm("high"), VarTerm(a)),
            Constraint(VarTerm(a), VarTerm(b)),
            Constraint(VarTerm(b), VarTerm(c)),
            Constraint(VarTerm(c), VarTerm(b)),  # cycle forces a second pass
        ]
        solution = solve(lattice, constraints)
        assert solution.stats.edges_visited == len(constraints)
        assert solution.stats.worklist_pops > solution.stats.edges_visited

    def test_acyclic_solve_is_single_pass(self):
        lattice = get_lattice("two-point")
        supply = VarSupply()
        variables, constraints = _chain(
            lattice, supply, [f"v{i}" for i in range(20)]
        )
        constraints.insert(
            0, Constraint(ConstTerm("high"), VarTerm(variables[0]))
        )
        solution = solve(lattice, constraints)
        assert solution.stats.max_passes == 1
        assert solution.iterations == len(constraints)
        assert solution.value_of(variables[-1]) == "high"


class TestSolverResolve:
    def _chain_solver(self, lattice, length=8):
        supply = VarSupply()
        variables = [supply.fresh(f"v{i}") for i in range(length)]
        constraints = [
            Constraint(VarTerm(a), VarTerm(b))
            for a, b in zip(variables, variables[1:])
        ]
        return variables, constraints, Solver(lattice, constraints)

    def test_resolve_matches_scratch_solve(self):
        lattice = get_lattice("diamond")
        variables, constraints, solver = self._chain_solver(lattice)
        solver.solve()
        edited = variables[3]
        incremental = solver.resolve({edited: "A"})
        scratch = solve(
            lattice, constraints + [Constraint(ConstTerm("A"), VarTerm(edited))]
        )
        for var in variables:
            assert lattice.equal(
                incremental.value_of(var), scratch.value_of(var)
            )

    def test_resolve_visits_only_the_cone(self):
        lattice = get_lattice("two-point")
        variables, _constraints, solver = self._chain_solver(lattice, length=10)
        solver.solve()
        incremental = solver.resolve({variables[7]: "high"})
        # Cone of v7 = {v7, v8, v9}; one in-edge each for v7..v9.
        assert incremental.stats.edges_visited == 3
        assert incremental.value_of(variables[9]) == "high"
        assert incremental.value_of(variables[6]) == "low"

    def test_resolve_lowers_when_a_pin_is_removed(self):
        lattice = get_lattice("diamond")
        variables, _constraints, solver = self._chain_solver(lattice)
        solver.resolve({variables[0]: "B"})
        assert solver.solve().value_of(variables[-1]) == "B"
        lowered = solver.resolve({variables[0]: None})
        for var in variables:
            assert lattice.equal(lowered.value_of(var), lattice.bottom)

    def test_resolve_replacing_a_pin_recomputes_downstream(self):
        lattice = get_lattice("diamond")
        variables, _constraints, solver = self._chain_solver(lattice)
        solver.resolve({variables[2]: "A"})
        switched = solver.resolve({variables[2]: "B"})
        # Not joined with the old pin: the edit *replaces* it.
        assert switched.value_of(variables[-1]) == "B"

    def test_resolve_updates_conflicts_in_the_cone(self):
        lattice = get_lattice("two-point")
        supply = VarSupply()
        a, b = supply.fresh("a"), supply.fresh("b")
        constraints = [
            Constraint(VarTerm(a), VarTerm(b)),
            Constraint(
                VarTerm(b),
                ConstTerm("low"),
                rule="T-Assign",
                kind=ViolationKind.EXPLICIT_FLOW,
            ),
        ]
        solver = Solver(lattice, constraints)
        assert solver.solve().ok
        broken = solver.resolve({a: "high"})
        assert not broken.ok
        (conflict,) = broken.conflicts
        assert conflict.observed == "high"
        fixed = solver.resolve({a: None})
        assert fixed.ok

    def test_resolve_keeps_cached_conflicts_outside_the_cone(self):
        lattice = get_lattice("two-point")
        supply = VarSupply()
        a, b = supply.fresh("a"), supply.fresh("b")
        constraints = [
            # A standing conflict on `a`, untouched by edits to `b`.
            Constraint(ConstTerm("high"), VarTerm(a)),
            Constraint(VarTerm(a), ConstTerm("low")),
            Constraint(ConstTerm("low"), VarTerm(b)),
        ]
        solver = Solver(lattice, constraints)
        assert len(solver.solve().conflicts) == 1
        after = solver.resolve({b: "high"})
        assert len(after.conflicts) == 1
        assert after.conflicts[0].observed == "high"

    def test_resolve_in_a_cycle_converges_both_ways(self):
        lattice = get_lattice("two-point")
        supply = VarSupply()
        a, b, c = (supply.fresh(n) for n in "abc")
        constraints = [
            Constraint(VarTerm(a), VarTerm(b)),
            Constraint(VarTerm(b), VarTerm(c)),
            Constraint(VarTerm(c), VarTerm(a)),
        ]
        solver = Solver(lattice, constraints)
        raised = solver.resolve({b: "high"})
        assert all(raised.value_of(v) == "high" for v in (a, b, c))
        lowered = solver.resolve({b: None})
        assert all(lowered.value_of(v) == "low" for v in (a, b, c))

    def test_resolve_before_solve_is_a_full_solve(self):
        lattice = get_lattice("two-point")
        variables, _constraints, solver = self._chain_solver(lattice)
        solution = solver.resolve({variables[0]: "high"})
        assert solution.value_of(variables[-1]) == "high"

    def test_resolve_on_unconstrained_slot(self):
        lattice = get_lattice("two-point")
        supply = VarSupply()
        a, b = supply.fresh("a"), supply.fresh("b")
        lonely = supply.fresh("lonely")
        solver = Solver(lattice, [Constraint(VarTerm(a), VarTerm(b))])
        solver.solve()
        pinned = solver.resolve({lonely: "high"})
        assert pinned.value_of(lonely) == "high"
        cleared = solver.resolve({lonely: None})
        assert cleared.value_of(lonely) == lattice.bottom

    def test_pins_accessor_returns_a_copy(self):
        lattice = get_lattice("two-point")
        variables, _constraints, solver = self._chain_solver(lattice)
        solver.resolve({variables[0]: "high"})
        pins = solver.pins
        pins.clear()
        assert solver.pins == {variables[0]: "high"}


class TestSolverRebase:
    """`Solver.rebase`: swap the constraint system under a warm solver and
    re-solve only what the edit can influence."""

    def _chain(self, lattice, length=8):
        supply = VarSupply()
        variables = [supply.fresh(f"v{i}") for i in range(length)]
        constraints = [
            Constraint(VarTerm(a), VarTerm(b))
            for a, b in zip(variables, variables[1:])
        ]
        return variables, constraints

    def test_rebase_matches_scratch_solve(self):
        lattice = get_lattice("diamond")
        variables, constraints = self._chain(lattice)
        solver = Solver(lattice, constraints)
        solver.solve()
        # Edit: a new source feeding the middle of the chain.
        edited = constraints + [Constraint(ConstTerm("A"), VarTerm(variables[4]))]
        warm = solver.rebase([edited])
        scratch = solve(lattice, edited)
        for var in variables:
            assert lattice.equal(warm.value_of(var), scratch.value_of(var))

    def test_rebase_removing_constraints_lowers(self):
        lattice = get_lattice("two-point")
        variables, constraints = self._chain(lattice, length=5)
        seeded = [Constraint(ConstTerm("high"), VarTerm(variables[0]))] + constraints
        solver = Solver(lattice, seeded)
        assert solver.solve().value_of(variables[-1]) == "high"
        # Drop the source constraint: everything must fall back to bottom.
        lowered = solver.rebase([constraints])
        for var in variables:
            assert lowered.value_of(var) == "low"

    def test_rebase_reuses_untouched_regions(self):
        lattice = get_lattice("two-point")
        supply = VarSupply()
        left = [supply.fresh(f"l{i}") for i in range(6)]
        right = [supply.fresh(f"r{i}") for i in range(6)]
        chain = lambda vs: [
            Constraint(VarTerm(a), VarTerm(b)) for a, b in zip(vs, vs[1:])
        ]
        base = chain(left) + chain(right)
        solver = Solver(lattice, base)
        solver.solve()
        edited = base + [Constraint(ConstTerm("high"), VarTerm(right[0]))]
        warm = solver.rebase([edited])
        # Only the right chain is in the cone; the left chain's edges are
        # never revisited.
        assert warm.stats.edges_visited <= len(chain(right)) + 1
        assert warm.value_of(right[-1]) == "high"
        assert warm.value_of(left[-1]) == "low"

    def test_rebase_pin_addition_and_removal_are_symmetric(self):
        lattice = get_lattice("diamond")
        variables, constraints = self._chain(lattice)
        solver = Solver(lattice, constraints)
        baseline = solver.solve()
        pinned = solver.rebase([constraints], pins={variables[2]: "B"})
        assert pinned.value_of(variables[-1]) == "B"
        # Removing the pin through a rebase restores the least solution.
        unpinned = solver.rebase([constraints], pins={})
        for var in variables:
            assert lattice.equal(
                unpinned.value_of(var), baseline.value_of(var)
            )

    def test_rebase_migrates_pins_across_edits(self):
        lattice = get_lattice("two-point")
        variables, constraints = self._chain(lattice, length=6)
        solver = Solver(lattice, constraints)
        solver.rebase([constraints], pins={variables[0]: "high"})
        edited = constraints + [
            Constraint(VarTerm(variables[-1]), ConstTerm("low"), rule="T-Assign")
        ]
        warm = solver.rebase([edited], pins={variables[0]: "high"})
        scratch_solver = Solver(lattice, edited)
        scratch = scratch_solver.resolve({variables[0]: "high"})
        assert warm.ok == scratch.ok
        assert len(warm.conflicts) == len(scratch.conflicts) == 1

    def test_one_shot_solver_then_rebase_continues_warm(self):
        lattice = get_lattice("two-point")
        variables, constraints = self._chain(lattice, length=6)
        solver = solve(lattice, constraints).solver
        edited = constraints + [Constraint(ConstTerm("high"), VarTerm(variables[3]))]
        warm = solver.rebase([edited])
        scratch = solve(lattice, edited)
        for var in variables:
            assert lattice.equal(warm.value_of(var), scratch.value_of(var))
        # The one-shot solve's state was reused: only v3's cone was
        # revisited (in-edges of v3..v5: const→v3, v2→v3, v3→v4, v4→v5),
        # never the whole system.
        assert warm.stats.edges_visited == 4
        assert warm.stats.edges_visited < warm.stats.edge_count
