"""The seed constraint solver, kept as a test oracle.

The production solver (:func:`repro.inference.solve`) condenses the
propagation graph into SCCs and runs the Kleene iteration in topological
component order.  This module keeps the original single global worklist,
so the property tests in ``tests/test_inference_solver.py`` can require
both schedules to reach the same least solution and conflict set, and
``tests/test_solver_scaling.py`` can count how many more pops the seed
schedule needs.  Not collected by pytest (no ``test_`` prefix).
"""

from __future__ import annotations

from typing import List, Set

from repro.inference.constraints import Constraint
from repro.inference.graph import PropagationGraph
from repro.inference.solve import InferenceError, Solution, _height_bound
from repro.inference.terms import evaluate
from repro.lattice.base import Lattice


def solve_worklist(lattice: Lattice, constraints: List[Constraint]) -> Solution:
    """The original single-worklist Kleene solver.

    Runs over the same deduplicated propagation edges as
    :func:`repro.inference.solve` but with one global LIFO worklist seeded
    with every edge, exactly as the seed solver scheduled it.
    """
    graph = PropagationGraph(lattice, constraints)
    assignment = graph.fresh_assignment()
    solution = Solution(lattice, assignment)
    solution.propagation_count = len(graph.edges)
    solution.check_count = len(graph.checks)

    pending: List[int] = list(range(len(graph.edges)))
    queued: Set[int] = set(pending)
    # Worklist Kleene iteration from ⊥.  Monotone + finite lattice =>
    # termination; the bound below only guards against a broken lattice.
    budget = (len(graph.edges) + 1) * (len(assignment) + 1) * _height_bound(lattice)
    while pending:
        index = pending.pop()
        queued.discard(index)
        solution.iterations += 1
        if solution.iterations > budget:
            raise InferenceError(
                "constraint solving did not converge; the lattice violates the "
                "ascending chain condition"
            )
        edge = graph.edges[index]
        value = evaluate(edge.lhs, lattice, assignment)
        if edge.cover is not None and lattice.leq(value, edge.cover):
            continue  # the join's constant part absorbs the flow
        current = assignment[edge.target]
        if not lattice.leq(value, current):
            assignment[edge.target] = lattice.join(current, value)
            for dependent in graph.dependents.get(edge.target, ()):  # re-examine
                if dependent not in queued:
                    queued.add(dependent)
                    pending.append(dependent)

    solution.conflicts = [
        conflict
        for conflict in graph.check_conflicts(assignment)
        if conflict is not None
    ]
    return solution
