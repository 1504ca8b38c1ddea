"""The inference pipeline: generate → solve → elaborate.

:func:`infer_labels` is the public entry point: a one-shot
:class:`~repro.workspace.session.Workspace`, whose
:meth:`~repro.workspace.session.Workspace.infer` is the one assembly of
an :class:`InferenceResult`.  That carries the solved per-slot assignment
(for reporting), the conflicts mapped back to source spans as
:class:`~repro.ifc.errors.IfcDiagnostic` values, and -- when the system is
satisfiable -- a fully annotated program ready for independent
re-verification by the stock checker.

:class:`Solver` is the one holder of solver state.  It builds the
propagation graph once, solves it, and after an edit re-solves only the
edit's cone of influence (:meth:`Solver.rebase`, with
:meth:`Solver.resolve` its pin-only case), which is what a warm workspace
and an IDE/LSP-style annotation assistant need.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, List, Mapping, Optional, Sequence, Set

from repro.ifc.errors import IfcDiagnostic
from repro.inference.constraints import Constraint
from repro.inference.generate import GenerationResult
from repro.inference.graph import PropagationGraph, SolverStats
from repro.inference.solve import InferenceConflict, Solution, solve
from repro.inference.terms import ConstTerm, LabelVar, VarTerm, evaluate, free_vars
from repro.lattice.base import Label, Lattice
from repro.syntax.program import Program
from repro.syntax.source import SourceSpan
from repro.telemetry.recorder import current_recorder


@dataclass(frozen=True, slots=True)
class InferredLabel:
    """One solved annotation slot, for reports and the CLI.

    ``text`` is the label's spelling and ``location`` the rendered span,
    both made once with the slot, so a report only reads them.
    """

    hint: str
    span: SourceSpan
    label: Label
    text: str
    location: str

    def describe(self, lattice: Lattice) -> str:
        location = "" if self.span.is_unknown() else f" ({self.location})"
        return f"{self.hint}: {lattice.format_label(self.label)}{location}"


@dataclass
class InferenceResult:
    """Outcome of constraint-based label inference over one program."""

    program: Program
    lattice: Lattice
    generation: GenerationResult
    solution: Solution
    #: Solved labels, one per annotation slot that received a variable,
    #: in slot-discovery order.
    inferred: List[InferredLabel] = field(default_factory=list)
    #: Label errors from generation plus conflicts from solving.
    diagnostics: List[IfcDiagnostic] = field(default_factory=list)
    #: The fully annotated program (best effort when there are conflicts).
    elaborated: Optional[Program] = None

    @property
    def ok(self) -> bool:
        return not self.diagnostics

    @property
    def constraint_count(self) -> int:
        return len(self.generation.constraints)

    @property
    def variable_count(self) -> int:
        return len(self.inferred) + len(self.generation.control_pc_vars)

    def assignment_by_hint(self) -> Dict[str, Label]:
        """The solved assignment keyed by slot description (for tests/JSON)."""
        return {site.hint: site.label for site in self.inferred}


def _maximise_control_pcs(
    lattice: Lattice,
    generation: GenerationResult,
    solution: Solution,
) -> Solution:
    """Re-solve with each ``@pc(infer)`` variable pushed as high as it goes.

    A control's pc only ever appears on constraint *left* sides (it lower
    bounds the writes the body performs), so the least solution would
    trivially report ⊥ for every program.  The informative answer is the
    *greatest* admissible pc -- admissible against the least labels of
    everything else: every non-pc slot is frozen at its least-solution
    value, so a raised pc never drags unconstrained slots upward (that
    would break ``infer_labels``' least-label contract).  With the slots
    frozen the answer is direct: a pc variable occurs only on constraint
    left sides, so its greatest admissible value is the meet of the
    right-hand sides of the constraints that mention it, evaluated under
    the least solution (⊤ when unconstrained).  One re-solve with the pc
    variables pinned there produces the reported solution; it cannot
    conflict by construction, but if it somehow does the least solution is
    returned unchanged.
    """
    candidates = {}
    # ``control_pc_vars`` pairs are walked through a set; sort by uid so the
    # pin-constraint order (and everything downstream of it) is stable
    # across runs regardless of PYTHONHASHSEED.
    pc_vars = sorted(
        {var for _control, var in generation.control_pc_vars}, key=lambda v: v.uid
    )
    for var in pc_vars:
        bounds = [
            evaluate(constraint.rhs, lattice, solution.assignment)
            for constraint in generation.constraints
            if var in free_vars(constraint.lhs)
        ]
        candidates[var] = lattice.meet_all(bounds)
    if all(lattice.equal(label, lattice.bottom) for label in candidates.values()):
        return solution
    freezes = [
        Constraint(
            VarTerm(site.var),
            ConstTerm(solution.value_of(site.var)),
            site.span,
            rule="@pc",
            reason=f"{site.hint} is frozen at its least label",
        )
        for site in generation.sites
    ]
    pins = [
        Constraint(
            ConstTerm(label),
            VarTerm(var),
            var.span,
            rule="@pc",
            reason=f"greatest admissible {var.hint}",
        )
        for var, label in candidates.items()
    ]
    boosted = solve(lattice, generation.constraints + freezes + pins)
    if not boosted.ok:
        return solution
    # Report the *user's* constraint system, not the internal augmented one
    # (whose freeze/pin constraints would inflate edge and check counts):
    # keep the primary solve's counters and structural stats, accumulating
    # the time this second solve took so solve_ms stays the total solver
    # share of infer.
    boosted.propagation_count = solution.propagation_count
    boosted.check_count = solution.check_count
    boosted.iterations = solution.iterations
    if solution.stats is not None and boosted.stats is not None:
        solution.stats.solve_ms += boosted.stats.solve_ms
        boosted.stats = solution.stats
    return boosted


class Solver:
    """The one holder of solver state for one constraint system.

    Construction builds the :class:`~repro.inference.graph.PropagationGraph`
    (normalisation, edge deduplication, SCC condensation).  :meth:`solve`
    produces the least solution, and every :class:`Solution` records the
    solver that made it, so a one-shot :func:`~repro.inference.solve.solve`
    hands its caller a solver to keep.  After an edit, :meth:`rebase` redoes
    only what the edit can change -- everything else keeps its converged
    value and its cached check verdicts.  This is the reasoning core an
    IDE-style annotation assistant needs: per-keystroke cost proportional
    to what the keystroke can change, not to the program.  An edit swaps
    some of the system's per-unit buckets for others (the graph is patched
    in place by :meth:`~repro.inference.graph.PropagationGraph.patch`),
    changes the *pins*, or both.  A pin ``slot: label`` makes ``label`` a
    floor of ``slot`` (as if the user wrote the annotation);
    :meth:`resolve` is the pin-only edit.

    The graph is shared with the solutions this solver returns, so a
    solution's ``graph`` describes the solver's latest system.
    """

    def __init__(
        self,
        lattice: Lattice,
        constraints: Sequence[Constraint] = (),
        *,
        buckets: Optional[Sequence[Sequence[Constraint]]] = None,
    ) -> None:
        self.lattice = lattice
        self.graph = PropagationGraph(lattice, constraints, buckets=buckets)
        self._pins: Dict[LabelVar, Label] = {}
        self._assignment: Optional[Dict[LabelVar, Label]] = None
        #: Cached per-check verdicts, aligned with ``graph.checks``.
        self._check_results: List[Optional[InferenceConflict]] = []
        #: What the last solve or re-solve did.
        self._stats: Optional[SolverStats] = None

    @property
    def pins(self) -> Dict[LabelVar, Label]:
        """The currently pinned slot labels (a copy)."""
        return dict(self._pins)

    def solve(self) -> Solution:
        """The least solution above the current pins (solved once)."""
        if self._assignment is None:
            graph = self.graph
            recorder = current_recorder()
            start = time.perf_counter()
            with recorder.span(
                "solver.solve", edges=len(graph.edges), variables=graph.variable_count
            ):
                stats = graph._new_stats()
                self._assignment = graph.fresh_assignment(self._pins)
                graph.propagate(self._assignment, stats)
                self._check_results = graph.check_conflicts(self._assignment)
            stats.solve_ms = (time.perf_counter() - start) * 1000.0
            self._stats = stats
            if recorder.enabled:
                recorder.count("solver.solves")
                recorder.count("solver.edges_visited", stats.edges_visited)
                recorder.count("solver.worklist_pops", stats.worklist_pops)
                recorder.count(
                    "solver.conflicts",
                    sum(verdict is not None for verdict in self._check_results),
                )
        return self._snapshot()

    def resolve(
        self, changes: Mapping[LabelVar, Optional[Label]]
    ) -> Solution:
        """Re-solve after editing the given label slots' pins.

        ``changes`` maps each edited slot to its new pinned label (``None``
        removes the pin); the other pins stay.  This is :meth:`rebase` over
        the current system, so only the cone of influence of the slots
        whose pin changed is re-solved, and the result is identical to a
        from-scratch solve with the updated pins.
        """
        pins = dict(self._pins)
        for var, label in changes.items():
            if label is None:
                pins.pop(var, None)
            else:
                pins[var] = label
        return self.rebase(self.graph.buckets, pins=pins)

    def rebase(
        self,
        buckets: Sequence[Sequence[Constraint]],
        *,
        pins: Optional[Mapping[LabelVar, Label]] = None,
    ) -> Solution:
        """Re-anchor the solver on an edited constraint system.

        ``buckets`` is the new system, one constraint sequence per unit in
        unit order, and a unit that changed (a workspace re-generated it)
        comes as a new sequence.  The graph is patched by bucket identity:
        the dropped buckets' edges and checks leave it, only the added
        buckets' constraints are normalised, and only the region whose
        components can have changed is re-condensed
        (:meth:`~repro.inference.graph.PropagationGraph.patch`; the same
        buckets patch nothing).  Then only the cone of influence of what
        changed is re-solved:

        * seeds are that region -- the forward closure of the targets of
          edges that appeared or vanished and of variables new to the
          system -- and the variables whose pin changed;
        * every surviving variable outside the cone keeps its converged
          value -- correct because a variable none of whose in-edges
          changed, and none of whose sources changed value, is still at
          its least fixpoint (a changed source would put it in the
          forward closure);
        * check verdicts migrate with their buckets: a check that passed
          and whose variables lie outside the cone keeps its verdict;
          new and cone-touching checks are re-evaluated, and so are the
          failing ones when a bucket was swapped (conflicts embed
          provenance and cores, which must reflect the new system).

        ``pins`` replaces the pin set wholesale (the workspace re-keys
        pins across re-allocated slot variables); ``None`` keeps the
        current pins.  Removing a pin restores the inferred least solution
        for that slot.  Before any solve, this is a full solve.

        The solution's ``moved`` holds the variables whose value differs
        from the previous solution's.  Only the cone, the variables that
        left the system and those whose pin changed can differ, so only
        they are compared.
        """
        recorder = current_recorder()
        start = time.perf_counter()
        graph = self.graph
        old_pins = self._pins
        new_pins = dict(pins) if pins is not None else dict(old_pins)
        patch = graph.patch(buckets)
        self._pins = new_pins
        if self._assignment is None:
            return self.solve()
        # Solutions share the assignment they were given: re-solve a copy.
        previous = self._assignment
        assignment = self._assignment = dict(previous)
        component_of = graph.component_of
        pinned = old_pins.keys() | new_pins.keys()
        changed_pins = []
        for var in pinned:
            before, after = old_pins.get(var), new_pins.get(var)
            if (before is None) != (after is None) or (
                before is not None and not self.lattice.equal(before, after)
            ):
                changed_pins.append(var)
        cone = graph.cone_of(changed_pins)
        cone |= patch.region
        components = {component_of[var] for var in cone}
        with recorder.span(
            "solver.rebase",
            edges_added=patch.edges_added,
            edges_removed=patch.edges_removed,
            cone=len(cone),
            components=len(components),
        ):
            stats = graph._new_stats()
            for var in patch.removed_vars:
                assignment.pop(var, None)
            self._reset(cone)
            if components:
                graph.propagate(assignment, stats, components)
            # Pinned slots outside the graph carry just their pin.
            for var in pinned:
                if var not in component_of:
                    label = new_pins.get(var)
                    if label is None:
                        assignment.pop(var, None)
                    else:
                        assignment[var] = label
            old_results = self._check_results
            results: List[Optional[InferenceConflict]] = [None] * len(graph.checks)
            for new_offset, old_offset, count in patch.check_moves:
                results[new_offset : new_offset + count] = old_results[
                    old_offset : old_offset + count
                ]
            affected = set(patch.fresh_checks)
            if patch.units_patched:
                affected.update(
                    index for index, verdict in enumerate(results) if verdict is not None
                )
            affected.update(graph.checks_touching(cone))
            ordered = sorted(affected)
            for index, verdict in zip(ordered, graph.check_conflicts(assignment, ordered)):
                results[index] = verdict
            self._check_results = results
            bottom = self.lattice.bottom
            moved = {
                var
                for var in chain(cone, patch.removed_vars, changed_pins)
                if previous.get(var, bottom) != assignment.get(var, bottom)
            }
        stats.solve_ms = (time.perf_counter() - start) * 1000.0
        self._stats = stats
        if recorder.enabled:
            recorder.count("solver.rebase.calls")
            recorder.count("solver.rebase.units_patched", patch.units_patched)
            recorder.count(
                "solver.rebase.constraints_normalised", patch.constraints_normalised
            )
            recorder.count("solver.rebase.vars_recondensed", len(patch.region))
            recorder.count("solver.rebase.edges_added", patch.edges_added)
            recorder.count("solver.rebase.edges_removed", patch.edges_removed)
            recorder.count("solver.rebase.cone_vars", len(cone))
            recorder.count(
                "solver.rebase.vars_reused", graph.variable_count - len(cone)
            )
            recorder.count("solver.rebase.checks_reevaluated", len(ordered))
            recorder.count(
                "solver.rebase.checks_cached", len(results) - len(ordered)
            )
            recorder.count("solver.rebase.vars_moved", len(moved))
        return self._snapshot(moved)

    def _reset(self, cone) -> None:
        """Every variable of ``cone`` back to ``⊥``, or to its pin."""
        assignment = self._assignment
        bottom = self.lattice.bottom
        pins = self._pins
        for var in cone:
            pin = pins.get(var)
            assignment[var] = bottom if pin is None else pin

    def _snapshot(self, moved: Optional[Set[LabelVar]] = None) -> Solution:
        stats = self._stats
        return Solution(
            self.lattice,
            self._assignment,
            [c for c in self._check_results if c is not None],
            iterations=stats.worklist_pops,
            propagation_count=len(self.graph.edges),
            check_count=len(self.graph.checks),
            stats=stats,
            solver=self,
            moved=moved,
        )


def infer_labels(
    program: Program,
    lattice: Optional[Lattice] = None,
    *,
    allow_declassification: bool = False,
) -> InferenceResult:
    """Infer a least label assignment for ``program`` under ``lattice``.

    The returned assignment is point-wise smallest among all assignments
    satisfying the Figure 5–7 side conditions (missing annotations default
    as low as the flows permit).  The one exception is ``@pc(infer)``
    control annotations, which are solved to the *greatest* pc admissible
    against that least assignment (the least pc would always be the
    uninformative ⊥).  When no assignment exists, the conflicts
    are reported as diagnostics whose spans and unsatisfiable cores point at
    the source constructs that clash.
    """
    # The workspace imports this module; a throwaway one is the cold path.
    from repro.workspace.session import Workspace

    workspace = Workspace(lattice, allow_declassification=allow_declassification)
    workspace.open_program(program)
    return workspace.infer()
