"""The inference pipeline: generate → solve → elaborate.

:func:`infer_labels` is the public entry point.  It produces an
:class:`InferenceResult` carrying the solved per-slot assignment (for
reporting), the conflicts mapped back to source spans as
:class:`~repro.ifc.errors.IfcDiagnostic` values, and -- when the system is
satisfiable -- a fully annotated program ready for independent
re-verification by the stock checker.

:class:`Solver` is the persistent counterpart for interactive use (an
IDE/LSP-style annotation assistant): it builds the propagation graph once;
after an annotation edit :meth:`Solver.resolve`, and after a code edit
:meth:`Solver.rebase` (which patches the graph per unit), recompute only
the edit's cone of influence instead of restarting from scratch.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from repro.ifc.errors import IfcDiagnostic
from repro.inference.constraints import Constraint
from repro.inference.elaborate import elaborate_program
from repro.inference.generate import GenerationResult, generate_constraints
from repro.inference.graph import PropagationGraph
from repro.inference.solve import InferenceConflict, Solution, solve
from repro.inference.terms import ConstTerm, LabelVar, VarTerm, evaluate, free_vars
from repro.lattice.base import Label, Lattice
from repro.lattice.two_point import TwoPointLattice
from repro.syntax.program import Program
from repro.syntax.source import SourceSpan
from repro.telemetry.recorder import current_recorder


@dataclass(frozen=True)
class InferredLabel:
    """One solved annotation slot, for reports and the CLI."""

    hint: str
    span: SourceSpan
    label: Label

    def describe(self, lattice: Lattice) -> str:
        location = "" if self.span.is_unknown() else f" ({self.span})"
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
    """A persistent solver over one constraint system.

    Construction builds the :class:`~repro.inference.graph.PropagationGraph`
    (normalisation, edge deduplication, SCC condensation), or takes over
    one already built over the system.  :meth:`solve` produces the least
    solution; after an edit, only what the edit can change is redone --
    everything else keeps its converged value and its cached check
    verdicts.  This is the reasoning core an IDE-style annotation
    assistant needs: per-keystroke cost proportional to what the
    keystroke can change, not to the program.  Two kinds of edit:

    * *pins* (:meth:`resolve`): ``resolve({slot: label})`` makes ``label``
      a floor of ``slot`` (as if the user wrote the annotation), and
      ``resolve({slot: None})`` removes the pin again.  Both raising and
      lowering are supported; the cone is reset to ``⊥`` (plus pins) and
      the SCC schedule is replayed over the cone's components only, which
      yields exactly the assignment a from-scratch solve with the same
      pins would;
    * *structural* edits (:meth:`rebase`): the system, held as per-unit
      buckets, swaps some buckets for others.  The graph is patched in
      place (:meth:`~repro.inference.graph.PropagationGraph.patch`) and
      the cone of what changed is re-solved.

    The graph is shared with the solutions this solver returns, so a
    solution's ``graph`` describes the solver's latest system.
    """

    def __init__(
        self,
        lattice: Lattice,
        constraints: Sequence[Constraint] = (),
        *,
        buckets: Optional[Sequence[Sequence[Constraint]]] = None,
        graph: Optional[PropagationGraph] = None,
    ) -> None:
        self.lattice = lattice
        #: ``graph`` lets a caller that already built the propagation graph
        #: over exactly this system (e.g. a workspace adopting a cold
        #: solution) hand it over instead of paying a second construction.
        self.graph = graph or PropagationGraph(lattice, constraints, buckets=buckets)
        self._pins: Dict[LabelVar, Label] = {}
        self._assignment: Optional[Dict[LabelVar, Label]] = None
        #: Cached per-check verdicts, aligned with ``graph.checks``.
        self._check_results: List[Optional[InferenceConflict]] = []
        self._solution: Optional[Solution] = None

    @property
    def pins(self) -> Dict[LabelVar, Label]:
        """The currently pinned slot labels (a copy)."""
        return dict(self._pins)

    def solve(self) -> Solution:
        """The least solution above the current pins (cached)."""
        if self._solution is None:
            recorder = current_recorder()
            start = time.perf_counter()
            with recorder.span(
                "solver.solve",
                edges=len(self.graph.edges),
                variables=self.graph.variable_count,
                persistent=True,
            ):
                stats = self.graph._new_stats()
                self._assignment = self.graph.fresh_assignment(self._pins)
                self.graph.propagate(self._assignment, stats)
                self._check_results = self.graph.check_conflicts(self._assignment)
            stats.solve_ms = (time.perf_counter() - start) * 1000.0
            self._solution = self._snapshot(stats)
        return self._solution

    def resolve(
        self, changes: Mapping[LabelVar, Optional[Label]]
    ) -> Solution:
        """Incrementally re-solve after editing the given label slots.

        ``changes`` maps each edited slot to its new pinned label (``None``
        removes the pin).  Only the forward closure (cone of influence) of
        the edited slots is reset and re-propagated; checks outside the
        cone keep their cached verdicts.  The result is identical to a
        from-scratch :meth:`solve` with the updated pins.
        """
        if self._assignment is None:
            for var, label in changes.items():
                self._apply_pin(var, label)
            return self.solve()
        recorder = current_recorder()
        start = time.perf_counter()
        for var, label in changes.items():
            self._apply_pin(var, label)
        graph = self.graph
        cone = graph.cone_of(changes)
        components = {graph.component_of[var] for var in cone}
        with recorder.span(
            "solver.resolve",
            edited=len(changes),
            cone=len(cone),
            components=len(components),
        ):
            stats = graph._new_stats()
            # Reset the cone to ⊥ (plus pins) and replay the schedule over its
            # components; an SCC is entirely inside or outside the cone, so the
            # restricted schedule sees exactly the edges it must revisit.
            self._reset(cone)
            graph.propagate(self._assignment, stats, components)
            # Slots outside the graph (never constrained) still surface edits.
            for var, label in changes.items():
                if var not in graph.component_of:
                    if label is None:
                        self._assignment.pop(var, None)
                    else:
                        self._assignment[var] = label
            affected = graph.checks_touching(cone)
            for index, verdict in zip(
                affected, graph.check_conflicts(self._assignment, affected)
            ):
                self._check_results[index] = verdict
        stats.solve_ms = (time.perf_counter() - start) * 1000.0
        if recorder.enabled:
            # Cache accounting: how much of the graph the edit did *not*
            # have to revisit -- the quantity that makes the incremental
            # path worth having.
            recorder.count("solver.resolve.calls")
            recorder.count("solver.resolve.cone_vars", len(cone))
            recorder.count(
                "solver.resolve.vars_reused", graph.variable_count - len(cone)
            )
            recorder.count(
                "solver.resolve.edges_skipped",
                len(graph.edges) - stats.edges_visited,
            )
            recorder.count("solver.resolve.checks_reevaluated", len(affected))
            recorder.count(
                "solver.resolve.checks_cached",
                len(self._check_results) - len(affected),
            )
        self._solution = self._snapshot(stats)
        return self._solution

    def adopt(self, solution: Solution) -> None:
        """Seed the persistent state from an externally computed solution.

        Used by a workspace whose *initial* solve was the one-shot
        :func:`~repro.inference.solve.solve`: the assignment is taken
        over, the per-check verdicts are re-derived against this solver's
        graph (so they are aligned for incremental updates), and
        ``solution`` becomes the cached result.  Only valid before any
        pin has been applied.
        """
        if self._pins:
            raise ValueError("adopt() requires a pristine solver (no pins)")
        self._assignment = dict(solution.assignment)
        for var in self.graph.variables:
            self._assignment.setdefault(var, self.lattice.bottom)
        self._check_results = self.graph.check_conflicts(self._assignment)
        self._solution = solution

    def rebase(
        self,
        buckets: Sequence[Sequence[Constraint]],
        *,
        pins: Optional[Mapping[LabelVar, Label]] = None,
    ) -> Solution:
        """Re-anchor the solver on an edited constraint system.

        Where :meth:`resolve` handles *pin* edits over a fixed system,
        ``rebase`` handles *structural* edits: ``buckets`` is the new
        system, one constraint sequence per unit in unit order, and a
        unit that changed (a workspace re-generated it) comes as a new
        sequence.  The graph is patched by bucket identity: the dropped
        buckets' edges and checks leave it, only the added buckets'
        constraints are normalised, and only the region whose components
        can have changed is re-condensed
        (:meth:`~repro.inference.graph.PropagationGraph.patch`).  Then only
        the cone of influence of what changed is re-solved:

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
          failing, new and cone-touching checks are re-evaluated
          (conflicts embed provenance and cores, which must reflect the
          new system).

        ``pins`` optionally replaces the pin set wholesale (the workspace
        re-keys pins across re-allocated slot variables); ``None`` keeps
        the current pins.  Removing a pin this way restores the inferred
        least solution for that slot, exactly as ``resolve({slot: None})``
        does over a fixed system.
        """
        recorder = current_recorder()
        start = time.perf_counter()
        graph = self.graph
        old_pins = self._pins
        new_pins = dict(pins) if pins is not None else dict(old_pins)
        patch = graph.patch(buckets)
        self._pins = new_pins
        if self._assignment is None:
            self._check_results = []
            self._solution = None
            return self.solve()
        assignment = self._assignment
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
            affected.update(
                index for index, verdict in enumerate(results) if verdict is not None
            )
            affected.update(graph.checks_touching(cone))
            ordered = sorted(affected)
            for index, verdict in zip(ordered, graph.check_conflicts(assignment, ordered)):
                results[index] = verdict
            self._check_results = results
        stats.solve_ms = (time.perf_counter() - start) * 1000.0
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
        self._solution = self._snapshot(stats)
        return self._solution

    def _reset(self, cone) -> None:
        """Every variable of ``cone`` back to ``⊥``, or to its pin."""
        assignment = self._assignment
        bottom = self.lattice.bottom
        pins = self._pins
        for var in cone:
            pin = pins.get(var)
            assignment[var] = bottom if pin is None else pin

    def _apply_pin(self, var: LabelVar, label: Optional[Label]) -> None:
        if label is None:
            self._pins.pop(var, None)
        else:
            self._pins[var] = label

    def _snapshot(self, stats) -> Solution:
        solution = Solution(
            self.lattice,
            dict(self._assignment or {}),
            [c for c in self._check_results if c is not None],
            iterations=stats.worklist_pops,
            propagation_count=len(self.graph.edges),
            check_count=len(self.graph.checks),
        )
        solution.stats = stats
        solution.graph = self.graph
        return solution


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
    resolved = lattice or TwoPointLattice()
    recorder = current_recorder()
    with recorder.span("infer.generate") as generate_span:
        generation = generate_constraints(
            program, resolved, allow_declassification=allow_declassification
        )
    if recorder.enabled:
        generate_span.attrs["constraints"] = len(generation.constraints)
        generate_span.attrs["slots"] = len(generation.sites)
        recorder.count("infer.runs")
        recorder.count("infer.constraints_generated", len(generation.constraints))
        recorder.count("infer.slots", len(generation.sites))
    solution = solve(resolved, generation.constraints)
    if solution.ok and generation.control_pc_vars:
        with recorder.span("infer.maximise-pc", pcs=len(generation.control_pc_vars)):
            solution = _maximise_control_pcs(resolved, generation, solution)
    inferred = [
        InferredLabel(
            site.hint,
            site.span,
            # Augmentation slots sit on top of a declared floor: report the
            # effective label, not the bare variable's (often ⊥) value.
            solution.value_of(site.var)
            if site.floor is None
            else resolved.join(solution.value_of(site.var), site.floor),
        )
        for site in generation.sites
    ]
    diagnostics = list(generation.errors)
    diagnostics.extend(
        conflict.as_diagnostic(resolved) for conflict in solution.conflicts
    )
    with recorder.span("infer.elaborate"):
        elaborated = elaborate_program(generation, solution)
    return InferenceResult(
        program,
        resolved,
        generation,
        solution,
        inferred,
        diagnostics,
        elaborated,
    )
