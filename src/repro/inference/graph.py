"""The propagation-graph subsystem behind the constraint solver.

The seed solver normalised constraints into a flat edge list and ran one
global Kleene worklist over it.  That is fine at case-study size but wastes
work at scale: edges are revisited in arbitrary order, acyclic regions are
re-examined long after they have converged, and nothing is reusable between
solves.  This module makes the propagation structure explicit:

* :class:`PropagationEdge` -- one *deduplicated* edge ``lhs → target``
  (with the optional join *cover*), carrying every constraint that gave
  rise to it so unsat cores keep full provenance;
* :class:`PropagationGraph` -- edges, checks and the variable-level
  adjacency built **once** from a constraint list, condensed into strongly
  connected components with Tarjan's algorithm;
* SCC-scheduled solving -- components are processed in topological order,
  so every acyclic region is solved in a single pass over its in-edges and
  Kleene iteration is confined to components that are genuine cycles;
* cone-of-influence queries -- the forward closure of a set of label
  slots, which is exactly the region an incremental re-solve (a restricted
  :meth:`PropagationGraph.propagate`, wrapped by
  :meth:`repro.inference.engine.Solver.resolve`) has to revisit after an
  edit.

Because an SCC is either entirely inside or entirely outside the forward
closure of any slot set, an incremental re-solve simply resets the cone to
``⊥`` (plus pinned edit values) and replays the schedule restricted to the
cone's components; everything upstream keeps its converged values and is
read, never written.

:class:`SolverStats` records what the scheduler did -- component counts,
edges visited, worklist pops, passes per component -- and is threaded
through :class:`~repro.inference.solve.Solution` into the pipeline report
and the CLI (``p4bid --solver-stats``).
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.inference.constraints import Constraint
from repro.inference.solve import (
    InferenceConflict,
    InferenceError,
    Solution,
    _height_bound,
    _normalise,
)
from repro.inference.terms import LabelVar, Term, evaluate, free_vars
from repro.lattice.base import Label, Lattice
from repro.telemetry.instrument import CountingLattice
from repro.telemetry.recorder import current_recorder


class NormalisationCache:
    """Memoised constraint normalisation, shared across graph rebuilds.

    :func:`~repro.inference.solve._normalise` decomposes a constraint into
    propagation-edge shapes and residual checks purely from its ``(lhs,
    rhs)`` term pair -- the span, rule and provenance ride along untouched.
    A workspace rebuilding its graph after an edit therefore re-derives
    identical shapes for every *surviving* constraint; this cache skips
    that re-derivation (the originating constraint is re-attached per
    call, so provenance stays exact).

    The decomposition consults the lattice (constant folding of join
    covers), so a cache is bound to one lattice and refuses reuse under
    another.  Each graph build keeps only the entries it used, so pairs
    over the variables of deleted code do not outlive the next build.
    """

    def __init__(self, lattice: Lattice) -> None:
        self.lattice = lattice
        self._memo: Dict[
            Tuple[Term, Term],
            Tuple[
                Tuple[Tuple[Term, LabelVar, Optional[Label]], ...],
                Tuple[Tuple[Term, Term], ...],
            ],
        ] = {}
        #: The entries the build in progress has used so far.
        self._used: Dict[Tuple[Term, Term], tuple] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._memo)

    def end_build(self) -> None:
        """Keep only the entries the build now ending has used."""
        self._memo, self._used = self._used, {}

    def normalise(
        self,
        constraint: Constraint,
        raw: List[Tuple[Term, LabelVar, Constraint, Optional[Label]]],
        checks: List[Tuple[Term, Term, Constraint]],
    ) -> None:
        """Append ``constraint``'s shapes to ``raw`` / ``checks``."""
        key = (constraint.lhs, constraint.rhs)
        entry = self._memo.get(key)
        if entry is None:
            self.misses += 1
            local_raw: List[Tuple[Term, LabelVar, Constraint, Optional[Label]]] = []
            local_checks: List[Tuple[Term, Term, Constraint]] = []
            _normalise(
                self.lattice, constraint, constraint.lhs, constraint.rhs,
                local_raw, local_checks,
            )
            entry = (
                tuple((lhs, target, cover) for lhs, target, _c, cover in local_raw),
                tuple((lhs, rhs) for lhs, rhs, _c in local_checks),
            )
            self._memo[key] = entry
        else:
            self.hits += 1
        self._used[key] = entry
        for lhs, target, cover in entry[0]:
            raw.append((lhs, target, constraint, cover))
        for lhs, rhs in entry[1]:
            checks.append((lhs, rhs, constraint))


@dataclass(frozen=True)
class PropagationEdge:
    """One deduplicated propagation edge ``lhs → target``.

    ``cover`` is the constant part of a join on the right-hand side: the
    edge propagates nothing while the evaluated left side fits under it.
    ``constraints`` holds *every* originating constraint that normalised to
    this edge (repeated use sites collapse to one edge but keep all their
    provenance for unsat cores); ``sources`` caches ``free_vars(lhs)`` in
    uid order so scheduling and slicing never re-derive it.
    """

    lhs: Term
    target: LabelVar
    cover: Optional[Label]
    constraints: Tuple[Constraint, ...]
    sources: Tuple[LabelVar, ...]

    @property
    def origin(self) -> Constraint:
        """The first constraint that produced this edge."""
        return self.constraints[0]


@dataclass
class SolverStats:
    """What the SCC-condensed scheduler did during one solve.

    ``edges_visited`` counts the *distinct* edges the schedule touched
    (every in-edge of every solved component -- for an incremental
    re-solve, the size of the replayed cone); ``worklist_pops`` counts
    total edge evaluations, so it exceeds ``edges_visited`` exactly when
    cyclic components iterate.  ``max_passes`` is the worst number of
    sweeps any single component needed before converging (1 for every
    acyclic component).
    """

    variable_count: int = 0
    edge_count: int = 0
    check_count: int = 0
    scc_count: int = 0
    cyclic_scc_count: int = 0
    largest_scc: int = 0
    edges_visited: int = 0
    worklist_pops: int = 0
    max_passes: int = 0
    components_solved: int = 0
    solve_ms: float = 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "variables": self.variable_count,
            "edges": self.edge_count,
            "checks": self.check_count,
            "sccs": self.scc_count,
            "cyclic_sccs": self.cyclic_scc_count,
            "largest_scc": self.largest_scc,
            "edges_visited": self.edges_visited,
            "worklist_pops": self.worklist_pops,
            "max_passes": self.max_passes,
            "components_solved": self.components_solved,
            "solve_ms": self.solve_ms,
        }

    def describe(self) -> str:
        return (
            f"{self.edge_count} edge(s) over {self.variable_count} variable(s), "
            f"{self.scc_count} SCC(s) ({self.cyclic_scc_count} cyclic, "
            f"largest {self.largest_scc}), {self.worklist_pops} worklist pop(s), "
            f"max {self.max_passes} pass(es) per component"
        )


class PropagationGraph:
    """The propagation structure of one constraint system, built once.

    Construction normalises the constraints (exactly as the seed solver
    did), deduplicates edges by ``(lhs, target, cover)``, indexes them by
    source and by target, and condenses the variable-level graph into
    strongly connected components in topological order.  Solving and
    incremental re-solving then only *schedule* over this structure.
    """

    def __init__(
        self,
        lattice: Lattice,
        constraints: Sequence[Constraint],
        *,
        cache: Optional[NormalisationCache] = None,
    ) -> None:
        if cache is not None and cache.lattice is not lattice:
            raise ValueError(
                "normalisation cache was built for a different lattice"
            )
        self._cache = cache
        self.lattice = lattice
        self.constraints: List[Constraint] = list(constraints)
        self.edges: List[PropagationEdge] = []
        self.checks: List[Tuple[Term, Term, Constraint]] = []
        #: Every variable the system mentions, in discovery order.
        self.variables: List[LabelVar] = []
        #: var -> edge indices whose *left side* mentions it.
        self.dependents: Dict[LabelVar, List[int]] = {}
        #: var -> edge indices *targeting* it.
        self.edges_into: Dict[LabelVar, List[int]] = {}
        recorder = current_recorder()
        with recorder.span("solver.build", constraints=len(self.constraints)):
            with recorder.span("solver.normalise"):
                self._build_edges()
            #: SCCs of the variable graph, dependencies (sources) first.
            self.components: List[Tuple[LabelVar, ...]] = []
            self.component_of: Dict[LabelVar, int] = {}
            self._cyclic: List[bool] = []
            with recorder.span("solver.condense"):
                self._condense()
        self._height = _height_bound(lattice)
        if recorder.enabled:
            recorder.count("solver.graphs_built")
            recorder.count("solver.edges_built", len(self.edges))
            recorder.count("solver.sccs_built", len(self.components))

    # -- construction -------------------------------------------------------

    def _build_edges(self) -> None:
        raw: List[Tuple[Term, LabelVar, Constraint, Optional[Label]]] = []
        checks: List[Tuple[Term, Term, Constraint]] = []
        seen_vars: Set[LabelVar] = set()
        for constraint in self.constraints:
            if self._cache is not None:
                self._cache.normalise(constraint, raw, checks)
            else:
                _normalise(
                    self.lattice, constraint, constraint.lhs, constraint.rhs, raw, checks
                )
            # ``variables()`` is a frozenset; iterate it in uid order so the
            # discovery order -- and with it the Tarjan visit order, the
            # component numbering and ultimately unsat-core ordering -- is
            # identical across runs regardless of PYTHONHASHSEED.
            for var in sorted(constraint.variables(), key=lambda v: v.uid):
                if var not in seen_vars:
                    seen_vars.add(var)
                    self.variables.append(var)
        if self._cache is not None:
            self._cache.end_build()
        self.checks = checks
        # Deduplicate by (lhs, target, cover): repeated use sites emit the
        # same edge over and over; one edge suffices for propagation, but
        # every originating constraint is kept for unsat-core provenance.
        by_key: Dict[Tuple[Term, LabelVar, Optional[Label]], int] = {}
        origins: List[List[Constraint]] = []
        origin_sets: List[Set[Constraint]] = []
        shapes: List[Tuple[Term, LabelVar, Optional[Label]]] = []
        for lhs, target, origin, cover in raw:
            key = (lhs, target, cover)
            index = by_key.get(key)
            if index is None:
                by_key[key] = len(shapes)
                shapes.append(key)
                origins.append([origin])
                origin_sets.append({origin})
            elif origin not in origin_sets[index]:
                origin_sets[index].add(origin)
                origins[index].append(origin)
        for (lhs, target, cover), edge_origins in zip(shapes, origins):
            sources = tuple(sorted(free_vars(lhs), key=lambda v: v.uid))
            index = len(self.edges)
            self.edges.append(
                PropagationEdge(lhs, target, cover, tuple(edge_origins), sources)
            )
            self.edges_into.setdefault(target, []).append(index)
            for var in sources:
                self.dependents.setdefault(var, []).append(index)

    def _successors(self, var: LabelVar) -> List[LabelVar]:
        seen: Set[LabelVar] = set()
        result: List[LabelVar] = []
        for index in self.dependents.get(var, ()):
            target = self.edges[index].target
            if target not in seen:
                seen.add(target)
                result.append(target)
        return result

    def _condense(self) -> None:
        """Tarjan's SCC algorithm (iterative), components in topological
        order of the propagation direction: sources before sinks."""
        index_of: Dict[LabelVar, int] = {}
        lowlink: Dict[LabelVar, int] = {}
        on_stack: Set[LabelVar] = set()
        stack: List[LabelVar] = []
        emitted: List[Tuple[LabelVar, ...]] = []
        counter = 0
        for root in self.variables:
            if root in index_of:
                continue
            work: List[Tuple[LabelVar, Iterable[LabelVar]]] = [
                (root, iter(self._successors(root)))
            ]
            index_of[root] = lowlink[root] = counter
            counter += 1
            stack.append(root)
            on_stack.add(root)
            while work:
                node, successors = work[-1]
                advanced = False
                for succ in successors:
                    if succ not in index_of:
                        index_of[succ] = lowlink[succ] = counter
                        counter += 1
                        stack.append(succ)
                        on_stack.add(succ)
                        work.append((succ, iter(self._successors(succ))))
                        advanced = True
                        break
                    if succ in on_stack:
                        lowlink[node] = min(lowlink[node], index_of[succ])
                if advanced:
                    continue
                work.pop()
                if lowlink[node] == index_of[node]:
                    component: List[LabelVar] = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    emitted.append(tuple(component))
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
        # Tarjan emits an SCC only after everything it reaches; reversing
        # the emission order puts dependencies (sources) first.
        emitted.reverse()
        self.components = emitted
        for comp_index, component in enumerate(emitted):
            for var in component:
                self.component_of[var] = comp_index
        self._cyclic = [
            len(component) > 1
            or any(
                component[0] in self.edges[i].sources
                for i in self.edges_into.get(component[0], ())
            )
            for component in self.components
        ]
        # Cached once: stats snapshots read these per solve, and scanning
        # 100k+ components each time is measurable at mega scale.
        self._cyclic_count = sum(1 for cyclic in self._cyclic if cyclic)
        self._largest = max((len(c) for c in self.components), default=0)

    # -- structure queries ---------------------------------------------------

    @property
    def cyclic_component_count(self) -> int:
        return self._cyclic_count

    @property
    def largest_component(self) -> int:
        return self._largest

    def cone_of(self, slots: Iterable[LabelVar]) -> Set[LabelVar]:
        """Forward closure of ``slots`` along the propagation edges.

        This is the cone of influence of an edit: the only variables whose
        solved value can change when those slots change.  Since members of
        an SCC reach each other, the cone is always a union of whole
        components.
        """
        pending: deque = deque(var for var in slots if var in self.component_of)
        cone: Set[LabelVar] = set(pending)
        while pending:
            var = pending.popleft()
            for index in self.dependents.get(var, ()):
                target = self.edges[index].target
                if target not in cone:
                    cone.add(target)
                    pending.append(target)
        return cone

    # -- solving -------------------------------------------------------------

    def _run_component(
        self,
        comp_index: int,
        assignment: Dict[LabelVar, Label],
        stats: SolverStats,
        lattice: Optional[Lattice] = None,
    ) -> None:
        lattice = lattice or self.lattice
        edges = self.edges
        component = self.components[comp_index]
        in_edges: List[int] = []
        for var in component:
            in_edges.extend(self.edges_into.get(var, ()))
        if not in_edges:
            return
        stats.components_solved += 1
        # Every in-edge is seeded (and so evaluated) exactly once per
        # component, and each edge belongs to exactly one component.
        stats.edges_visited += len(in_edges)
        if not self._cyclic[comp_index]:
            # Acyclic component: all sources are already converged (earlier
            # components) so one sweep over the in-edges is the fixpoint --
            # no worklist bookkeeping at all.
            for index in in_edges:
                stats.worklist_pops += 1
                edge = edges[index]
                value = evaluate(edge.lhs, lattice, assignment)
                if edge.cover is not None and lattice.leq(value, edge.cover):
                    continue
                current = assignment[edge.target]
                if not lattice.leq(value, current):
                    assignment[edge.target] = lattice.join(current, value)
            stats.max_passes = max(stats.max_passes, 1)
            return
        pending: deque = deque(in_edges)
        queued: Set[int] = set(in_edges)
        pops = 0
        # Monotone transfer functions + finite lattice => termination; the
        # budget only guards against a lattice violating the ascending
        # chain condition, and is now per component.
        budget = (len(in_edges) + 1) * (len(component) + 1) * self._height
        while pending:
            index = pending.popleft()
            queued.discard(index)
            pops += 1
            stats.worklist_pops += 1
            if pops > budget:
                raise InferenceError(
                    "constraint solving did not converge; the lattice violates "
                    "the ascending chain condition"
                )
            edge = edges[index]
            value = evaluate(edge.lhs, lattice, assignment)
            if edge.cover is not None and lattice.leq(value, edge.cover):
                continue  # the join's constant part absorbs the flow
            current = assignment[edge.target]
            if not lattice.leq(value, current):
                assignment[edge.target] = lattice.join(current, value)
                for dependent in self.dependents.get(edge.target, ()):
                    # Only edges inside this component can need re-examining
                    # now: edges into later components are seeded wholesale
                    # when their component's turn comes, and topological
                    # order guarantees no edge leads to an earlier one.
                    if (
                        self.component_of[edges[dependent].target] == comp_index
                        and dependent not in queued
                    ):
                        queued.add(dependent)
                        pending.append(dependent)
        stats.max_passes = max(
            stats.max_passes, -(-pops // len(in_edges))  # ceil division
        )

    def propagate(
        self,
        assignment: Dict[LabelVar, Label],
        stats: SolverStats,
        component_indices: Optional[Iterable[int]] = None,
    ) -> None:
        """Run the SCC-condensed schedule over ``assignment`` in place.

        With ``component_indices`` the schedule is restricted to those
        components (still in topological order); everything else is treated
        as already converged and only read.
        """
        order = (
            range(len(self.components))
            if component_indices is None
            else sorted(component_indices)
        )
        recorder = current_recorder()
        if not recorder.enabled:
            # The disabled hot path: identical to the uninstrumented
            # schedule, no per-component telemetry work at all.
            for comp_index in order:
                self._run_component(comp_index, assignment, stats)
            return
        counting = CountingLattice(self.lattice, recorder, scope="propagate")
        with recorder.span("solver.propagate", components=len(order)):
            for comp_index in order:
                component = self.components[comp_index]
                if not any(var in self.edges_into for var in component):
                    continue  # no in-edges: nothing to solve or record
                before = stats.worklist_pops
                with recorder.span(
                    "solver.component",
                    index=comp_index,
                    size=len(component),
                    cyclic=self._cyclic[comp_index],
                ) as span:
                    self._run_component(comp_index, assignment, stats, counting)
                    span.attrs["pops"] = stats.worklist_pops - before
                recorder.observe(
                    "solver.pops_per_component", stats.worklist_pops - before
                )
        counting.flush()

    def fresh_assignment(
        self, overrides: Optional[Mapping[LabelVar, Label]] = None
    ) -> Dict[LabelVar, Label]:
        """Every variable at ``⊥``, with ``overrides`` joined on as floors."""
        assignment = {var: self.lattice.bottom for var in self.variables}
        for var, label in (overrides or {}).items():
            assignment[var] = self.lattice.join(
                assignment.get(var, self.lattice.bottom), label
            )
        return assignment

    def solve(
        self, overrides: Optional[Mapping[LabelVar, Label]] = None
    ) -> Solution:
        """Full SCC-scheduled solve; least solution above ``overrides``."""
        recorder = current_recorder()
        start = time.perf_counter()
        with recorder.span(
            "solver.solve", edges=len(self.edges), variables=len(self.variables)
        ):
            stats = self._new_stats()
            assignment = self.fresh_assignment(overrides)
            self.propagate(assignment, stats)
            conflicts = [c for c in self.check_conflicts(assignment) if c is not None]
        stats.solve_ms = (time.perf_counter() - start) * 1000.0
        if recorder.enabled:
            recorder.count("solver.solves")
            recorder.count("solver.edges_visited", stats.edges_visited)
            recorder.count("solver.worklist_pops", stats.worklist_pops)
            recorder.count("solver.conflicts", len(conflicts))
        solution = Solution(
            self.lattice,
            assignment,
            conflicts,
            iterations=stats.worklist_pops,
            propagation_count=len(self.edges),
            check_count=len(self.checks),
        )
        solution.stats = stats
        solution.graph = self
        return solution

    def _new_stats(self) -> SolverStats:
        return SolverStats(
            variable_count=len(self.variables),
            edge_count=len(self.edges),
            check_count=len(self.checks),
            scc_count=len(self.components),
            cyclic_scc_count=self.cyclic_component_count,
            largest_scc=self.largest_component,
        )

    # -- checks and unsat cores ---------------------------------------------

    def check_conflicts(
        self,
        assignment: Dict[LabelVar, Label],
        check_indices: Optional[Iterable[int]] = None,
    ) -> List[Optional[InferenceConflict]]:
        """Evaluate checks (all, or the given indices) under ``assignment``.

        The result is aligned with :attr:`checks` when run in full; when
        restricted, it is aligned with ``check_indices`` -- the caller
        (incremental re-solve) merges it into its cached per-check slots.
        """
        indices = list(
            range(len(self.checks)) if check_indices is None else check_indices
        )
        recorder = current_recorder()
        lattice: Lattice = self.lattice
        if recorder.enabled:
            lattice = CountingLattice(self.lattice, recorder, scope="check")
        results: List[Optional[InferenceConflict]] = []
        with recorder.span("solver.check", checks=len(indices)):
            for index in indices:
                lhs, rhs, origin = self.checks[index]
                observed = evaluate(lhs, lattice, assignment)
                required = evaluate(rhs, lattice, assignment)
                if lattice.leq(observed, required):
                    results.append(None)
                else:
                    core = self.unsat_core(assignment, lhs, required)
                    results.append(
                        InferenceConflict(origin, observed, required, tuple(core))
                    )
        if recorder.enabled:
            recorder.count("solver.checks_evaluated", len(indices))
            lattice.flush()
        return results

    def unsat_core(
        self, assignment: Dict[LabelVar, Label], lhs: Term, bound: Label
    ) -> List[Constraint]:
        """Slice backwards from ``lhs`` through the edges that pushed it
        above ``bound``.

        A breadth-first walk (a :class:`~collections.deque`, so the whole
        slice is linear in the edges it touches) from the variables of the
        violated check back towards the annotated sources: a variable is
        *blamed* when its solved value does not fit under the bound, and
        every edge into a blamed variable whose own value also exceeds the
        bound contributes its originating constraints.  The resulting core
        is ordered from the conflicting check back towards the sources.
        """
        recorder = current_recorder()
        with recorder.span("solver.unsat-core"):
            return self._unsat_core(assignment, lhs, bound)

    def _unsat_core(
        self, assignment: Dict[LabelVar, Label], lhs: Term, bound: Label
    ) -> List[Constraint]:
        lattice = self.lattice
        blamed: deque = deque(
            var
            for var in sorted(free_vars(lhs), key=lambda v: v.uid)
            if not lattice.leq(assignment[var], bound)
        )
        visited: Set[LabelVar] = set(blamed)
        core: List[Constraint] = []
        in_core: Set[Constraint] = set()
        while blamed:
            var = blamed.popleft()
            for index in self.edges_into.get(var, ()):
                edge = self.edges[index]
                value = evaluate(edge.lhs, lattice, assignment)
                if edge.cover is not None and lattice.leq(value, edge.cover):
                    continue  # the edge propagated nothing (flow was covered)
                if lattice.leq(value, bound):
                    continue  # this edge alone kept the variable within bounds
                for origin in edge.constraints:
                    if origin not in in_core:
                        in_core.add(origin)
                        core.append(origin)
                for upstream in edge.sources:
                    if upstream not in visited and not lattice.leq(
                        assignment[upstream], bound
                    ):
                        visited.add(upstream)
                        blamed.append(upstream)
        return core
