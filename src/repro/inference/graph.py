"""The propagation-graph subsystem behind the constraint solver.

The seed solver normalised constraints into a flat edge list and ran one
global Kleene worklist over it.  That is fine at case-study size but wastes
work at scale: edges are revisited in arbitrary order, acyclic regions are
re-examined long after they have converged, and nothing is reusable between
solves.  This module makes the propagation structure explicit:

* :class:`PropagationEdge` -- one *deduplicated* edge ``lhs → target``
  (with the optional join *cover*), carrying every constraint that gave
  rise to it, in system order, so unsat cores keep full provenance;
* :class:`PropagationGraph` -- edges, checks and the variable-level
  adjacency over a constraint system held as per-unit *buckets*,
  condensed into strongly connected components with Tarjan's algorithm;
* SCC-scheduled solving -- components are processed in topological order,
  so every acyclic region is solved in a single pass over its in-edges and
  Kleene iteration is confined to components that are genuine cycles;
* cone-of-influence queries -- the forward closure of a set of label
  slots, which is exactly the region an incremental re-solve (a restricted
  :meth:`PropagationGraph.propagate`, run by
  :meth:`repro.inference.engine.Solver.rebase`) has to revisit after an
  edit.

The graph holds structure only; the assignment, the pins and the check
verdicts belong to the :class:`~repro.inference.engine.Solver` that owns
it, which runs every solve, full or incremental.

Because an SCC is either entirely inside or entirely outside the forward
closure of any slot set, an incremental re-solve simply resets the cone to
``⊥`` (plus pinned edit values) and replays the schedule restricted to the
cone's components; everything upstream keeps its converged values and is
read, never written.

A graph is built over a list of buckets, one per top-level unit (a flat
constraint list is one bucket), and :meth:`PropagationGraph.patch` swaps
buckets in and out by identity: only the constraints of added buckets are
normalised, edges are reference-counted by their ``(lhs, target, cover)``
key, and only the region whose components can have changed is
re-condensed.  Everything a caller can observe stays as a fresh build over
the concatenated buckets would make it: each variable's in-edges and each
edge's originating constraints in system order (the order of their first
normalised occurrence), the checks in system order, and the whole-system
counts in :class:`SolverStats`.  Only the positions of edges in
:attr:`PropagationGraph.edges` and the numbering of components differ.

:class:`SolverStats` records what the scheduler did -- component counts,
edges visited, worklist pops, passes per component -- and is threaded
through :class:`~repro.inference.solve.Solution` into the pipeline report
and the CLI (``p4bid --solver-stats``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    FrozenSet,
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
    _height_bound,
    _normalise,
)
from repro.inference.terms import LabelVar, Term, evaluate, free_vars
from repro.lattice.base import Label, Lattice
from repro.telemetry.instrument import CountingLattice
from repro.telemetry.recorder import current_recorder


def _uid(var: LabelVar) -> int:
    return var.uid


class PropagationEdge:
    """One deduplicated propagation edge ``lhs → target``.

    ``cover`` is the constant part of a join on the right-hand side: the
    edge propagates nothing while the evaluated left side fits under it.
    ``constraints`` holds *every* originating constraint that normalised to
    this edge, in system order (repeated use sites collapse to one edge but
    keep all their provenance for unsat cores); ``sources`` caches
    ``free_vars(lhs)`` in uid order so scheduling and slicing never
    re-derive it.
    """

    __slots__ = ("lhs", "target", "cover", "sources", "constraints", "_entries", "_index")

    def __init__(
        self, lhs: Term, target: LabelVar, cover: Optional[Label]
    ) -> None:
        self.lhs = lhs
        self.target = target
        self.cover = cover
        self.sources: Tuple[LabelVar, ...] = tuple(sorted(free_vars(lhs), key=_uid))
        self.constraints: Tuple[Constraint, ...] = ()
        #: One ``(bucket rank, shape position, constraint)`` per normalised
        #: occurrence of this edge, in system order; the edge lives while
        #: it has any.
        self._entries: List[Tuple["_Rank", int, Constraint]] = []
        #: The edge's position in :attr:`PropagationGraph.edges` (-1 while
        #: not linked into the graph).
        self._index = -1

    @property
    def key(self) -> Tuple[Term, LabelVar, Optional[Label]]:
        return (self.lhs, self.target, self.cover)

    @property
    def origin(self) -> Constraint:
        """The first constraint that produced this edge."""
        return self.constraints[0]

    def _position(self) -> Tuple[int, int]:
        return _entry_position(self._entries[0])

    def _settle(self) -> None:
        """Derive :attr:`constraints` from the entries: a constraint that
        normalised to this edge more than once is listed once."""
        origins: List[Constraint] = []
        previous = None
        for _bucket, _position, constraint in self._entries:
            if constraint is not previous:
                origins.append(constraint)
                previous = constraint
        self.constraints = tuple(origins)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PropagationEdge({self.lhs.describe()} → {self.target.describe()}"
            f", cover={self.cover!r}, {len(self.constraints)} origin(s))"
        )


def _entry_position(entry: Tuple["_Rank", int, Constraint]) -> Tuple[int, int]:
    return (entry[0].value, entry[1])


class _Rank:
    """A bucket's position in unit order.

    Edge entries hold this rather than the bucket, which holds its edges:
    the graph then has no reference cycles, so a dropped bucket or graph
    is freed at once instead of waiting for the cyclic collector.
    """

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = -1


class _Bucket:
    """One unit's constraints and what they normalised to.

    ``constraints`` is the caller's sequence, matched by identity on
    :meth:`PropagationGraph.patch` (a changed unit hands in a new one);
    ``rank`` holds the bucket's position in unit order.  ``edges`` lists the
    edge each normalised propagation shape joined, in normalisation order
    -- an edge's position in system order is its first shape's
    ``(rank, index)`` -- and ``checks`` the residual checks, which sit at
    ``offset`` in :attr:`PropagationGraph.checks`.
    """

    __slots__ = ("constraints", "rank", "edges", "checks", "offset", "variables", "_check_vars")

    def __init__(self, constraints: Sequence[Constraint]) -> None:
        self.constraints = constraints
        self.rank = _Rank()
        self.edges: List[PropagationEdge] = []
        self.checks: List[Tuple[Term, Term, Constraint]] = []
        self.offset = -1
        #: Every variable the bucket's constraints mention, first
        #: occurrence first (uid order within a constraint).
        self.variables: Tuple[LabelVar, ...] = ()
        self._check_vars: Optional[Tuple[List[FrozenSet[LabelVar]], FrozenSet[LabelVar]]] = None

    def check_vars(self) -> Tuple[List[FrozenSet[LabelVar]], FrozenSet[LabelVar]]:
        """Each check's variables, and their union (computed once)."""
        if self._check_vars is None:
            per_check = [free_vars(lhs) | free_vars(rhs) for lhs, rhs, _ in self.checks]
            self._check_vars = (per_check, frozenset().union(*per_check))
        return self._check_vars


@dataclass
class GraphPatch:
    """What one :meth:`PropagationGraph.patch` changed.

    ``region`` is the re-condensed set of variables: forward-closed, and
    holding every variable whose in-edges, components or presence changed,
    so re-solving it from ``⊥`` over the patched graph restores the least
    fixpoint.  ``check_moves`` maps the checks of surviving buckets from
    their old flat positions to their new ones as ``(new offset, old
    offset, count)`` runs; ``fresh_checks`` are the flat positions of the
    added buckets' checks.
    """

    region: Set[LabelVar]
    removed_vars: List[LabelVar]
    check_moves: List[Tuple[int, int, int]]
    fresh_checks: List[int]
    units_patched: int = 0
    constraints_normalised: int = 0
    edges_added: int = 0
    edges_removed: int = 0

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
    """The propagation structure of one constraint system.

    Construction normalises the constraints (exactly as the seed solver
    did), deduplicates edges by ``(lhs, target, cover)``, indexes them by
    source and by target, and condenses the variable-level graph into
    strongly connected components in topological order.  Solving and
    incremental re-solving then only *schedule* over this structure.

    The system is given either as one flat ``constraints`` sequence or as
    ``buckets``, one sequence per top-level unit in unit order; the
    system is their concatenation.  Buckets are what :meth:`patch`
    swaps, by identity, so a bucket must not be mutated after it was
    handed over.

    ``components`` maps component ids to their members; ids increase in
    topological order (sources first), and a patch appends the components
    it re-condenses under fresh ids.
    """

    def __init__(
        self,
        lattice: Lattice,
        constraints: Sequence[Constraint] = (),
        *,
        buckets: Optional[Sequence[Sequence[Constraint]]] = None,
    ) -> None:
        if buckets is None:
            buckets = [constraints]
        self.lattice = lattice
        self.edges: List[PropagationEdge] = []
        self.checks: List[Tuple[Term, Term, Constraint]] = []
        #: var -> edge indices whose *left side* mentions it.
        self.dependents: Dict[LabelVar, List[int]] = {}
        #: var -> edge indices *targeting* it, in system order.
        self.edges_into: Dict[LabelVar, List[int]] = {}
        #: SCCs of the variable graph by id, dependencies (sources) first.
        self.components: Dict[int, Tuple[LabelVar, ...]] = {}
        self.component_of: Dict[LabelVar, int] = {}
        self._cyclic: Dict[int, bool] = {}
        self._cyclic_count = 0
        #: component size -> how many components have it.
        self._sizes: Dict[int, int] = {}
        self._next_component = 0
        self._edge_index: Dict[Tuple[Term, LabelVar, Optional[Label]], PropagationEdge] = {}
        #: Every variable the system mentions, in discovery order, with the
        #: number of buckets mentioning it.
        self._var_refs: Dict[LabelVar, int] = {}
        self._buckets: List[_Bucket] = [_Bucket(bucket) for bucket in buckets]
        recorder = current_recorder()
        with recorder.span(
            "solver.build",
            constraints=sum(len(bucket.constraints) for bucket in self._buckets),
        ):
            with recorder.span("solver.normalise"):
                fresh: List[PropagationEdge] = []
                for rank, bucket in enumerate(self._buckets):
                    bucket.rank.value = rank
                    self._add_bucket(bucket, fresh)
                for edge in fresh:
                    self._register(edge)
                    edge._settle()
                self._lay_out_checks()
            with recorder.span("solver.condense"):
                self._condense(self._var_refs)
        self._height = _height_bound(lattice)
        if recorder.enabled:
            recorder.count("solver.graphs_built")
            recorder.count("solver.edges_built", len(self.edges))
            recorder.count("solver.sccs_built", len(self.components))

    # -- construction -------------------------------------------------------

    def _add_bucket(
        self,
        bucket: _Bucket,
        fresh: List[PropagationEdge],
        new_vars: Optional[List[LabelVar]] = None,
    ) -> None:
        """Normalise ``bucket`` and attach its shapes to their edges.

        Edges first seen here are created unlinked and appended to
        ``fresh``; the caller links them.  Variables new to the system
        are appended to ``new_vars``.
        """
        lattice = self.lattice
        raw: List[Tuple[Term, LabelVar, Constraint, Optional[Label]]] = []
        checks: List[Tuple[Term, Term, Constraint]] = []
        variables: Dict[LabelVar, None] = {}
        for constraint in bucket.constraints:
            _normalise(lattice, constraint, constraint.lhs, constraint.rhs, raw, checks)
            # ``variables()`` is a frozenset; iterate it in uid order so the
            # discovery order -- and with it the Tarjan visit order and the
            # component numbering -- is identical across runs regardless
            # of PYTHONHASHSEED.
            for var in sorted(constraint.variables(), key=_uid):
                if var not in variables:
                    variables[var] = None
        bucket.checks = checks
        bucket.variables = tuple(variables)
        refs = self._var_refs
        for var in bucket.variables:
            count = refs.get(var)
            if count is None and new_vars is not None:
                new_vars.append(var)
            refs[var] = (count or 0) + 1
        # Deduplicate by (lhs, target, cover): repeated use sites emit the
        # same edge over and over; one edge suffices for propagation, but
        # every originating constraint is kept for unsat-core provenance.
        index = self._edge_index
        edges: List[PropagationEdge] = []
        for position, (lhs, target, constraint, cover) in enumerate(raw):
            key = (lhs, target, cover)
            edge = index.get(key)
            if edge is None:
                edge = index[key] = PropagationEdge(lhs, target, cover)
                fresh.append(edge)
            edge._entries.append((bucket.rank, position, constraint))
            edges.append(edge)
        bucket.edges = edges

    def _register(self, edge: PropagationEdge) -> None:
        """Link ``edge`` at the end of :attr:`edges` and into the indexes."""
        index = edge._index = len(self.edges)
        self.edges.append(edge)
        self.edges_into.setdefault(edge.target, []).append(index)
        for var in edge.sources:
            self.dependents.setdefault(var, []).append(index)

    def _unregister(self, edge: PropagationEdge) -> None:
        """Unlink ``edge``; the last edge of :attr:`edges` takes its slot."""
        index = edge._index
        _discard(self.edges_into, edge.target, index)
        for var in edge.sources:
            _discard(self.dependents, var, index)
        last = self.edges.pop()
        if last is not edge:
            moved = last._index
            self.edges[index] = last
            last._index = index
            into = self.edges_into[last.target]
            into[into.index(moved)] = index
            for var in last.sources:
                dependents = self.dependents[var]
                dependents[dependents.index(moved)] = index
        edge._index = -1
        del self._edge_index[edge.key]

    def _lay_out_checks(self) -> Tuple[List[Tuple[int, int, int]], List[int]]:
        """Concatenate the buckets' checks into :attr:`checks`, in unit
        order.  Returns where the checks of buckets laid out before moved,
        as ``(new offset, old offset, count)`` runs, and the positions of
        the other buckets' checks."""
        moves: List[Tuple[int, int, int]] = []
        fresh: List[int] = []
        checks: List[Tuple[Term, Term, Constraint]] = []
        for bucket in self._buckets:
            start = len(checks)
            count = len(bucket.checks)
            if bucket.offset < 0:
                fresh.extend(range(start, start + count))
            elif count:
                moves.append((start, bucket.offset, count))
            bucket.offset = start
            checks.extend(bucket.checks)
        self.checks = checks
        return moves, fresh

    def _successors(self, var: LabelVar) -> List[LabelVar]:
        seen: Set[LabelVar] = set()
        result: List[LabelVar] = []
        for index in self.dependents.get(var, ()):
            target = self.edges[index].target
            if target not in seen:
                seen.add(target)
                result.append(target)
        return result

    def _condense(self, roots: Iterable[LabelVar]) -> None:
        """Tarjan's SCC algorithm (iterative) over the variables reachable
        from ``roots``, none of which may have a component yet.  The new
        components get fresh ids in topological order of the propagation
        direction: sources before sinks."""
        index_of: Dict[LabelVar, int] = {}
        lowlink: Dict[LabelVar, int] = {}
        on_stack: Set[LabelVar] = set()
        stack: List[LabelVar] = []
        emitted: List[Tuple[LabelVar, ...]] = []
        counter = 0
        for root in roots:
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
        edges = self.edges
        sizes = self._sizes
        for component in emitted:
            comp_id = self._next_component
            self._next_component += 1
            self.components[comp_id] = component
            for var in component:
                self.component_of[var] = comp_id
            head = component[0]
            cyclic = len(component) > 1 or any(
                head in edges[i].sources for i in self.edges_into.get(head, ())
            )
            self._cyclic[comp_id] = cyclic
            self._cyclic_count += cyclic
            sizes[len(component)] = sizes.get(len(component), 0) + 1

    def _drop_component(self, comp_id: int) -> None:
        size = len(self.components.pop(comp_id))
        self._cyclic_count -= self._cyclic.pop(comp_id)
        remaining = self._sizes[size] - 1
        if remaining:
            self._sizes[size] = remaining
        else:
            del self._sizes[size]

    # -- patching -----------------------------------------------------------

    def patch(self, buckets: Sequence[Sequence[Constraint]]) -> GraphPatch:
        """Make the graph describe the system ``buckets`` (in unit order).

        Buckets are matched with the current ones by identity.  The
        constraints of dropped buckets leave the edges they contributed
        to -- an edge goes when its last occurrence does -- and only the
        constraints of new buckets are normalised.  The re-condensed
        region is the forward closure of the variables that are new or
        whose in-edges appeared or vanished.  No component outside it can
        have changed: a new cycle runs through an added edge's target,
        and a component that lost an internal edge or a member is
        reached whole from the target of one of the vanished edges (a
        shortest path from that target never re-enters it).  Being
        forward-closed, the region's components can be numbered after
        every other.  If surviving buckets changed their relative order,
        every bucket is swapped.
        """
        old = self._buckets
        by_identity = {id(bucket.constraints): bucket for bucket in old}
        new: List[_Bucket] = []
        added: List[_Bucket] = []
        last_rank = -1
        for constraints in buckets:
            bucket = by_identity.pop(id(constraints), None)
            if bucket is None or bucket.rank.value < last_rank:
                if bucket is not None:
                    # Reordered: fall back to swapping every bucket.
                    added = [_Bucket(c) for c in buckets]
                    new = list(added)
                    by_identity = {id(b.constraints): b for b in old}
                    break
                bucket = _Bucket(constraints)
                added.append(bucket)
            else:
                last_rank = bucket.rank.value
            new.append(bucket)
        dropped = {bucket.rank for bucket in by_identity.values()}
        removed = [bucket for bucket in old if bucket.rank in dropped]
        if not added and not removed:
            return GraphPatch(set(), [], [(0, 0, len(self.checks))], [])
        recorder = current_recorder()
        with recorder.span(
            "solver.patch", units_removed=len(removed), units_added=len(added)
        ) as patch_span:
            patch = self._patch(new, added, removed, dropped, recorder)
            if recorder.enabled:
                patch_span.attrs["region"] = len(patch.region)
        return patch

    def _patch(
        self,
        new: List[_Bucket],
        added: List[_Bucket],
        removed: List[_Bucket],
        dropped: Set[_Rank],
        recorder,
    ) -> GraphPatch:
        refs = self._var_refs
        component_of = self.component_of
        for rank, bucket in enumerate(new):
            bucket.rank.value = rank
        # Take the dropped buckets' occurrences off their edges.
        touched: Dict[PropagationEdge, None] = {}
        emptied: List[LabelVar] = []
        for bucket in removed:
            for edge in bucket.edges:
                touched[edge] = None
            for var in bucket.variables:
                refs[var] -= 1
                if not refs[var]:
                    emptied.append(var)
        for edge in touched:
            edge._entries = [e for e in edge._entries if e[0] not in dropped]
        # Normalise the new buckets onto the (possibly new) edges.
        fresh: List[PropagationEdge] = []
        new_vars: List[LabelVar] = []
        normalised = sum(len(bucket.constraints) for bucket in added)
        with recorder.span("solver.normalise", constraints=normalised):
            for bucket in added:
                self._add_bucket(bucket, fresh, new_vars)
                for edge in bucket.edges:
                    touched[edge] = None
        # Settle the edges: unlink the dead ones first (swap-remove), then
        # link the new ones.  Targets whose in-edges appeared or vanished
        # seed the region.
        seeds: Set[LabelVar] = set()
        edges_removed = 0
        for edge in touched:
            if not edge._entries:
                seeds.add(edge.target)
                self._unregister(edge)
                edges_removed += 1
        for edge in fresh:
            self._register(edge)
            seeds.add(edge.target)
        resort: Set[LabelVar] = set()
        for edge in touched:
            if edge._entries:
                edge._entries.sort(key=_entry_position)
                edge._settle()
                resort.add(edge.target)
        edges_into = self.edges_into
        edges = self.edges
        for var in resort:
            into = edges_into.get(var)
            if into is not None and len(into) > 1:
                into.sort(key=lambda index: edges[index]._position())
        removed_vars = [var for var in emptied if not refs.get(var)]
        for var in removed_vars:
            del refs[var]
        seeds.update(new_vars)
        region = self._closure(var for var in seeds if var in refs)
        with recorder.span("solver.condense", region=len(region)):
            # Variables that left the system take their components with
            # them; the surviving members of those are in the region.
            stale = {component_of[var] for var in region if var in component_of}
            stale.update(component_of[var] for var in removed_vars)
            for comp_id in stale:
                self._drop_component(comp_id)
            for var in removed_vars:
                del component_of[var]
            self._condense(sorted(region, key=_uid))
        self._buckets = new
        moves, fresh_checks = self._lay_out_checks()
        return GraphPatch(
            region,
            removed_vars,
            moves,
            fresh_checks,
            units_patched=len(added) + len(removed),
            constraints_normalised=normalised,
            edges_added=len(fresh),
            edges_removed=edges_removed,
        )

    # -- structure queries ---------------------------------------------------

    @property
    def buckets(self) -> List[Sequence[Constraint]]:
        """The system as handed over: one sequence per unit, in unit order."""
        return [bucket.constraints for bucket in self._buckets]

    @property
    def variables(self) -> List[LabelVar]:
        """Every variable the system mentions (discovery order on a fresh
        build; a patch appends the variables it introduces)."""
        return list(self._var_refs)

    @property
    def variable_count(self) -> int:
        return len(self._var_refs)

    @property
    def cyclic_component_count(self) -> int:
        return self._cyclic_count

    @property
    def largest_component(self) -> int:
        return max(self._sizes, default=0)

    def _closure(self, seeds: Iterable[LabelVar]) -> Set[LabelVar]:
        pending: deque = deque(seeds)
        closure: Set[LabelVar] = set(pending)
        edges = self.edges
        dependents = self.dependents
        while pending:
            var = pending.popleft()
            for index in dependents.get(var, ()):
                target = edges[index].target
                if target not in closure:
                    closure.add(target)
                    pending.append(target)
        return closure

    def cone_of(self, slots: Iterable[LabelVar]) -> Set[LabelVar]:
        """Forward closure of ``slots`` along the propagation edges.

        This is the cone of influence of an edit: the only variables whose
        solved value can change when those slots change.  Since members of
        an SCC reach each other, the cone is always a union of whole
        components.
        """
        return self._closure(var for var in slots if var in self.component_of)

    def checks_touching(self, variables: Set[LabelVar]) -> List[int]:
        """Indices (in :attr:`checks`) of the checks mentioning any of
        ``variables``, in order."""
        result: List[int] = []
        for bucket in self._buckets:
            if not bucket.checks:
                continue
            per_check, union = bucket.check_vars()
            if union.isdisjoint(variables):
                continue
            offset = bucket.offset
            for position, check_vars in enumerate(per_check):
                if not check_vars.isdisjoint(variables):
                    result.append(offset + position)
        return result

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
            list(self.components)
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
        assignment = dict.fromkeys(self._var_refs, self.lattice.bottom)
        for var, label in (overrides or {}).items():
            assignment[var] = self.lattice.join(
                assignment.get(var, self.lattice.bottom), label
            )
        return assignment

    def _new_stats(self) -> SolverStats:
        return SolverStats(
            variable_count=self.variable_count,
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


def _discard(index: Dict[LabelVar, List[int]], var: LabelVar, edge: int) -> None:
    """Remove ``edge`` from ``index[var]``, dropping the entry once empty."""
    edges = index[var]
    edges.remove(edge)
    if not edges:
        del index[var]
