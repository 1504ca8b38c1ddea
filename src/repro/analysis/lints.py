"""The lint engine: coded findings over the label-flow structure.

Each rule is computed from one of three substrates -- the same three the
rest of the system already maintains, which is what makes the lints cheap
and trustworthy:

* **Relaxed re-inference** (P4B001 redundant-annotation, P4B002
  annotation-slack).  The program is re-generated with a
  :class:`RelaxedLabeler` that opens every *explicit* scalar annotation as
  a label variable pinned (floored) at its declared label, then a
  persistent :class:`~repro.inference.engine.Solver` unpins one slot at a
  time -- a cone-of-influence re-solve, so per-slot cost is proportional
  to what the slot can reach.  The unpinned least value is exactly what
  inference would derive if the annotation were deleted: equal to the
  declaration means the annotation is implied by the flows (P4B001),
  strictly below means the slot over-classifies and the gap is reported
  (P4B002), and anything else means the annotation genuinely constrains
  the program -- no finding.

* **Declassify probing** (P4B003 ineffective-declassify, and the
  ``--explain-flows`` audit in :func:`explain_flows`).  A
  :class:`ProbeAlgebra` re-runs constraint generation with a single
  ``declassify``/``endorse`` site *neutralised* (its labels kept instead
  of lowered to ⊥).  Conflicts that appear only under neutralisation are
  precisely the flows that site releases; each gets a shortest leak-path
  witness through the site (:mod:`repro.analysis.witness`).  A site whose
  neutralisation releases nothing is dead weight: the declassified value
  never reaches a lower-labelled sink (P4B003).

* **Graph queries and syntax** (P4B004 write-to-dead-slot, P4B005
  unreachable-after-exit).  A dead slot is an inferred annotation slot
  whose variable has in-edges in the propagation graph but is read by no
  edge and no check -- label flows in, nothing downstream ever observes
  it.  Unreachable statements are found by a direct walk over blocks: any
  statement after an ``exit``/``return`` in the same block can never run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analysis.rules import Finding, RelatedSpan, rule_by_code
from repro.analysis.witness import LeakWitness, witness_for_conflict
from repro.flow.symbolic import SymbolicAlgebra
from repro.ifc.declassify import DECLASSIFY_FUNCTIONS
from repro.ifc.security_types import SecurityType, SHeader, SRecord, SStack
from repro.inference.engine import Solver
from repro.inference.generate import InferenceLabeler, generate_constraints
from repro.inference.graph import PropagationGraph
from repro.inference.solve import InferenceConflict, solve
from repro.inference.terms import LabelVar, Term, VarTerm, free_vars, join_terms
from repro.lattice.base import Label, Lattice, LatticeError
from repro.syntax import expressions as e
from repro.syntax import statements as s
from repro.syntax.program import Program
from repro.syntax.source import SourceSpan
from repro.syntax.types import AnnotatedType
from repro.syntax.visitor import walk
from repro.telemetry.recorder import current_recorder


# ---------------------------------------------------------------------------
# relaxed re-inference: explicit annotations as pinned variables


class RelaxedLabeler(InferenceLabeler):
    """An :class:`InferenceLabeler` that also opens *explicit* scalar slots.

    Every explicit scalar annotation becomes a fresh label variable
    recorded in ``pins`` with its declared label; the driver floors the
    variable at the declaration, so the solved system agrees with the
    annotated program, but any single slot can be unpinned to ask what
    inference would derive without it.
    """

    def __init__(self, lattice, definitions, registry, pins) -> None:
        super().__init__(lattice, definitions, registry)
        self._pins: Dict[LabelVar, Label] = pins

    def attach_label(
        self, annotated: AnnotatedType, base: SecurityType
    ) -> SecurityType:
        composite = isinstance(base.body, (SRecord, SHeader, SStack))
        if composite or self.slot_is_open(annotated.label):
            return super().attach_label(annotated, base)
        try:
            declared = self.lattice.parse_label(annotated.label)
        except LatticeError:
            return super().attach_label(annotated, base)
        var = self._registry.var_for(annotated)
        self._pins.setdefault(var, declared)
        base_label = base.label if isinstance(base.label, Term) else None
        parts = [VarTerm(var)] if base_label is None else [base_label, VarTerm(var)]
        return SecurityType(base.body, join_terms(self.lattice, parts))


class RelaxedAlgebra(SymbolicAlgebra):
    """Symbolic algebra whose labeler opens explicit scalar slots."""

    def __init__(self, lattice: Lattice, *, allow_declassification: bool = False):
        super().__init__(lattice, allow_declassification=allow_declassification)
        self.pins: Dict[LabelVar, Label] = {}

    def make_labeler(self, definitions) -> RelaxedLabeler:
        return RelaxedLabeler(self.lattice, definitions, self.registry, self.pins)


def _local_annotation_nodes(program: Program) -> set:
    """Identities of the annotation nodes on *local variable* declarations.

    Annotation lints deliberately cover only these: parameters, typedefs
    and header fields form the program's security *interface* -- declared
    policy, where "inference would derive less" is the whole point of the
    annotation -- whereas a local's label is implementation detail the
    flows fully determine, exactly the slots ``--infer`` can solve for.
    """
    from repro.syntax import declarations as d

    return {
        id(node.ty)
        for node in walk(program)
        if isinstance(node, d.VarDecl)
    }


def _annotation_findings(
    program: Program, lattice: Lattice, *, allow_declassification: bool
) -> List[Finding]:
    from repro.flow.analysis import FlowAnalysis

    algebra = RelaxedAlgebra(lattice, allow_declassification=allow_declassification)
    FlowAnalysis(algebra).run(program)
    if algebra.errors:
        return []  # unknown labels etc.: the relaxed system is not trustworthy
    local_nodes = _local_annotation_nodes(program)
    sites_by_var = {site.var: site for site in algebra.registry.sites()}
    pins = {
        var: label
        for var, label in algebra.pins.items()
        if var in sites_by_var and id(sites_by_var[var].node) in local_nodes
    }
    if not pins:
        return []
    # Every explicit annotation stays pinned (the solved system must agree
    # with the annotated program); only the local slots are probed.
    solver = Solver(lattice, algebra.constraints)
    solver.resolve(dict(algebra.pins))
    findings: List[Finding] = []
    for var in sorted(pins, key=lambda v: v.uid):
        declared = pins[var]
        relaxed = solver.resolve({var: None})
        least = relaxed.value_of(var)
        solver.resolve({var: declared})
        site = sites_by_var.get(var)
        span = site.span if site is not None else var.span
        hint = site.hint if site is not None else var.hint
        if lattice.equal(least, declared):
            findings.append(
                Finding(
                    rule_by_code("P4B001"),
                    f"annotation {lattice.format_label(declared)} on {hint} "
                    "equals the inferred least label; the flows already imply it",
                    span,
                    fix_hint="drop the annotation (or mark it `infer`)",
                )
            )
        elif lattice.leq(least, declared):
            findings.append(
                Finding(
                    rule_by_code("P4B002"),
                    f"{hint} is annotated {lattice.format_label(declared)} but "
                    f"inference derives {lattice.format_label(least)}; the slot "
                    "over-classifies its data by that gap",
                    span,
                    fix_hint=(
                        f"lower the annotation to {lattice.format_label(least)}"
                    ),
                )
            )
        # Otherwise the flows force the slot at or above somewhere the
        # declaration does not cover: the annotation is load-bearing.
    return findings


# ---------------------------------------------------------------------------
# declassify probing


@dataclass(frozen=True)
class DeclassifySite:
    """One honoured ``declassify``/``endorse`` use, in traversal order."""

    index: int
    primitive: str
    expression: str
    span: SourceSpan

    def describe(self) -> str:
        return f"{self.primitive}({self.expression}) at {self.span}"


@dataclass(frozen=True)
class ReleasedFlow:
    """One flow a declassify site releases: site plus leak-path witness.

    The witness is computed in the *neutralised* system (the site's labels
    kept instead of lowered), so its chain is exactly the source→sink path
    that crosses the release.
    """

    site: DeclassifySite
    witness: LeakWitness


class ProbeAlgebra(SymbolicAlgebra):
    """Symbolic algebra that can *neutralise* one declassify site.

    The traversal calls ``record_declassification`` immediately before
    ``lower_to_bottom`` at every honoured release site; numbering the
    sites in traversal order therefore lets probe run ``i`` skip exactly
    the ``i``-th lowering, keeping the declassified value's labels intact.
    """

    def __init__(self, lattice: Lattice, *, neutralize: Optional[int] = None):
        super().__init__(lattice, allow_declassification=True)
        self.neutralize = neutralize
        self.sites: List[DeclassifySite] = []
        self._skip_next_lower = False

    def record_declassification(
        self, primitive: str, expression: str, sec_type, span: SourceSpan
    ) -> None:
        index = len(self.sites)
        self.sites.append(DeclassifySite(index, primitive, expression, span))
        self._skip_next_lower = self.neutralize == index

    def lower_to_bottom(self, sec_type: SecurityType) -> SecurityType:
        if self._skip_next_lower:
            self._skip_next_lower = False
            return sec_type
        return super().lower_to_bottom(sec_type)


def _conflict_key(conflict: InferenceConflict) -> Tuple[str, str, str]:
    constraint = conflict.constraint
    return (str(constraint.span), constraint.rule, constraint.reason)


def _has_declassify(program: Program) -> bool:
    return any(
        isinstance(node, e.Call)
        and isinstance(node.callee, e.Var)
        and node.callee.name in DECLASSIFY_FUNCTIONS
        for node in walk(program)
    )


def probe_declassifications(
    program: Program, lattice: Lattice
) -> Tuple[List[DeclassifySite], Dict[int, List[ReleasedFlow]]]:
    """What every declassify site releases.

    Runs one honoured baseline generation plus one neutralised
    generation+solve per site; conflicts present only under neutralisation
    are the released flows, each explained by a shortest witness through
    the site.  Returns the sites (traversal order) and the per-site
    released flows (empty list = the site is ineffective).
    """
    from repro.flow.analysis import FlowAnalysis

    recorder = current_recorder()
    baseline = ProbeAlgebra(lattice)
    with recorder.span("analysis.declassify-baseline"):
        FlowAnalysis(baseline).run(program)
        baseline_solution = solve(lattice, baseline.constraints)
    baseline_keys = {_conflict_key(c) for c in baseline_solution.conflicts}
    releases: Dict[int, List[ReleasedFlow]] = {}
    for site in baseline.sites:
        with recorder.span("analysis.declassify-probe", site=str(site.span)):
            probe = ProbeAlgebra(lattice, neutralize=site.index)
            FlowAnalysis(probe).run(program)
            solution = solve(lattice, probe.constraints)
        released = [
            conflict
            for conflict in solution.conflicts
            if _conflict_key(conflict) not in baseline_keys
        ]
        releases[site.index] = [
            ReleasedFlow(
                site,
                witness_for_conflict(
                    solution.graph, solution.assignment, conflict
                ),
            )
            for conflict in released
        ]
        if recorder.enabled:
            recorder.count("analysis.declassify_probes")
            recorder.count("analysis.released_flows", len(released))
    return baseline.sites, releases


def _declassify_findings(program: Program, lattice: Lattice) -> List[Finding]:
    if not _has_declassify(program):
        return []
    sites, releases = probe_declassifications(program, lattice)
    findings: List[Finding] = []
    for site in sites:
        if releases.get(site.index):
            continue
        findings.append(
            Finding(
                rule_by_code("P4B003"),
                f"{site.primitive}({site.expression}) has no effect: the "
                "declassified value never reaches a lower-labelled sink",
                site.span,
                fix_hint=f"remove the {site.primitive}() wrapper",
            )
        )
    return findings


def explain_flows(program: Program, lattice: Lattice) -> List[ReleasedFlow]:
    """Every declassify-crossing source→sink path, for ``--explain-flows``.

    The audit a reviewer signs off on: for each release site, the flows
    that exist *because* of it, each as a shortest leak-path witness
    (ordered by site, then by witness length).
    """
    if not _has_declassify(program):
        return []
    sites, releases = probe_declassifications(program, lattice)
    flows: List[ReleasedFlow] = []
    for site in sites:
        flows.extend(
            sorted(
                releases.get(site.index, ()),
                key=lambda flow: (
                    flow.witness.length,
                    str(flow.witness.conflict.constraint.span),
                ),
            )
        )
    return flows


# ---------------------------------------------------------------------------
# graph query: write-to-dead-slot


def _dead_slot_findings(
    program: Program,
    lattice: Lattice,
    *,
    allow_declassification: bool,
    generation=None,
    graph=None,
) -> List[Finding]:
    if generation is None:
        generation = generate_constraints(
            program, lattice, allow_declassification=allow_declassification
        )
    if generation.errors:
        return []
    if graph is None:
        graph = PropagationGraph(lattice, generation.constraints)
    read_vars = set(graph.dependents)  # appears on some edge's left side
    for lhs, rhs, _origin in graph.checks:
        read_vars |= free_vars(lhs) | free_vars(rhs)
    findings: List[Finding] = []
    for site in generation.sites:
        var = site.var
        if var not in graph.edges_into:
            continue  # nothing ever stored into the slot
        if var in read_vars:
            continue  # the stored label is observed downstream
        findings.append(
            Finding(
                rule_by_code("P4B004"),
                f"label stored into {site.hint} is never read downstream: "
                f"{len(graph.edges_into[var])} flow(s) in, none out",
                site.span,
                fix_hint="remove the store or route the value to a reader",
            )
        )
    return findings


# ---------------------------------------------------------------------------
# syntactic lint: unreachable-after-exit


def _unreachable_findings(program: Program) -> List[Finding]:
    findings: List[Finding] = []
    for node in walk(program):
        if not isinstance(node, s.Block):
            continue
        terminator: Optional[s.Statement] = None
        dead: List[s.Statement] = []
        for statement in node.statements:
            if terminator is not None:
                dead.append(statement)
            elif isinstance(statement, (s.Exit, s.Return)):
                terminator = statement
        if terminator is None or not dead:
            continue
        span = dead[0].span
        for statement in dead[1:]:
            span = span.merge(statement.span)
        kind = "exit" if isinstance(terminator, s.Exit) else "return"
        findings.append(
            Finding(
                rule_by_code("P4B005"),
                f"{len(dead)} statement(s) can never execute: the block "
                f"{kind}s at {terminator.span}",
                span,
                fix_hint="delete the dead statements or move them before "
                f"the {kind}",
                related=(RelatedSpan(f"block {kind}s here", terminator.span),),
            )
        )
    return findings


# ---------------------------------------------------------------------------
# the engine


def _finding_order(finding: Finding) -> Tuple[int, int, str, str]:
    span = finding.span
    return (span.start.line, span.start.column, finding.code, finding.message)


def run_lints(
    program: Program,
    lattice: Lattice,
    *,
    allow_declassification: bool = False,
    generation=None,
    graph=None,
) -> List[Finding]:
    """Run every lint rule over ``program``; findings in source order.

    P4B003 probes only run when declassification is honoured
    (``allow_declassification``) -- otherwise every release site is
    already an error and "ineffective" is meaningless.

    A warm workspace passes its cached ``generation`` and propagation
    ``graph`` so the graph-query lints skip the redundant constraint
    re-generation; the findings are identical either way.
    """
    recorder = current_recorder()
    with recorder.span("analysis.lint"):
        findings: List[Finding] = []
        with recorder.span("analysis.lint.annotations"):
            findings.extend(
                _annotation_findings(
                    program, lattice,
                    allow_declassification=allow_declassification,
                )
            )
        if allow_declassification:
            with recorder.span("analysis.lint.declassify"):
                findings.extend(_declassify_findings(program, lattice))
        with recorder.span("analysis.lint.dead-slots"):
            findings.extend(
                _dead_slot_findings(
                    program, lattice,
                    allow_declassification=allow_declassification,
                    generation=generation,
                    graph=graph,
                )
            )
        with recorder.span("analysis.lint.unreachable"):
            findings.extend(_unreachable_findings(program))
    findings.sort(key=_finding_order)
    if recorder.enabled:
        recorder.count("analysis.lint_runs")
        recorder.count("analysis.findings", len(findings))
    return findings
