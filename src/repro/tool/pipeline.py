"""The P4BID checking pipeline.

Mirrors how the paper's tool is built on p4c: a program is parsed, checked
against the ordinary Core P4 type system (what plain p4c does), and then --
when security checking is requested -- against the IFC type system of
Section 4.  With ``infer=True`` a label-inference phase
(:mod:`repro.inference`) runs between the two: missing annotations are
solved for, and the IFC phase re-verifies the *elaborated* program, so the
security verdict still rests on the unmodified Figure 5–7 checker.

Every phase runs inside a :mod:`repro.telemetry` span (``phase.parse``,
``phase.core``, ``phase.infer``, ``phase.ifc``).  When the ambient
recorder is a :class:`~repro.telemetry.TraceRecorder` (``p4bid --trace``,
or :func:`~repro.telemetry.use_recorder` around the call) the pipeline
records into it, and the solver's own fine-grained spans nest underneath;
otherwise a *private* recorder captures just the coarse phase spans, so
the disabled default pays a handful of span objects per program and
nothing per edge or rule site.  Either way :class:`PhaseTiming` -- what
the Table 1 benchmark and the reports consume -- is a **projection of the
span tree**, not a parallel bookkeeping path.

Since the session workspace landed, :func:`check_program` and
:func:`check_source` are thin facades over a one-shot
:class:`~repro.workspace.Workspace`: every phase above actually runs
inside the workspace's regeneration/solve machinery, which a one-shot
check simply never re-enters.  Long-lived callers (``p4bid serve``,
editor integrations) hold the workspace open instead and pay only each
edit's cone on re-checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, Iterable, List, Mapping, Optional, Tuple, Union

from repro.ifc.checker import IfcCheckResult, check_ifc
from repro.ifc.errors import IfcDiagnostic
from repro.inference.engine import InferenceResult
from repro.lattice.base import Lattice
from repro.lattice.registry import get_lattice
from repro.lattice.two_point import TwoPointLattice
from repro.syntax.program import Program
from repro.telemetry.recorder import (
    Recorder,
    Span,
    TraceRecorder,
    current_recorder,
    use_recorder,
)
from repro.typechecker.checker import CoreCheckResult
from repro.typechecker.errors import TypeDiagnostic
from repro.workspace.session import Workspace

if False:  # pragma: no cover - typing-only imports (cycle-free at runtime)
    from repro.analysis.lints import ReleasedFlow
    from repro.analysis.rules import Finding

#: Span names of the solver intervals that constitute the "solve" sub-phase.
_SOLVE_SPANS = ("solver.solve", "solver.rebase")
#: Span name -> the sub-phase it accumulates into.
_SUB_PHASE_SPANS: Mapping[str, str] = {
    **{name: "solve" for name in _SOLVE_SPANS},
    "parse.lex": "lex",
    "parse.descend": "descend",
}


@dataclass
class PhaseTiming:
    """Wall-clock duration of each pipeline phase, in milliseconds.

    Derived from the pipeline's span tree (:meth:`from_spans`).  The
    top-level phases -- :data:`TOP_LEVEL` -- partition the pipeline;
    :data:`SUB_PHASES` records containment *explicitly*: ``solve`` is a
    sub-phase of ``infer`` (the constraint-solving interval inside label
    inference), and ``lex`` (tokenising) and ``descend`` (the recursive
    descent over the tokens) split ``parse``, so :attr:`total_ms` sums
    only the top-level phases and can never double-count a nested interval.
    """

    #: The phases that partition a pipeline run end to end.
    TOP_LEVEL: ClassVar[Tuple[str, ...]] = ("parse", "core", "infer", "ifc", "analysis")
    #: Explicit sub-phase nesting: sub-phase -> the phase containing it.
    SUB_PHASES: ClassVar[Mapping[str, str]] = {
        "solve": "infer",
        "lex": "parse",
        "descend": "parse",
    }

    parse_ms: float = 0.0
    core_ms: float = 0.0
    infer_ms: float = 0.0
    ifc_ms: float = 0.0
    #: The static-analysis phase (``--lint`` / ``--explain-flows``); zero
    #: unless analysis was requested.
    analysis_ms: float = 0.0
    #: The constraint-solving sub-phase of ``infer`` (see
    #: :data:`SUB_PHASES`); excluded from :attr:`total_ms` by construction.
    solve_ms: float = 0.0
    #: The ``parse`` sub-phases: tokenising, then parsing the tokens.
    lex_ms: float = 0.0
    descend_ms: float = 0.0

    @property
    def total_ms(self) -> float:
        """End-to-end duration: the sum of the top-level phases only."""
        return sum(self.phase_ms(phase) for phase in self.TOP_LEVEL)

    def phase_ms(self, phase: str) -> float:
        """Duration of one named (top-level or sub-) phase."""
        return getattr(self, f"{phase}_ms")

    @classmethod
    def from_spans(cls, spans: Iterable[Span]) -> "PhaseTiming":
        """Project a span sequence onto the phase fields.

        ``phase.<name>`` spans accumulate into their phase; the solver
        spans (:data:`_SOLVE_SPANS`) accumulate into the ``solve``
        sub-phase and ``parse.lex`` / ``parse.descend`` into ``lex`` /
        ``descend``.  Multiple spans of one phase (re-runs) sum.
        """
        timing = cls()
        for span in spans:
            if not span.closed:
                continue
            if span.name.startswith("phase."):
                phase = span.name[len("phase.") :]
                if phase in cls.TOP_LEVEL:
                    setattr(timing, f"{phase}_ms", timing.phase_ms(phase) + span.duration_ms)
            elif span.name in _SUB_PHASE_SPANS:
                sub = _SUB_PHASE_SPANS[span.name]
                setattr(timing, f"{sub}_ms", timing.phase_ms(sub) + span.duration_ms)
        return timing

    def as_dict(self) -> Dict[str, Any]:
        """Nested projection: each top-level phase with its sub-phases."""
        tree: Dict[str, Any] = {}
        for phase in self.TOP_LEVEL:
            tree[phase] = {"ms": self.phase_ms(phase)}
        for sub, parent in self.SUB_PHASES.items():
            tree[parent].setdefault("sub_phases", {})[sub] = {"ms": self.phase_ms(sub)}
        tree["total_ms"] = self.total_ms
        return tree


@dataclass
class AnalysisOutcome:
    """What the static-analysis phase produced for one program.

    ``findings`` are the lint results (:mod:`repro.analysis.lints`);
    ``released_flows`` are the ``--explain-flows`` audit paths, one per
    declassify-crossing source→sink flow.
    """

    findings: List["Finding"] = field(default_factory=list)
    released_flows: List["ReleasedFlow"] = field(default_factory=list)


@dataclass
class CheckReport:
    """The outcome of running the P4BID pipeline over one program."""

    name: str
    program: Optional[Program] = None
    parse_error: Optional[str] = None
    core_result: Optional[CoreCheckResult] = None
    inference_result: Optional[InferenceResult] = None
    ifc_result: Optional[IfcCheckResult] = None
    #: Populated when the pipeline ran with ``lint=True`` or
    #: ``explain_released_flows=True``.
    analysis: Optional[AnalysisOutcome] = None
    timing: PhaseTiming = field(default_factory=PhaseTiming)
    lattice_name: str = "two-point"
    #: The recorder the pipeline's phase spans went to: the ambient
    #: :class:`~repro.telemetry.TraceRecorder` when one was installed, or
    #: the pipeline's private phase-level recorder otherwise.  ``timing``
    #: is a projection of its spans.
    trace: Optional[TraceRecorder] = None

    @property
    def core_diagnostics(self) -> List[TypeDiagnostic]:
        return list(self.core_result.diagnostics) if self.core_result else []

    @property
    def inference_diagnostics(self) -> List[IfcDiagnostic]:
        return list(self.inference_result.diagnostics) if self.inference_result else []

    @property
    def ifc_diagnostics(self) -> List[IfcDiagnostic]:
        return list(self.ifc_result.diagnostics) if self.ifc_result else []

    @property
    def diagnostics(self) -> List[Union[TypeDiagnostic, IfcDiagnostic]]:
        return [
            *self.core_diagnostics,
            *self.inference_diagnostics,
            *self.ifc_diagnostics,
        ]

    @property
    def parsed(self) -> bool:
        return self.parse_error is None and self.program is not None

    @property
    def checked_program(self) -> Optional[Program]:
        """The program the IFC verdict is about (elaborated when inferred)."""
        if self.inference_result is not None and self.inference_result.ok:
            return self.inference_result.elaborated
        return self.program

    @property
    def core_ok(self) -> bool:
        return self.parsed and not self.core_diagnostics

    @property
    def ok(self) -> bool:
        """Whether the program parsed and passed every requested check."""
        return self.parsed and not self.diagnostics


def _resolve_lattice(lattice: Union[Lattice, str, None]) -> Lattice:
    if lattice is None:
        return TwoPointLattice()
    if isinstance(lattice, str):
        return get_lattice(lattice)
    return lattice


def _pipeline_recorder(recorder: Optional[Recorder]) -> TraceRecorder:
    """The recorder the pipeline's phase spans go to.

    An explicitly passed or ambient :class:`TraceRecorder` is used as-is
    (fine-grained solver spans from the layers below then share the same
    tree).  Anything else -- the no-op default, or a custom metrics-only
    recorder -- gets a fresh *private* recorder: phase timing still derives
    from spans, but the hot paths below continue to see the ambient
    recorder and stay no-op.
    """
    ambient = recorder if recorder is not None else current_recorder()
    if isinstance(ambient, TraceRecorder):
        return ambient
    return TraceRecorder()


def _run_phases(
    report: CheckReport,
    workspace: Workspace,
    recorder: TraceRecorder,
    *,
    include_ifc: bool,
    infer: bool,
    lint: bool = False,
    explain_released_flows: bool = False,
) -> None:
    """The core → (infer) → ifc → (analysis) phases over a parsed workspace."""
    lattice = workspace.lattice
    with recorder.span("phase.core"):
        report.core_result = workspace.core()

    if not include_ifc:
        return
    target: Optional[Program] = workspace.program
    if infer:
        with recorder.span("phase.infer") as infer_span:
            report.inference_result = workspace.infer()
        stats = report.inference_result.solution.stats
        solver_spans_recorded = any(
            span.name in _SOLVE_SPANS and span.sid > infer_span.sid
            for span in recorder.spans
        )
        if stats is not None and not solver_spans_recorded:
            # The fine-grained recorder was not installed; project the
            # solver's own measurement into the tree so ``solve`` is still
            # an explicit child of ``infer`` in every trace.
            recorder.add_span(
                "solver.solve", stats.solve_ms, parent=infer_span, projected=True
            )
        target = (
            report.inference_result.elaborated
            if report.inference_result.ok
            else None
        )
    if target is not None:
        with recorder.span("phase.ifc", recheck=infer):
            report.ifc_result = check_ifc(
                target,
                lattice,
                allow_declassification=workspace.allow_declassification,
                cache=workspace.recheck_cache(target),
            )
    if lint or explain_released_flows:
        # Analyses run over the *original* program: annotation lints reason
        # about what the user wrote, not what elaboration filled in.
        from repro.analysis import explain_flows as explain_released

        outcome = AnalysisOutcome()
        with recorder.span("phase.analysis", lint=lint):
            if lint:
                outcome.findings = workspace.lint()
            if explain_released_flows and workspace.allow_declassification:
                outcome.released_flows = explain_released(workspace.program, lattice)
        report.analysis = outcome


def check_workspace(
    workspace: Workspace,
    *,
    include_ifc: bool = True,
    infer: bool = False,
    lint: bool = False,
    explain_released_flows: bool = False,
    name: Optional[str] = None,
    recorder: Optional[Recorder] = None,
) -> CheckReport:
    """Run the pipeline phases over an (already opened) workspace.

    This is the report engine shared by :func:`check_source` /
    :func:`check_program` (which build a throwaway workspace) and the
    JSON-RPC server (which keeps one warm): the phases read the
    workspace's cached state, so over a warm workspace only what the
    last edit invalidated is recomputed.
    """
    if infer and not include_ifc:
        raise ValueError(
            "infer=True requires the security pass; inference without the "
            "IFC re-check has no verdict to report (drop include_ifc=False)"
        )
    report = CheckReport(
        name or workspace.display_name, lattice_name=workspace.lattice.name
    )
    rec = _pipeline_recorder(recorder)
    first_span = len(rec.spans)
    with rec.span("pipeline.check", program=report.name, lattice=workspace.lattice.name):
        report.parse_error = workspace.parse_error
        if workspace.program is not None:
            report.program = workspace.program
            _run_phases(
                report,
                workspace,
                rec,
                include_ifc=include_ifc,
                infer=infer,
                lint=lint,
                explain_released_flows=explain_released_flows,
            )
            # Re-generation assembles the revision from cached declaration
            # nodes; the report must describe that assembled program.
            report.program = workspace.program
    report.timing = PhaseTiming.from_spans(rec.spans[first_span:])
    report.trace = rec
    return report


def check_program(
    program: Program,
    lattice: Union[Lattice, str, None] = None,
    *,
    include_ifc: bool = True,
    infer: bool = False,
    allow_declassification: bool = False,
    lint: bool = False,
    explain_released_flows: bool = False,
    name: Optional[str] = None,
    recorder: Optional[Recorder] = None,
) -> CheckReport:
    """Run the (core + optional infer + optional IFC) checks over a program.

    ``infer=True`` inserts the label-inference phase ahead of the IFC check:
    the solved, fully annotated program is what the IFC phase verifies.
    When the constraint system is unsatisfiable the conflicts are reported
    as the report's diagnostics and the IFC phase is skipped (re-checking a
    partially solved program would only restate the same conflicts).
    ``lint=True`` and ``explain_released_flows=True`` add the
    static-analysis phase (:mod:`repro.analysis`) and populate
    :attr:`CheckReport.analysis`.
    """
    if infer and not include_ifc:
        raise ValueError(
            "infer=True requires the security pass; inference without the "
            "IFC re-check has no verdict to report (drop include_ifc=False)"
        )
    resolved = _resolve_lattice(lattice)
    workspace = Workspace(
        resolved,
        allow_declassification=allow_declassification,
        name=name,
    )
    workspace.open_program(program)
    return check_workspace(
        workspace,
        include_ifc=include_ifc,
        infer=infer,
        lint=lint,
        explain_released_flows=explain_released_flows,
        name=name or program.name,
        recorder=recorder,
    )


def check_source(
    source: str,
    lattice: Union[Lattice, str, None] = None,
    *,
    include_ifc: bool = True,
    infer: bool = False,
    allow_declassification: bool = False,
    lint: bool = False,
    explain_released_flows: bool = False,
    filename: str = "<input>",
    name: Optional[str] = None,
    recorder: Optional[Recorder] = None,
) -> CheckReport:
    """Parse and check a program given as source text.

    ``include_ifc=False`` reproduces the unannotated baseline of Table 1
    (plain type checking only); the default runs the full P4BID pipeline.
    ``infer=True`` additionally solves for missing / ``infer``-marked
    security annotations before the IFC check (``p4bid --infer``).
    ``allow_declassification`` opts in to the audited ``declassify`` /
    ``endorse`` primitives (an extension; off by default to preserve the
    paper's strict non-interference).
    """
    if infer and not include_ifc:
        raise ValueError(
            "infer=True requires the security pass; inference without the "
            "IFC re-check has no verdict to report (drop include_ifc=False)"
        )
    resolved = _resolve_lattice(lattice)
    workspace = Workspace(
        resolved,
        allow_declassification=allow_declassification,
        name=name,
    )
    report = CheckReport(name or filename, lattice_name=resolved.name)
    rec = _pipeline_recorder(recorder)
    first_span = len(rec.spans)
    with rec.span("pipeline.check", program=report.name, lattice=resolved.name):
        # The parser reports its lex/descend split to the ambient recorder.
        with rec.span("phase.parse"), use_recorder(rec):
            workspace.open(source, filename=filename)
        report.parse_error = workspace.parse_error
        if workspace.program is not None:
            report.program = workspace.program
            _run_phases(
                report,
                workspace,
                rec,
                include_ifc=include_ifc,
                infer=infer,
                lint=lint,
                explain_released_flows=explain_released_flows,
            )
            report.program = workspace.program
    report.timing = PhaseTiming.from_spans(rec.spans[first_span:])
    report.trace = rec
    return report
