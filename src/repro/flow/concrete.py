"""The concrete instance: Figure 5–7 over actual lattice labels.

``ConcreteAlgebra`` interprets every ``require_*`` hook by *evaluating*
the side condition with the lattice and emitting an
:class:`~repro.ifc.errors.IfcDiagnostic` when it fails.  Running
:class:`~repro.flow.analysis.FlowAnalysis` with this algebra is the P4BID
security checker; :class:`repro.ifc.checker.IfcChecker` is a thin façade
over exactly that.

Function bodies are analysed in two passes (``rechecks_bodies``): a
*silent* walk under a ⊥ pc collects the labels the body writes at (their
meet is ``pc_fn``), then the body is re-checked for real under ``pc_fn``.
Diagnostics, Core P4 diagnostics and declassification audit events are
suppressed during the silent walk so nothing is reported twice.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterable, Iterator, List, Optional, Sequence

from repro.flow.algebra import LabelAlgebra, RuleSite
from repro.ifc.context import SecurityTypeDefs
from repro.ifc.convert import TypeLabeler
from repro.ifc.declassify import DeclassificationEvent
from repro.ifc.errors import IfcDiagnostic, ViolationKind
from repro.ifc.security_types import (
    SecurityType,
    flow_allowed,
    labels_equal,
    read_label,
    write_label,
)
from repro.lattice.base import Label, Lattice
from repro.syntax import declarations as d
from repro.syntax.source import SourceSpan
from repro.syntax.types import inference_marker_guidance, is_inference_marker
from repro.typechecker.errors import TypeDiagnostic


class ConcreteUnit:
    """What the concrete walk of one top-level unit reported."""

    __slots__ = ("diagnostics", "declassifications", "core")

    def __init__(
        self,
        diagnostics: List[IfcDiagnostic],
        declassifications: List[DeclassificationEvent],
        core: Optional[List[TypeDiagnostic]],
    ) -> None:
        self.diagnostics = diagnostics
        self.declassifications = declassifications
        self.core = core


class ConcreteAlgebra(LabelAlgebra):
    """Label algebra whose carrier is the lattice itself."""

    rechecks_bodies = True

    def __init__(self, lattice: Lattice, *, allow_declassification: bool = False) -> None:
        super().__init__(lattice, allow_declassification=allow_declassification)
        self.diagnostics: List[IfcDiagnostic] = []
        self.declassifications: List[DeclassificationEvent] = []
        self._silent_depth = 0

    # ------------------------------------------------------------------ carrier

    @property
    def bottom(self) -> Label:
        return self.lattice.bottom

    def coerce(self, label: Label) -> Label:
        return label

    def join(self, *labels: Label) -> Label:
        return self.lattice.join_all(labels)

    def meet_all(self, labels: Iterable[Label]) -> Label:
        return self.lattice.meet_all(labels)

    def read_label(self, sec_type: SecurityType) -> Label:
        return read_label(self.lattice, sec_type)

    def write_label(self, sec_type: SecurityType) -> Label:
        return write_label(self.lattice, sec_type)

    # ------------------------------------------------------------------ resolution

    def make_labeler(self, definitions: SecurityTypeDefs) -> TypeLabeler:
        return TypeLabeler(self.lattice, definitions)

    def resolve_control_pc(self, control: d.ControlDecl) -> Label:
        if control.pc_label is None:
            return self.lattice.bottom
        try:
            return self.lattice.parse_label(control.pc_label)
        except Exception:
            if is_inference_marker(control.pc_label):
                message = inference_marker_guidance(
                    control.pc_label, construct="@pc annotation"
                )
            else:
                message = (
                    f"unknown pc label {control.pc_label!r} on control "
                    f"{control.name!r}"
                )
            self.error(ViolationKind.LABEL_ERROR, message, control.span, rule="@pc")
            return self.lattice.bottom

    # ------------------------------------------------------------------ rule sites

    def require_leq(self, lhs: Label, rhs: Label, site: RuleSite) -> None:
        self.note_site(site)
        if not self.lattice.leq(lhs, rhs):
            self._emit(
                site.kind, site.render(self.lattice, lhs=lhs, rhs=rhs), site.span, site.rule
            )

    def require_flow(
        self, source: SecurityType, destination: SecurityType, site: RuleSite
    ) -> None:
        self.note_site(site)
        if not flow_allowed(self.lattice, source, destination):
            self._emit(
                site.kind,
                site.render(
                    self.lattice,
                    src=read_label(self.lattice, source),
                    dst=destination.label,
                    dst_read=read_label(self.lattice, destination),
                ),
                site.span,
                site.rule,
            )

    def require_labels_equal(
        self, left: SecurityType, right: SecurityType, site: RuleSite
    ) -> None:
        self.note_site(site)
        if not labels_equal(self.lattice, left, right):
            self._emit(
                site.kind,
                site.render(
                    self.lattice,
                    src=read_label(self.lattice, left),
                    dst=read_label(self.lattice, right),
                ),
                site.span,
                site.rule,
            )

    def error(
        self, kind: ViolationKind, message: str, span: SourceSpan, rule: str
    ) -> None:
        self._emit(kind, message, span, rule)

    def type_error(self, message: str, span: SourceSpan, rule: str) -> None:
        self._emit(ViolationKind.TYPE_ERROR, message, span, rule)

    def _emit(
        self, kind: ViolationKind, message: str, span: SourceSpan, rule: str
    ) -> None:
        if self._silent_depth == 0:
            self.diagnostics.append(IfcDiagnostic(kind, message, span, rule))

    # ------------------------------------------------------------------ declassification

    def record_declassification(
        self, primitive: str, expression: str, sec_type: SecurityType, span: SourceSpan
    ) -> None:
        if self._silent_depth == 0:
            self.declassifications.append(
                DeclassificationEvent(
                    primitive,
                    expression,
                    read_label(self.lattice, sec_type),
                    self.lattice.bottom,
                    span,
                )
            )

    # ------------------------------------------------------------------ per-unit outputs

    def begin_unit(self) -> None:
        self.diagnostics = []
        self.declassifications = []
        self.core = []

    def end_unit(self) -> ConcreteUnit:
        return ConcreteUnit(self.diagnostics, self.declassifications, self.core)

    def merge_units(self, outputs: Sequence[ConcreteUnit]) -> None:
        self.diagnostics = [diag for unit in outputs for diag in unit.diagnostics]
        self.declassifications = [
            event for unit in outputs for event in unit.declassifications
        ]

    # ------------------------------------------------------------------ traversal hooks

    @contextmanager
    def write_bound_pass(self) -> Iterator[None]:
        self._silent_depth += 1
        self.core_quiet += 1
        try:
            yield
        finally:
            self._silent_depth -= 1
            self.core_quiet -= 1
