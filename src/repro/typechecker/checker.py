"""The ordinary Core P4 type checker: the flow walk without labels.

Core P4's judgements, which the paper recalls in Section 3.3
(``Γ, Δ ⊢ exp : κ goes d``, ``Γ, Δ ⊢ stmt ⊣ Γ'``,
``Γ, Δ ⊢ decl ⊣ Γ', Δ'``), are the type component of the Figure 5–7
rules.  :class:`~repro.flow.analysis.FlowAnalysis` reports them on every
walk, under any algebra, as the unit's core diagnostics
(:attr:`LabelAlgebra.core <repro.flow.algebra.LabelAlgebra.core>`), so a
check reads them from its first walk over the source.
:func:`check_core_types` is that walk with :class:`LabelFreeAlgebra`:
labels are ignored, so it needs no lattice, and an unknown type name
binds ``unit``.  The diagnostics are collected, not raised, so the CLI
can report every problem in a file, as p4c does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence

from repro.flow.algebra import LabelAlgebra, RuleSite
from repro.flow.analysis import FlowAnalysis
from repro.ifc.context import SecurityTypeDefs
from repro.ifc.convert import LabelResolutionError, TypeLabeler
from repro.ifc.errors import ViolationKind
from repro.ifc.security_types import SUnit, SUnresolved, SecurityType
from repro.lattice.two_point import TwoPointLattice
from repro.syntax import declarations as d
from repro.syntax.program import Program
from repro.syntax.source import SourceSpan
from repro.syntax.types import AnnotatedType
from repro.typechecker.errors import CoreTypeError, TypeDiagnostic

if TYPE_CHECKING:  # pragma: no cover
    from repro.flow.units import UnitCache


@dataclass
class CoreCheckResult:
    """Outcome of running the ordinary type checker over a program."""

    program: Program
    diagnostics: List[TypeDiagnostic] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.diagnostics

    def raise_on_error(self) -> "CoreCheckResult":
        if self.diagnostics:
            raise CoreTypeError(self.diagnostics)
        return self


class _LabelFreeLabeler(TypeLabeler):
    """Resolves types and ignores their annotations.  A field's type that
    does not resolve is reported where the field is projected, as Core
    P4's lazy unfolding does."""

    def attach_label(self, annotated: AnnotatedType, base: SecurityType) -> SecurityType:
        return base

    def field_type(self, annotated: AnnotatedType, seen: frozenset) -> SecurityType:
        try:
            return self.security_type(annotated, seen=seen)
        except LabelResolutionError as exc:
            return SecurityType(SUnresolved(str(exc)), self.lattice.bottom)


class LabelFreeAlgebra(LabelAlgebra):
    """The flow walk without labels: every label is the two-point ⊥,
    every ``require_*`` holds, and only the core diagnostics are kept."""

    def __init__(self) -> None:
        super().__init__(TwoPointLattice())

    @property
    def bottom(self):
        return self.lattice.bottom

    def coerce(self, label):
        return self.lattice.bottom

    def join(self, *labels):
        return self.lattice.bottom

    def meet_all(self, labels: Iterable):
        return self.lattice.bottom

    def read_label(self, sec_type: SecurityType):
        return self.lattice.bottom

    def write_label(self, sec_type: SecurityType):
        return self.lattice.bottom

    def make_labeler(self, definitions: SecurityTypeDefs) -> TypeLabeler:
        return _LabelFreeLabeler(self.lattice, definitions)

    def resolve_control_pc(self, control: d.ControlDecl):
        return self.lattice.bottom

    def require_leq(self, lhs, rhs, site: RuleSite) -> None:
        pass

    def require_flow(
        self, source: SecurityType, destination: SecurityType, site: RuleSite
    ) -> None:
        pass

    def require_labels_equal(
        self, left: SecurityType, right: SecurityType, site: RuleSite
    ) -> None:
        pass

    def error(
        self, kind: ViolationKind, message: str, span: SourceSpan, rule: str
    ) -> None:
        pass

    def unresolved_type(
        self, error: LabelResolutionError, span: SourceSpan
    ) -> Optional[SecurityType]:
        # Only a type name can fail here: Core P4 reports it and binds unit.
        self.core_error(str(error), span, "typedef")
        return SecurityType(SUnit(), self.lattice.bottom)

    def begin_unit(self) -> None:
        self.core = []

    def end_unit(self) -> List[TypeDiagnostic]:
        return self.core

    def merge_units(self, outputs: Sequence[List[TypeDiagnostic]]) -> None:
        self.core = [diag for unit in outputs for diag in unit]


def check_core_types(
    program: Program, cache: Optional["UnitCache"] = None
) -> CoreCheckResult:
    """Run the ordinary type checker over ``program``: the label-free walk.

    A ``cache`` (:class:`repro.flow.units.UnitCache`) lets a long-lived
    caller re-check only the units an edit invalidated.
    """
    algebra = LabelFreeAlgebra()
    FlowAnalysis(algebra).run(program, cache)
    return CoreCheckResult(program, list(algebra.core))
