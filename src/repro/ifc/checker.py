"""The IFC type checker: Figures 5 (expressions), 6 (statements), 7 (declarations).

The checker walks the same AST as the ordinary type checker but tracks a
security type ``⟨τ, χ⟩`` for every expression and a program-counter label
``pc`` for every statement.  Violations are collected as
:class:`~repro.ifc.errors.IfcDiagnostic` values rather than raised, so a
single run reports every leak in a program (the behaviour of the P4BID
tool built on p4c).

Since the ``repro.flow`` refactor the Figure 5–7 rule walk itself lives in
:class:`~repro.flow.analysis.FlowAnalysis`; :class:`IfcChecker` is a thin
façade that runs the shared traversal with the
:class:`~repro.flow.concrete.ConcreteAlgebra` (carrier: concrete lattice
labels, ``⊑`` evaluated immediately).  The constraint generator of
:mod:`repro.inference` runs the *same* traversal with a symbolic algebra,
so the two interpretations cannot drift.

The walk runs one top-level unit at a time through the per-unit loop
(:func:`repro.flow.units.drive_units`).  :func:`check_ifc` without a
``cache`` checks every unit; a long-lived
:class:`~repro.workspace.Workspace` passes one, so re-checking an edited
program (or its elaboration) replays the recorded effects of the units
whose checked nodes (and declarers) did not change and re-checks only
the rest -- the same unmodified rules, over fewer units.

Write-effect inference
----------------------

The typing rules take the function bound ``pc_fn`` and the table bound
``pc_tbl`` as given (they appear in the types).  An implementation must
*infer* them: ``pc_fn`` is the greatest lower bound of the labels the
function body writes (assignment targets, bounds of callees, ⊥ for
``exit``/``return`` which only type under a ⊥ pc), and ``pc_tbl`` is the
meet of the bounds of the table's actions.  T-TblDecl's side conditions
``χ_k ⊑ pc_fn_j`` then become checkable constraints between the inferred
bounds and the labels of the table keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.ifc.context import SecurityContext
from repro.ifc.convert import TypeLabeler
from repro.ifc.declassify import DeclassificationEvent
from repro.ifc.errors import IfcDiagnostic, IfcError, ViolationKind
# DIR_IN / DIR_INOUT / write_label live with the other security-type
# helpers; re-exported here because they have always been importable from
# the checker module.
from repro.ifc.security_types import (  # noqa: F401  (re-exports)
    DIR_IN,
    DIR_INOUT,
    SecurityType,
    write_label,
)
from repro.lattice.base import Label, Lattice
from repro.lattice.two_point import TwoPointLattice
from repro.syntax import declarations as d
from repro.syntax import expressions as e
from repro.syntax import statements as s
from repro.syntax.program import Program

if TYPE_CHECKING:  # pragma: no cover
    from repro.flow.units import UnitCache


@dataclass
class IfcCheckResult:
    """Outcome of IFC-checking a program."""

    program: Program
    lattice: Lattice
    diagnostics: List[IfcDiagnostic] = field(default_factory=list)
    #: Inferred write bounds: action name -> pc_fn.
    function_bounds: Dict[str, Label] = field(default_factory=dict)
    #: Inferred table bounds: table name -> pc_tbl.
    table_bounds: Dict[str, Label] = field(default_factory=dict)
    #: Audit trail of every honoured ``declassify``/``endorse`` use.
    declassifications: List[DeclassificationEvent] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.diagnostics

    def violations(self, kind: ViolationKind) -> List[IfcDiagnostic]:
        return [diag for diag in self.diagnostics if diag.kind == kind]

    def raise_on_error(self) -> "IfcCheckResult":
        if self.diagnostics:
            raise IfcError(self.diagnostics)
        return self


class IfcChecker:
    """Checks a program against the security type system of Section 4.

    A façade over the shared Figure 5–7 traversal
    (:class:`repro.flow.analysis.FlowAnalysis`) instantiated with the
    concrete label algebra.  The ``check_*`` methods mirror the typing
    judgements and remain callable individually (e.g. for typing a single
    expression in tests); ``check_program`` starts from a fresh algebra so
    a checker instance can be reused.
    """

    def __init__(
        self,
        lattice: Optional[Lattice] = None,
        *,
        allow_declassification: bool = False,
    ) -> None:
        self._lattice = lattice or TwoPointLattice()
        self._allow_declassification = allow_declassification
        self._fresh()

    def _fresh(self) -> None:
        from repro.flow.analysis import FlowAnalysis
        from repro.flow.concrete import ConcreteAlgebra

        self._algebra = ConcreteAlgebra(
            self._lattice, allow_declassification=self._allow_declassification
        )
        self._analysis = FlowAnalysis(self._algebra)

    @property
    def lattice(self) -> Lattice:
        return self._lattice

    @property
    def _diagnostics(self) -> List[IfcDiagnostic]:
        """The diagnostics collected so far (shared with the algebra)."""
        return self._algebra.diagnostics

    # ------------------------------------------------------------------ entry points

    def check_program(
        self, program: Program, cache: Optional["UnitCache"] = None
    ) -> IfcCheckResult:
        """Check ``program`` one top-level unit at a time; with a
        ``cache`` (:class:`repro.flow.units.UnitCache`), units it holds
        valid products for are replayed instead of re-checked."""
        self._fresh()
        self._analysis.run(program, cache)
        return IfcCheckResult(
            program,
            self._lattice,
            list(self._algebra.diagnostics),
            dict(self._analysis.function_bounds),
            dict(self._analysis.table_bounds),
            list(self._algebra.declassifications),
        )

    def check_control(
        self,
        control: d.ControlDecl,
        gamma: SecurityContext,
        labeler: TypeLabeler,
    ) -> None:
        self._analysis.check_control(control, gamma, labeler)

    def check_declaration(
        self,
        decl: d.Declaration,
        gamma: SecurityContext,
        labeler: TypeLabeler,
        pc: Label,
    ) -> SecurityContext:
        return self._analysis.check_declaration(decl, gamma, labeler, pc)

    def check_statement(
        self,
        stmt: s.Statement,
        gamma: SecurityContext,
        labeler: TypeLabeler,
        pc: Label,
    ) -> SecurityContext:
        return self._analysis.check_statement(stmt, gamma, labeler, pc)

    def check_expression(
        self,
        expr: e.Expression,
        gamma: SecurityContext,
        labeler: TypeLabeler,
        pc: Label,
    ) -> Tuple[Optional[SecurityType], str]:
        """Type an expression; returns ``(security type, direction)``."""
        return self._analysis.check_expression(expr, gamma, labeler, pc)


def check_ifc(
    program: Program,
    lattice: Optional[Lattice] = None,
    *,
    allow_declassification: bool = False,
    cache: Optional["UnitCache"] = None,
) -> IfcCheckResult:
    """Run the IFC checker over ``program`` under ``lattice`` (default two-point).

    ``cache`` is for long-lived callers re-checking successive revisions
    (:meth:`repro.workspace.Workspace.recheck_cache`); without one every
    unit is checked.
    """
    return IfcChecker(
        lattice, allow_declassification=allow_declassification
    ).check_program(program, cache)
