"""The symbolic instance: Figure 5–7 over label *terms*.

``SymbolicAlgebra`` interprets every ``require_*`` hook by appending the
side condition -- unevaluated, with full provenance -- to the current
unit's :class:`~repro.inference.constraints.ConstraintSet` over
:class:`~repro.inference.terms.Term`\\ s.  Running
:class:`~repro.flow.analysis.FlowAnalysis` with this algebra is the
label-inference constraint generator;
:class:`repro.inference.generate.ConstraintGenerator` is a thin façade
over exactly that.

Label variables enter through
:class:`~repro.inference.generate.InferenceLabeler`, whose
``attach_label`` hook allocates a fresh variable for every scalar
annotation slot that is missing or explicitly marked ``infer``.  Security
types are reused unchanged -- their ``label`` slots simply hold terms --
so the structural machinery of Figure 4 needs no duplication.

Function bodies are walked once (``rechecks_bodies`` is False): the
conditions a concrete re-walk under ``pc_fn`` would add hold by lattice
laws, except the ``pc ⊑ ⊥`` condition of T-Declassify, whose spans are
collected as obligations during the walk and emitted against the
symbolic ``pc_fn`` when the body finishes (see
:meth:`SymbolicAlgebra.exit_function_body`).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.flow.algebra import LabelAlgebra, RuleSite
from repro.ifc.context import SecurityTypeDefs
from repro.ifc.errors import IfcDiagnostic, ViolationKind
from repro.ifc.security_types import SHeader, SRecord, SStack, SecurityType
from repro.inference.constraints import Constraint, ConstraintSet
from repro.inference.generate import (
    InferenceLabeler,
    InferenceSite,
    SiteRegistry,
    term_read_label,
    term_write_label,
)
from repro.inference.terms import (
    ConstTerm,
    LabelVar,
    Term,
    VarSupply,
    VarTerm,
    as_term,
    join_terms,
    meet_terms,
)
from repro.lattice.base import Lattice, LatticeError
from repro.syntax import declarations as d
from repro.syntax.source import SourceSpan
from repro.syntax.types import AnnotatedType, is_inference_marker
from repro.typechecker.errors import TypeDiagnostic


class SymbolicUnit:
    """What the symbolic walk of one top-level unit generated.

    ``touches`` lists every annotation site the walk resolved (fresh or
    memoised), in order -- the sites this unit keeps alive -- and
    ``hinted`` the slots it suggested hints for.  ``core`` holds the
    unit's Core P4 diagnostics (see :attr:`LabelAlgebra.core
    <repro.flow.algebra.LabelAlgebra.core>`).
    """

    __slots__ = ("constraints", "errors", "pc_vars", "core", "touches", "hinted", "_unique")

    def __init__(
        self,
        constraints: List[Constraint],
        errors: List[IfcDiagnostic],
        pc_vars: List[Tuple[d.ControlDecl, LabelVar]],
        core: Optional[List[TypeDiagnostic]],
        touches: List[InferenceSite],
        hinted: List[AnnotatedType],
    ) -> None:
        self.constraints = constraints
        self.errors = errors
        self.pc_vars = pc_vars
        self.core = core
        self.touches = touches
        self.hinted = hinted
        self._unique: Optional[Dict[int, InferenceSite]] = None

    def unique_touches(self) -> Dict[int, InferenceSite]:
        """``touches`` without repeats, by site id, in first-touch order."""
        if self._unique is None:
            self._unique = {id(site): site for site in self.touches}
        return self._unique


class SymbolicAlgebra(LabelAlgebra):
    """Label algebra whose carrier is terms over label variables."""

    rechecks_bodies = False
    wants_hints = True

    def __init__(self, lattice: Lattice, *, allow_declassification: bool = False) -> None:
        super().__init__(lattice, allow_declassification=allow_declassification)
        self.supply = VarSupply()
        self.registry = SiteRegistry(self.supply)
        #: The constraints of the unit being walked, duplicate-free.
        self._unit_constraints = ConstraintSet()
        #: After a whole-program walk: the constraints per top-level unit,
        #: in unit order, and their concatenation.
        self.buckets: List[List[Constraint]] = []
        self.constraints: List[Constraint] = []
        self.errors: List[IfcDiagnostic] = []
        #: Label variables standing for ``@pc(infer)`` control annotations,
        #: as (control, variable) pairs -- keyed by the declaration itself,
        #: not its name, since duplicate control names are legal.
        self.control_pc_vars: List[Tuple[d.ControlDecl, LabelVar]] = []
        #: Spans of declassify uses in the enclosing function body: each one
        #: obliges ``pc_fn ⊑ ⊥`` once the bound is known.
        self._pc_obligations: List[List[SourceSpan]] = []
        self._bottom = ConstTerm(lattice.bottom)

    # ------------------------------------------------------------------ carrier

    @property
    def bottom(self) -> Term:
        return self._bottom

    def coerce(self, label: object) -> Term:
        return as_term(label)

    def join(self, *labels: object) -> Term:
        return join_terms(self.lattice, labels)

    def meet_all(self, labels: Iterable) -> Term:
        return meet_terms(self.lattice, labels)

    def read_label(self, sec_type: SecurityType) -> Term:
        return term_read_label(self.lattice, sec_type)

    def write_label(self, sec_type: SecurityType) -> Term:
        return term_write_label(self.lattice, sec_type)

    # ------------------------------------------------------------------ resolution

    def make_labeler(self, definitions: SecurityTypeDefs) -> InferenceLabeler:
        return InferenceLabeler(self.lattice, definitions, self.registry)

    def resolve_control_pc(self, control: d.ControlDecl) -> Term:
        if control.pc_label is None:
            return self._bottom
        try:
            return ConstTerm(self.lattice.parse_label(control.pc_label))
        except LatticeError:
            if is_inference_marker(control.pc_label):
                var = self.supply.fresh(f"pc of control {control.name}", control.span)
                self.control_pc_vars.append((control, var))
                return VarTerm(var)
            self.error(
                ViolationKind.LABEL_ERROR,
                f"unknown pc label {control.pc_label!r} on control {control.name!r}",
                control.span,
                rule="@pc",
            )
            return self._bottom

    # ------------------------------------------------------------------ rule sites

    def _constrain(self, lhs: object, rhs: object, site: RuleSite) -> None:
        lhs_term, rhs_term = as_term(lhs), as_term(rhs)
        if isinstance(lhs_term, ConstTerm) and isinstance(rhs_term, ConstTerm):
            if self.lattice.leq(lhs_term.label, rhs_term.label):
                return  # trivially satisfied; keep the system small
        elif lhs_term == self._bottom:
            return  # ⊥ flows anywhere
        recorder = self.telemetry
        if recorder.enabled:
            recorder.count("constraints.emitted." + site.rule)
        self._unit_constraints.add(
            Constraint(lhs_term, rhs_term, site.span, site.rule, site.kind, site.reason)
        )

    def require_leq(self, lhs: object, rhs: object, site: RuleSite) -> None:
        self.note_site(site)
        self._constrain(lhs, rhs, site)
        if site.pc_obligation and self._pc_obligations:
            self._pc_obligations[-1].append(site.span)

    def require_flow(
        self, source: SecurityType, destination: SecurityType, site: RuleSite
    ) -> None:
        self.note_site(site)
        self._flow(source, destination, site)

    def _flow(
        self, source: SecurityType, destination: SecurityType, site: RuleSite
    ) -> None:
        """Term analogue of ``flow_allowed``: one constraint per leaf."""
        src_body, dst_body = source.body, destination.body
        if isinstance(dst_body, (SRecord, SHeader)) and type(src_body) is type(dst_body):
            src_map = src_body.field_map()
            for name, dst_field in dst_body.fields:
                src_field = src_map.get(name)
                if src_field is None:
                    return
                self._flow(src_field, dst_field, site)
            return
        if isinstance(dst_body, SStack) and isinstance(src_body, SStack):
            if dst_body.size != src_body.size:
                return
            self._flow(src_body.element, dst_body.element, site)
            return
        self._constrain(source.label, destination.label, site)

    def require_labels_equal(
        self, left: SecurityType, right: SecurityType, site: RuleSite
    ) -> None:
        self.note_site(site)
        # Equality is both directions of ⊑, leaf-wise.
        self._flow(left, right, site)
        self._flow(right, left, site)

    def error(
        self, kind: ViolationKind, message: str, span: SourceSpan, rule: str
    ) -> None:
        self.errors.append(IfcDiagnostic(kind, message, span, rule))

    # ------------------------------------------------------------------ per-unit outputs

    def begin_unit(self) -> None:
        self._unit_constraints = ConstraintSet()
        self.errors = []
        self.control_pc_vars = []
        self.core = []
        self.registry.begin_touch_log()

    def end_unit(self) -> SymbolicUnit:
        return SymbolicUnit(
            self._unit_constraints.as_list(),
            self.errors,
            self.control_pc_vars,
            self.core,
            *self.registry.end_touch_log(),
        )

    def merge_units(self, outputs: Sequence[SymbolicUnit]) -> None:
        # Each unit's constraints are already duplicate-free, and the dedup
        # key includes the span, so no two units emit the same constraint:
        # the buckets concatenate, in unit order, into exactly what one
        # deduplicating walk would have emitted.
        self.buckets = [unit.constraints for unit in outputs]
        self.constraints = [c for bucket in self.buckets for c in bucket]
        errors: List[IfcDiagnostic] = []
        pc_vars: List[Tuple[d.ControlDecl, LabelVar]] = []
        for unit in outputs:
            errors.extend(unit.errors)
            pc_vars.extend(unit.pc_vars)
        self.errors = errors
        self.control_pc_vars = pc_vars

    # ------------------------------------------------------------------ traversal hooks

    def suggest_hint(self, node: AnnotatedType, hint: str) -> None:
        self.registry.suggest_hint(node, hint)

    def enter_function_body(self, name: str) -> None:
        self._pc_obligations.append([])

    def exit_function_body(self, name: str, pc_fn: Term) -> None:
        obligations = self._pc_obligations.pop()
        for span in obligations:
            self._constrain(
                pc_fn,
                self._bottom,
                RuleSite(
                    span,
                    rule="T-Declassify",
                    kind=ViolationKind.IMPLICIT_FLOW,
                    reason=lambda: (
                        f"declassification inside {name!r} requires the "
                        "function's write bound pc_fn to be public"
                    ),
                ),
            )
