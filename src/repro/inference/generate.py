"""Constraint generation: the Figure 5–7 rules, with unknowns.

:class:`ConstraintGenerator` visits the same rule sites as
:class:`repro.ifc.checker.IfcChecker` -- literally: both are façades over
the single shared traversal :class:`repro.flow.analysis.FlowAnalysis`.
Where the checker's algebra *tests* ``χ₁ ⊑ χ₂`` and reports a violation,
the generator's :class:`~repro.flow.symbolic.SymbolicAlgebra` *emits* the
comparison as a :class:`~repro.inference.constraints.Constraint` over
label terms.  Security types are reused unchanged -- their ``label``
slots simply hold :class:`~repro.inference.terms.Term`\\ s instead of
concrete labels -- so the structural machinery of Figure 4 (field maps,
body compatibility, stacks) needs no duplication.

Label variables enter through :class:`InferenceLabeler`, a
:class:`~repro.ifc.convert.TypeLabeler` whose :meth:`attach_label` hook
allocates a fresh variable for every scalar annotation slot that is missing
or explicitly marked ``infer``, instead of defaulting to ⊥ or raising
:class:`~repro.ifc.convert.LabelResolutionError`.  Slots are memoised by
AST node, so every use of a ``typedef``/``header`` field shares the single
variable of its declaration site -- inference assigns labels to
*declarations*, exactly where the annotation would be written.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Dict, List, Optional, Tuple

from repro.ifc.context import SecurityTypeDefs
from repro.ifc.convert import LabelResolutionError, TypeLabeler
from repro.ifc.errors import IfcDiagnostic
from repro.ifc.security_types import (
    SHeader,
    SRecord,
    SStack,
    SecurityType,
)
from repro.inference.constraints import Constraint
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
from repro.syntax.program import Program
from repro.syntax.source import SourceSpan
from repro.syntax.types import AnnotatedType, is_inference_marker

# ---------------------------------------------------------------------------
# term-level analogues of the security-type helpers


def term_read_label(lattice: Lattice, sec_type: SecurityType) -> Term:
    """Term analogue of :func:`repro.ifc.security_types.read_label`."""
    body = sec_type.body
    if isinstance(body, (SRecord, SHeader)):
        return join_terms(
            lattice,
            [sec_type.label] + [term_read_label(lattice, f) for _, f in body.fields],
        )
    if isinstance(body, SStack):
        return join_terms(
            lattice, [sec_type.label, term_read_label(lattice, body.element)]
        )
    return as_term(sec_type.label)


def term_write_label(lattice: Lattice, sec_type: SecurityType) -> Term:
    """Term analogue of :func:`repro.ifc.checker.write_label`."""
    body = sec_type.body
    if isinstance(body, (SRecord, SHeader)):
        return meet_terms(
            lattice,
            [term_write_label(lattice, f) for _, f in body.fields] or [sec_type.label],
        )
    if isinstance(body, SStack):
        return term_write_label(lattice, body.element)
    return as_term(sec_type.label)


def term_join_into(lattice: Lattice, sec_type: SecurityType, term: Term) -> SecurityType:
    """Term analogue of :func:`repro.ifc.security_types.join_into`."""
    body = sec_type.body
    if isinstance(body, (SRecord, SHeader)):
        fields = tuple(
            (name, term_join_into(lattice, f, term)) for name, f in body.fields
        )
        return SecurityType(body.with_fields(fields), sec_type.label)
    if isinstance(body, SStack):
        return SecurityType(
            SStack(term_join_into(lattice, body.element, term), body.size),
            sec_type.label,
        )
    return SecurityType(body, join_terms(lattice, [sec_type.label, term]))


# ---------------------------------------------------------------------------
# label-variable sites


@dataclass
class InferenceSite:
    """One annotation slot a label variable stands for.

    ``augments`` marks a use-site variable joined *onto* an underlying
    non-bottom label (``a_t x`` over an annotated ``typedef a_t``): the slot
    can raise the effective label but never lower it, and elaboration omits
    the annotation entirely when such a variable solves to ⊥.  ``floor`` is
    that underlying label, so reports can show the slot's *effective* label
    (``floor ⊔ solved``) rather than the bare variable's value.
    """

    var: LabelVar
    node: AnnotatedType
    augments: bool = False
    floor: Optional[object] = None

    @property
    def hint(self) -> str:
        return self.var.hint

    @property
    def span(self) -> SourceSpan:
        return self.node.span


class SiteRegistry:
    """Maps annotation-slot AST nodes to their label variables.

    Keyed by node identity: the registry keeps every node alive, so ``id``
    reuse cannot alias two different slots, and repeated resolution of the
    same ``typedef``/``header`` field always yields the same variable.

    A suggested hint stays until :meth:`forget_hints` drops it: a
    workspace keeps the hints of a declaration for as long as the
    declaration is live, since a later revision may give one of its
    slots a variable without walking the declaration again.
    """

    def __init__(self, supply: VarSupply) -> None:
        self._supply = supply
        self._sites: Dict[int, InferenceSite] = {}
        #: Pending hints, keyed by node identity; the node itself is kept
        #: (not just its id) so the mapping survives serialization, where
        #: ids are reassigned on load.
        self._hints: Dict[int, Tuple[AnnotatedType, str]] = {}
        self._order: List[InferenceSite] = []
        #: When not None, every ``var_for`` resolution (fresh *or* memoised)
        #: is appended here -- a workspace records one log per re-walked
        #: declaration to learn which sites the declaration touches -- and
        #: every hinted node to the hint log.
        self._touch_log: Optional[List[InferenceSite]] = None
        self._hint_log: List[AnnotatedType] = []
        #: Sites made since the last :meth:`restrict_to`.
        self._created: List[InferenceSite] = []

    def suggest_hint(self, node: AnnotatedType, hint: str) -> None:
        self._hints.setdefault(id(node), (node, hint))
        if self._touch_log is not None:
            self._hint_log.append(node)

    def forget_hints(self, nodes: List[AnnotatedType]) -> None:
        """Drop the hints suggested for ``nodes``."""
        hints = self._hints
        for node in nodes:
            hinted = hints.get(id(node))
            if hinted is not None and hinted[0] is node:
                del hints[id(node)]

    def var_for(
        self,
        node: AnnotatedType,
        *,
        augments: bool = False,
        floor: object = None,
    ) -> LabelVar:
        site = self._sites.get(id(node))
        if site is None:
            # Without a suggested hint the variable names the slot by its
            # position, rendered when read.
            hinted = self._hints.get(id(node))
            hint = hinted[1] if hinted is not None else None
            site = InferenceSite(
                self._supply.fresh(hint, node.span), node, augments, floor
            )
            self._sites[id(node)] = site
            self._order.append(site)
            if self._touch_log is not None:
                self._created.append(site)
        if self._touch_log is not None:
            self._touch_log.append(site)
        return site.var

    def site_of(self, node: AnnotatedType) -> Optional[InferenceSite]:
        return self._sites.get(id(node))

    def sites(self) -> List[InferenceSite]:
        return list(self._order)

    # -- workspace support --------------------------------------------------

    def begin_touch_log(self) -> None:
        self._touch_log = []
        self._hint_log = []

    def end_touch_log(self) -> Tuple[List[InferenceSite], List[AnnotatedType]]:
        """The sites resolved and the nodes hinted since the log began."""
        log, self._touch_log = self._touch_log or [], None
        hinted, self._hint_log = self._hint_log, []
        return log, hinted

    def restrict_to(self, sites: List[InferenceSite]) -> List[InferenceSite]:
        """Replace the site order, dropping the sites of nodes that are no
        longer live (deleted or re-parsed declarations).

        Returns the sites this dropped and those made since the last call:
        the slots whose variable changed.
        """
        old = self._sites
        self._order = list(sites)
        self._sites = new = {id(site.node): site for site in self._order}
        changed, self._created = self._created, []
        changed.extend(old[key] for key in old.keys() - new.keys())
        return changed


class InferenceLabeler(TypeLabeler):
    """A :class:`TypeLabeler` producing term labels and label variables."""

    def __init__(
        self,
        lattice: Lattice,
        definitions: SecurityTypeDefs,
        registry: SiteRegistry,
    ) -> None:
        super().__init__(lattice, definitions)
        self._registry = registry

    def resolve_label(self, text: Optional[str]):
        if text is None:
            return ConstTerm(self.lattice.bottom)
        try:
            return ConstTerm(self.lattice.parse_label(text))
        except LatticeError as exc:
            if is_inference_marker(text):
                return ConstTerm(self.lattice.bottom)
            raise LabelResolutionError(str(exc)) from exc

    def slot_is_open(self, label: Optional[str]) -> bool:
        """Whether an annotation slot asks to be inferred.

        A spelling that names an actual lattice level is never open (a
        lattice may define a level called ``Infer``); only a missing
        annotation or an unparseable ``infer`` / ``?`` marker is.
        """
        if label is None:
            return True
        if not is_inference_marker(label):
            return False
        try:
            self.lattice.parse_label(label)
            return False
        except LatticeError:
            return True

    def attach_label(self, annotated: AnnotatedType, base: SecurityType) -> SecurityType:
        composite = isinstance(base.body, (SRecord, SHeader, SStack))
        missing = self.slot_is_open(annotated.label)
        if composite:
            # Per-field slots carry the variables; the use-site slot only
            # matters when it names an explicit label to join in.
            if missing:
                return base
            return term_join_into(self._lattice, base, self.resolve_label(annotated.label))
        if not missing:
            return SecurityType(
                base.body,
                join_terms(
                    self._lattice, [base.label, self.resolve_label(annotated.label)]
                ),
            )
        # The slot is open.  A *raw* (non-term) label is the ⊥ placeholder
        # the base resolver puts on unannotated scalars -- a genuinely free
        # slot.  A term label came from another annotation slot: an explicit
        # declaration (ConstTerm) or a shared variable.
        if not isinstance(base.label, Term):
            return SecurityType(base.body, VarTerm(self._registry.var_for(annotated)))
        base_term = base.label
        if isinstance(base_term, ConstTerm):
            if self._lattice.equal(base_term.label, self._lattice.bottom):
                # The declaration explicitly pins the type public.  Joining a
                # variable onto ⊥ would simply *replace* the label, silently
                # overriding the declared sink -- keep it pinned, so a higher
                # flow into it is a conflict, exactly as for an explicit ⊥
                # annotation written at the use site.
                return SecurityType(base.body, base_term)
            # The declaration pins a non-⊥ label; the use site may still
            # *raise* it (join semantics): give the slot a variable joined
            # onto the base so flows above the base can be absorbed.
            var = self._registry.var_for(
                annotated, augments=True, floor=base_term.label
            )
            return SecurityType(
                base.body, join_terms(self._lattice, [base_term, VarTerm(var)])
            )
        # The underlying label is (or contains) another slot's variable --
        # declaration-site inference: share it, the flow can raise it there.
        return SecurityType(base.body, base_term)


# ---------------------------------------------------------------------------
# the generator


@dataclass
class GenerationResult:
    """Everything the constraint walk produced."""

    program: Program
    lattice: Lattice
    constraints: List[Constraint] = dataclass_field(default_factory=list)
    sites: List[InferenceSite] = dataclass_field(default_factory=list)
    registry: Optional[SiteRegistry] = None
    #: Label errors and other rule failures that are not flow constraints
    #: (unknown label spellings, forbidden declassification, ...).
    errors: List[IfcDiagnostic] = dataclass_field(default_factory=list)
    #: Inferred symbolic write bounds, by action / table name.
    function_bounds: Dict[str, Term] = dataclass_field(default_factory=dict)
    table_bounds: Dict[str, Term] = dataclass_field(default_factory=dict)
    #: Label variables standing for ``@pc(infer)`` control annotations,
    #: as (control, variable) pairs -- keyed by the declaration itself, not
    #: its name, since duplicate control names are legal.
    control_pc_vars: List[Tuple[d.ControlDecl, LabelVar]] = dataclass_field(
        default_factory=list
    )
    #: ``constraints`` split per top-level unit, in unit order (they
    #: concatenate to it).  A re-generated unit comes as a new list, so a
    #: persistent solver can patch its graph per unit by identity.
    buckets: List[List[Constraint]] = dataclass_field(default_factory=list)


class ConstraintGenerator:
    """Walks a program, mirroring the IFC rules, emitting constraints.

    A façade over the shared Figure 5–7 traversal
    (:class:`repro.flow.analysis.FlowAnalysis`) instantiated with the
    symbolic label algebra -- the checker runs the *same* traversal with
    the concrete algebra, so the generated constraints mirror the checked
    conditions by construction.
    """

    def __init__(
        self, lattice: Lattice, *, allow_declassification: bool = False
    ) -> None:
        from repro.flow.analysis import FlowAnalysis
        from repro.flow.symbolic import SymbolicAlgebra

        self._lattice = lattice
        self._algebra = SymbolicAlgebra(
            lattice, allow_declassification=allow_declassification
        )
        self._analysis = FlowAnalysis(self._algebra)

    def generate(self, program: Program) -> GenerationResult:
        self._analysis.run(program)
        algebra = self._algebra
        return GenerationResult(
            program,
            self._lattice,
            algebra.constraints,
            algebra.registry.sites(),
            algebra.registry,
            list(algebra.errors),
            dict(self._analysis.function_bounds),
            dict(self._analysis.table_bounds),
            list(algebra.control_pc_vars),
            algebra.buckets,
        )


def generate_constraints(
    program: Program,
    lattice: Lattice,
    *,
    allow_declassification: bool = False,
) -> GenerationResult:
    """Walk ``program`` and return its label-inference constraint system."""
    generator = ConstraintGenerator(
        lattice, allow_declassification=allow_declassification
    )
    return generator.generate(program)
