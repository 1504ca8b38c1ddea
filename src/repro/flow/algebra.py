"""The ``LabelAlgebra`` protocol: one ruleset, two interpretations.

The Figure 5–7 typing rules are a *traversal shape* plus a handful of
label-algebraic operations: joins at T-BinOp and branch program counters,
meets when folding write bounds into ``pc_fn`` / ``pc_tbl``, and ``⊑``
side conditions everywhere a value, guard, or key flows somewhere.  The
checker and the constraint generator used to implement the shape twice --
once testing ``⊑`` over concrete labels, once emitting it as a constraint
over terms.  A :class:`LabelAlgebra` abstracts exactly that difference:

* the **carrier**: what sits in the ``label`` slot of a
  :class:`~repro.ifc.security_types.SecurityType` (a concrete
  :data:`~repro.lattice.base.Label`, or a
  :class:`~repro.inference.terms.Term` over label variables);
* ``join`` / ``meet_all`` / ``read_label`` / ``write_label`` /
  ``lower_to_bottom`` over that carrier;
* the ``require_*`` hooks, which receive every ``⊑`` side condition the
  rules impose together with a :class:`RuleSite` describing *which* rule
  imposed it and why.  The concrete algebra evaluates the condition and
  emits an :class:`~repro.ifc.errors.IfcDiagnostic` when it fails; the
  symbolic algebra appends it, provenance and all, to a constraint system.

:class:`~repro.flow.analysis.FlowAnalysis` walks the AST exactly once and
is the only implementation of the traversal shape; the two algebra
instances live in :mod:`repro.flow.concrete` and
:mod:`repro.flow.symbolic`.  A third instance (bounded label polymorphism
for functions shared between tables) can be added without touching the
traversal -- that is the point of the parameterization.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Union

from repro.ifc.context import SecurityTypeDefs
from repro.ifc.convert import LabelResolutionError, TypeLabeler
from repro.ifc.errors import ViolationKind
from repro.ifc.security_types import SecurityType, lower_labels
from repro.lattice.base import Lattice
from repro.telemetry.recorder import current_recorder
from repro.syntax import declarations as d
from repro.syntax.source import SourceSpan
from repro.syntax.types import AnnotatedType
from repro.typechecker.errors import TypeDiagnostic


#: Rule-site text: the text itself, or a zero-argument callable making it.
SiteText = Union[str, Callable[[], str]]


class RuleSite:
    """One rule application site: where a ``⊑`` side condition comes from.

    ``reason`` is the constraint-IR provenance (phrased like the
    generator's reasons); ``message`` is the concrete diagnostic template,
    in which the tokens ``{lhs}``/``{rhs}`` (for :meth:`LabelAlgebra.require_leq`)
    or ``{src}``/``{dst}``/``{dst_read}`` (for flow checks) are replaced with
    the formatted labels of the failing comparison.  Token substitution is
    plain string replacement, so expression renderings inside the template
    cannot collide with ``str.format`` brace parsing.

    Either text may be given as a zero-argument callable: most sites hold
    (or are folded away as trivial), so the walk builds no text up front,
    and each is made on first read and kept.  A callable built in a loop
    must bind the loop's variables when it is made.
    """

    __slots__ = ("span", "rule", "kind", "_reason", "_message", "pc_obligation")

    def __init__(
        self,
        span: SourceSpan,
        rule: str,
        kind: ViolationKind,
        reason: SiteText,
        message: SiteText = "",
        pc_obligation: bool = False,
    ) -> None:
        self.span = span
        self.rule = rule
        self.kind = kind
        self._reason = reason
        self._message = message
        #: Marks the ``pc ⊑ ⊥`` condition of T-Declassify, which additionally
        #: obliges the *enclosing function's* write bound to be public.  The
        #: concrete algebra discharges that by re-checking the body under
        #: ``pc_fn``; the symbolic algebra records the span and emits
        #: ``pc_fn ⊑ ⊥`` when the body walk finishes.
        self.pc_obligation = pc_obligation

    @property
    def reason(self) -> str:
        reason = self._reason
        if not isinstance(reason, str):
            reason = self._reason = reason()
        return reason

    @property
    def message(self) -> str:
        message = self._message
        if not isinstance(message, str):
            message = self._message = message()
        return message

    def render(self, lattice: Lattice, **labels: object) -> str:
        """The concrete diagnostic text, with label tokens substituted."""
        text = self.message or self.reason
        for token, label in labels.items():
            text = text.replace("{" + token + "}", lattice.format_label(label))
        return text


class LabelAlgebra(ABC):
    """The operations Figures 5–7 need, over an abstract label carrier."""

    #: Whether function bodies are re-walked under the inferred ``pc_fn``
    #: after the write-bound pass (the concrete checker's strategy; the
    #: symbolic algebra gets the same conditions from one walk because
    #: ``pc_fn``-dependent obligations are emitted symbolically instead).
    rechecks_bodies: bool = False

    #: Whether :meth:`suggest_hint` does anything.  The traversal checks
    #: this before *building* hint strings, so the concrete hot path does
    #: not pay for formatting names it would discard.
    wants_hints: bool = False

    def __init__(self, lattice: Lattice, *, allow_declassification: bool = False) -> None:
        self.lattice = lattice
        self.allow_declassification = allow_declassification
        #: The ambient telemetry recorder, captured once per walk.  The
        #: ``require_*`` implementations report each rule-site application
        #: through :meth:`note_site`; with the default no-op recorder the
        #: cost is one attribute test per site.
        self.telemetry = current_recorder()
        #: The Core P4 diagnostics of the unit being walked, apart from the
        #: IFC outputs; ``None`` once an annotation of the unit did not
        #: resolve -- the label-free walk
        #: (:func:`repro.typechecker.checker.check_core_types`) remakes
        #: them then, for this unit and the units that depend on it.
        self.core: Optional[List[TypeDiagnostic]] = []
        #: While positive, :meth:`core_error` drops what it is given: a
        #: walk the Core P4 rules would not make, or a repeated one.
        self.core_quiet = 0

    # ------------------------------------------------------------------ carrier

    @property
    @abstractmethod
    def bottom(self):
        """The carrier's ⊥ (a concrete label, or the constant ⊥ term)."""

    @abstractmethod
    def coerce(self, label):
        """Lift a raw label stored in a security type into the carrier."""

    @abstractmethod
    def join(self, *labels) -> object:
        """Least upper bound of carrier values (T-BinOp, branch pcs)."""

    @abstractmethod
    def meet_all(self, labels: Iterable) -> object:
        """Greatest lower bound of a collection (``pc_fn`` / ``pc_tbl``)."""

    @abstractmethod
    def read_label(self, sec_type: SecurityType):
        """The join of every label in ``sec_type`` (observing a value)."""

    @abstractmethod
    def write_label(self, sec_type: SecurityType):
        """The meet of every label in ``sec_type`` (writing an l-value)."""

    def lower_to_bottom(self, sec_type: SecurityType) -> SecurityType:
        """``sec_type`` with every label at ⊥ (declassify's full release)."""
        return lower_labels(sec_type, self.bottom)

    # ------------------------------------------------------------------ resolution

    @abstractmethod
    def make_labeler(self, definitions: SecurityTypeDefs) -> TypeLabeler:
        """The :class:`TypeLabeler` resolving annotations into the carrier."""

    @abstractmethod
    def resolve_control_pc(self, control: d.ControlDecl):
        """The pc a ``@pc``-annotated control runs under (⊥ when absent)."""

    # ------------------------------------------------------------------ rule sites

    def note_site(self, site: RuleSite) -> None:
        """Count one rule-site application (``flow.site.<rule>``).

        The single instrumentation point both interpretations share: every
        ``require_*`` implementation calls it on entry, so the concrete
        checker and the symbolic generator report the same per-rule
        traffic to whichever recorder is active.
        """
        recorder = self.telemetry
        if recorder.enabled:
            recorder.count("flow.site." + site.rule)

    @abstractmethod
    def require_leq(self, lhs, rhs, site: RuleSite) -> None:
        """Impose ``lhs ⊑ rhs`` between two carrier values."""

    @abstractmethod
    def require_flow(
        self, source: SecurityType, destination: SecurityType, site: RuleSite
    ) -> None:
        """Impose that a value of ``source`` may flow into ``destination``
        (field-wise for records/headers, element-wise for stacks)."""

    @abstractmethod
    def require_labels_equal(
        self, left: SecurityType, right: SecurityType, site: RuleSite
    ) -> None:
        """Impose label equality (both ⊑ directions) for inout arguments."""

    @abstractmethod
    def error(
        self, kind: ViolationKind, message: str, span: SourceSpan, rule: str
    ) -> None:
        """Report a non-flow rule failure both interpretations surface
        (unknown labels, forbidden declassification, arity errors)."""

    def type_error(self, message: str, span: SourceSpan, rule: str) -> None:
        """Report an ordinary type error as an IFC violation too (read-only
        writes, non-l-value arguments, unsupported constructs).  The
        concrete checker gives a verdict on these; the symbolic algebra has
        none to give -- the walk reports each through :meth:`core_error`
        as well -- so the default is a no-op."""

    def core_error(self, message: str, span: SourceSpan, rule: str) -> None:
        """Report a Core P4 type error of the unit being walked."""
        if self.core is not None and not self.core_quiet:
            self.core.append(TypeDiagnostic(message, span, rule))

    def unresolved_type(
        self, error: LabelResolutionError, span: SourceSpan
    ) -> Optional[SecurityType]:
        """An annotation did not resolve: report it, and give up the unit's
        core diagnostics, since the walk goes on without the binding (a
        fallback label would add flow errors).  ``None``: bind nothing."""
        self.error(ViolationKind.LABEL_ERROR, str(error), span, rule="labels")
        self.core = None
        return None

    # ------------------------------------------------------------------ per-unit outputs

    @abstractmethod
    def begin_unit(self) -> None:
        """Route the outputs of the next top-level unit's walk to fresh
        containers (see :func:`repro.flow.units.drive_units`)."""

    @abstractmethod
    def end_unit(self) -> object:
        """The outputs captured since :meth:`begin_unit`."""

    @abstractmethod
    def merge_units(self, outputs: Sequence[object]) -> None:
        """Install the unit-order concatenation of per-unit ``outputs``
        as the algebra's outputs for the whole program."""

    # ------------------------------------------------------------------ declassification

    def record_declassification(
        self, primitive: str, expression: str, sec_type: SecurityType, span: SourceSpan
    ) -> None:
        """Audit one honoured ``declassify``/``endorse`` use (concrete only)."""

    # ------------------------------------------------------------------ traversal hooks

    def suggest_hint(self, node: AnnotatedType, hint: str) -> None:
        """Attach a readable name to an annotation slot (symbolic only)."""

    def enter_function_body(self, name: str) -> None:
        """A function/action body walk is starting."""

    def exit_function_body(self, name: str, pc_fn) -> None:
        """The body walk finished and its write bound is ``pc_fn``."""

    @contextmanager
    def write_bound_pass(self) -> Iterator[None]:
        """Wraps the body walk that collects write bounds.

        The concrete algebra silences diagnostics here (the body is
        re-checked for real under ``pc_fn`` afterwards); for the symbolic
        algebra the same walk *is* the real one, so the default does
        nothing.
        """
        yield
