"""Security types ``⟨τ, χ⟩`` (Figure 4).

A :class:`SecurityType` pairs a *security type body* with an outer label.
Following the paper, composite types (records, headers, stacks, tables,
functions) keep their outer label at ``⊥`` and carry labels on their
components: the fields of a record/header each have their own security
type, a function type records the ``pc_fn`` write bound on its arrow, and
a table type records ``pc_tbl``.

Bodies are immutable dataclasses so security types can be compared
structurally, hashed, and shared freely between the checker and tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.lattice.base import Label, Lattice

if TYPE_CHECKING:  # pragma: no cover
    from repro.syntax.declarations import FunctionDecl
    from repro.syntax.types import Type


@dataclass(frozen=True)
class SecurityBody:
    """Base class for the type component ``τ`` of a security type."""

    def describe(self) -> str:
        return type(self).__name__

    def is_base(self) -> bool:
        return True


@dataclass(frozen=True)
class SBool(SecurityBody):
    def describe(self) -> str:
        return "bool"


@dataclass(frozen=True)
class SInt(SecurityBody):
    def describe(self) -> str:
        return "int"


@dataclass(frozen=True)
class SBit(SecurityBody):
    width: int = 32

    def describe(self) -> str:
        return f"bit<{self.width}>"


@dataclass(frozen=True)
class SUnit(SecurityBody):
    def describe(self) -> str:
        return "unit"


@dataclass(frozen=True)
class SMatchKind(SecurityBody):
    #: The kinds known where this one was declared (for diagnostics only).
    members: Tuple[str, ...] = field(default=(), compare=False)

    def describe(self) -> str:
        return "match_kind"


@dataclass(frozen=True)
class SUnresolved(SecurityBody):
    """A field whose type did not resolve, in a label-free walk: the
    Core P4 rules report ``message`` where the field is projected."""

    message: str


class _NamedFields:
    """Field lookup for records and headers, by a name index built once
    per type; of duplicate names, the first field wins."""

    fields: Tuple[Tuple[str, "SecurityType"], ...]
    #: The declared type this one resolves (for diagnostics only).
    syntax: Optional["Type"]

    def with_fields(self, fields: Tuple[Tuple[str, "SecurityType"], ...]):
        """The same type with relabelled ``fields``."""
        return type(self)(fields, self.syntax)

    @cached_property
    def _by_name(self) -> Dict[str, "SecurityType"]:
        return dict(reversed(self.fields))

    def field_named(self, name: str) -> Optional["SecurityType"]:
        return self._by_name.get(name)

    def field_map(self) -> Dict[str, "SecurityType"]:
        return dict(self.fields)


@dataclass(frozen=True)
class SRecord(_NamedFields, SecurityBody):
    """Record types ``{ f : ⟨τ, χ⟩ }`` with per-field security types."""

    fields: Tuple[Tuple[str, "SecurityType"], ...]
    syntax: Optional["Type"] = field(default=None, compare=False)

    def describe(self) -> str:
        inner = ", ".join(f"{name}: {st.describe()}" for name, st in self.fields)
        return "struct {" + inner + "}"


@dataclass(frozen=True)
class SHeader(_NamedFields, SecurityBody):
    """Header types ``header { f : ⟨τ, χ⟩ }``."""

    fields: Tuple[Tuple[str, "SecurityType"], ...]
    syntax: Optional["Type"] = field(default=None, compare=False)

    def describe(self) -> str:
        inner = ", ".join(f"{name}: {st.describe()}" for name, st in self.fields)
        return "header {" + inner + "}"


@dataclass(frozen=True)
class SStack(SecurityBody):
    """Header stacks ``⟨τ, χ⟩[n]``."""

    element: "SecurityType"
    size: int

    def describe(self) -> str:
        return f"{self.element.describe()}[{self.size}]"


@dataclass(frozen=True)
class STable(SecurityBody):
    """Table types ``table(pc_tbl)``: the write bound of the table."""

    pc_tbl: Label

    def is_base(self) -> bool:
        return False

    def describe(self) -> str:
        return f"table({self.pc_tbl})"


@dataclass(frozen=True)
class SParam:
    """A function parameter ``d ⟨τ, χ⟩`` with its name for diagnostics."""

    direction: str
    sec_type: "SecurityType"
    name: str = ""
    control_plane: bool = False

    def describe(self) -> str:
        prefix = f"{self.direction} " if self.direction else ""
        return f"{prefix}{self.sec_type.describe()}"


@dataclass(frozen=True)
class SFunction(SecurityBody):
    """Function (action) types ``d ⟨τ, χ⟩ --pc_fn--> ⟨τ_ret, χ_ret⟩``."""

    parameters: Tuple[SParam, ...]
    pc_fn: Label
    return_type: "SecurityType"
    #: The declaration (for diagnostics only: its written labels).
    syntax: Optional["FunctionDecl"] = field(default=None, compare=False)

    def is_base(self) -> bool:
        return False

    def directional_parameters(self) -> Tuple[SParam, ...]:
        return tuple(p for p in self.parameters if not p.control_plane)

    def control_plane_parameters(self) -> Tuple[SParam, ...]:
        return tuple(p for p in self.parameters if p.control_plane)

    def describe(self) -> str:
        params = ", ".join(p.describe() for p in self.parameters)
        return f"({params}) --{self.pc_fn}--> {self.return_type.describe()}"


@dataclass(frozen=True)
class SecurityType:
    """A security type ``⟨τ, χ⟩``: a body plus its outer label."""

    body: SecurityBody
    label: Label

    def with_label(self, label: Label) -> "SecurityType":
        return SecurityType(self.body, label)

    def describe(self) -> str:
        return f"<{self.body.describe()}, {self.label}>"

    def is_base(self) -> bool:
        return self.body.is_base()


# ---------------------------------------------------------------------------
# structural helpers used by the checker

#: Expression directionality, as in the ordinary system.
DIR_IN = "in"
DIR_INOUT = "inout"


def bodies_compatible(expected: SecurityBody, actual: SecurityBody) -> bool:
    """Whether a value of body ``actual`` may be used where ``expected``
    is required, ignoring labels (Core P4's compatibility).

    Bodies must be structurally equal, except that an ``int`` literal
    fits any ``bit<n>`` (a width-inferred constant); records and headers
    match field by field, in order, and stacks on size and element.
    """
    if isinstance(expected, SBit):
        if isinstance(actual, SBit):
            return expected.width == actual.width
        return isinstance(actual, SInt)
    if isinstance(expected, (SBool, SUnit, SMatchKind, SInt)):
        return type(actual) is type(expected)
    if isinstance(expected, (SRecord, SHeader)) and type(expected) is type(actual):
        return len(expected.fields) == len(actual.fields) and all(
            exp_name == act_name and bodies_compatible(exp.body, act.body)
            for (exp_name, exp), (act_name, act) in zip(expected.fields, actual.fields)
        )
    if isinstance(expected, SStack) and isinstance(actual, SStack):
        return expected.size == actual.size and bodies_compatible(
            expected.element.body, actual.element.body
        )
    return False


def _annotated_text(text: str, label: Optional[str]) -> str:
    return text if label is None else f"<{text}, {label}>"


def type_text(body: SecurityBody) -> str:
    """``body`` as the Core P4 rules spell its type in a diagnostic: a
    record or header as declared, a function with its written labels."""
    if isinstance(body, (SRecord, SHeader)):
        if body.syntax is not None:
            return body.syntax.describe()
        inner = []
        for name, f in body.fields:  # a loop, not a generator: one frame per level
            inner.append(f"{name}: {type_text(f.body)}")
        return ("struct {" if isinstance(body, SRecord) else "header {") + ", ".join(inner) + "}"
    if isinstance(body, SStack):
        return f"{type_text(body.element.body)}[{body.size}]"
    if isinstance(body, SMatchKind):
        return "match_kind {" + ", ".join(body.members) + "}"
    if isinstance(body, STable):
        return "table"
    if isinstance(body, SFunction):
        decl = body.syntax
        params = ", ".join(
            (f"{p.direction} " if p.direction else "")
            + _annotated_text(type_text(p.sec_type.body), written.ty.label)
            for p, written in zip(body.parameters, decl.params)
        )
        written_return = decl.return_type
        result = _annotated_text(
            type_text(body.return_type.body),
            None if written_return is None else written_return.label,
        )
        return f"({params}) -> {result}"
    return body.describe()


def flow_allowed(
    lattice: Lattice, source: SecurityType, destination: SecurityType
) -> bool:
    """Whether a value of ``source`` may flow into ``destination``.

    Scalars require ``χ_src ⊑ χ_dst``; composites require the flow
    field-wise (and element-wise for stacks).  This is the relation used by
    T-Assign and for ``in``-direction argument passing (where subsumption
    T-SubType-In permits raising the label).
    """
    src_body, dst_body = source.body, destination.body
    if isinstance(dst_body, (SRecord, SHeader)) and type(src_body) is type(dst_body):
        src_map = src_body.field_map()
        for name, dst_field in dst_body.fields:
            src_field = src_map.get(name)
            if src_field is None:
                return False
            if not flow_allowed(lattice, src_field, dst_field):
                return False
        return True
    if isinstance(dst_body, SStack) and isinstance(src_body, SStack):
        if dst_body.size != src_body.size:
            return False
        return flow_allowed(lattice, src_body.element, dst_body.element)
    return lattice.leq(source.label, destination.label)


def labels_equal(
    lattice: Lattice, left: SecurityType, right: SecurityType
) -> bool:
    """Label equality (both directions of ⊑), recursively for composites.

    Used for ``inout`` argument passing, where T-SubType-In forbids
    relabelling.
    """
    return flow_allowed(lattice, left, right) and flow_allowed(lattice, right, left)


def join_into(lattice: Lattice, sec_type: SecurityType, label: Label) -> SecurityType:
    """Raise every label inside ``sec_type`` by joining with ``label``.

    Used when a composite type is annotated at a use site (e.g.
    ``<alice_t, A> alice_data``): the annotation distributes over the
    fields, keeping the outer label at ⊥ as required by Figure 4.
    """
    body = sec_type.body
    if isinstance(body, (SRecord, SHeader)):
        fields = tuple(
            (name, join_into(lattice, field, label)) for name, field in body.fields
        )
        return SecurityType(body.with_fields(fields), sec_type.label)
    if isinstance(body, SStack):
        return SecurityType(
            SStack(join_into(lattice, body.element, label), body.size), sec_type.label
        )
    return SecurityType(body, lattice.join(sec_type.label, label))


def write_label(lattice: Lattice, sec_type: SecurityType) -> Label:
    """The meet of every label in ``sec_type``.

    ``pc ⊑ write_label(t)`` holds exactly when ``pc`` is below the label of
    every component of ``t``, which is the side condition T-Assign imposes
    on writes to composite l-values.
    """
    body = sec_type.body
    if isinstance(body, (SRecord, SHeader)):
        return lattice.meet_all(
            [write_label(lattice, field) for _, field in body.fields] or [sec_type.label]
        )
    if isinstance(body, SStack):
        return write_label(lattice, body.element)
    return sec_type.label


def lower_labels(sec_type: SecurityType, bottom: Label) -> SecurityType:
    """``sec_type`` with every label replaced by ``bottom``.

    Purely structural (no lattice needed), so it serves both readings of a
    full declassification release: the concrete checker passes the
    lattice's ⊥, the symbolic generator the constant-⊥ term.
    """
    body = sec_type.body
    if isinstance(body, (SRecord, SHeader)):
        fields = tuple(
            (name, lower_labels(field, bottom)) for name, field in body.fields
        )
        return SecurityType(body.with_fields(fields), bottom)
    if isinstance(body, SStack):
        return SecurityType(
            SStack(lower_labels(body.element, bottom), body.size), bottom
        )
    return SecurityType(body, bottom)


def read_label(lattice: Lattice, sec_type: SecurityType) -> Label:
    """The join of every label occurring in ``sec_type``.

    This is the label an adversary learns by observing a whole value of
    this type; used when a composite expression appears where a scalar
    label is needed (e.g. a whole header used as a table key).
    """
    body = sec_type.body
    if isinstance(body, (SRecord, SHeader)):
        return lattice.join_all(
            [sec_type.label] + [read_label(lattice, field) for _, field in body.fields]
        )
    if isinstance(body, SStack):
        return lattice.join(sec_type.label, read_label(lattice, body.element))
    return sec_type.label
