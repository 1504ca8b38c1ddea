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

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Optional, Tuple

from repro.lattice.base import Label, Lattice


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
    def describe(self) -> str:
        return "match_kind"


class _NamedFields:
    """Field lookup for records and headers, by a name index built once
    per type; of duplicate names, the first field wins."""

    fields: Tuple[Tuple[str, "SecurityType"], ...]

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

    def describe(self) -> str:
        inner = ", ".join(f"{name}: {st.describe()}" for name, st in self.fields)
        return "struct {" + inner + "}"


@dataclass(frozen=True)
class SHeader(_NamedFields, SecurityBody):
    """Header types ``header { f : ⟨τ, χ⟩ }``."""

    fields: Tuple[Tuple[str, "SecurityType"], ...]

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
    """Structural compatibility of type bodies, ignoring labels.

    Mirrors the ordinary compatibility relation: ``int`` literals fit any
    ``bit<n>``, records/headers match field-by-field, stacks match on size
    and element.
    """
    if isinstance(expected, SBool) and isinstance(actual, SBool):
        return True
    if isinstance(expected, SUnit) and isinstance(actual, SUnit):
        return True
    if isinstance(expected, SMatchKind) and isinstance(actual, SMatchKind):
        return True
    if isinstance(expected, SInt) and isinstance(actual, SInt):
        return True
    if isinstance(expected, SBit):
        if isinstance(actual, SBit):
            return expected.width == actual.width
        return isinstance(actual, SInt)
    if isinstance(expected, SInt) and isinstance(actual, SBit):
        return True
    if isinstance(expected, (SRecord, SHeader)) and type(expected) is type(actual):
        if len(expected.fields) != len(actual.fields):
            return False
        actual_map = actual.field_map()
        for name, exp_field in expected.fields:
            act_field = actual_map.get(name)
            if act_field is None:
                return False
            if not bodies_compatible(exp_field.body, act_field.body):
                return False
        return True
    if isinstance(expected, SStack) and isinstance(actual, SStack):
        return expected.size == actual.size and bodies_compatible(
            expected.element.body, actual.element.body
        )
    return False


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
        new_body: SecurityBody = (
            SRecord(fields) if isinstance(body, SRecord) else SHeader(fields)
        )
        return SecurityType(new_body, sec_type.label)
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
        lowered: SecurityBody = (
            SRecord(fields) if isinstance(body, SRecord) else SHeader(fields)
        )
        return SecurityType(lowered, bottom)
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
