"""Core P4 types (Figure 3).

Base types ``ρ``::

    bool | int | bit<n> | unit | { f : ρ } | header { f : ρ } | ρ[n]
         | match_kind { f }

General types ``κ``::

    ρ | table | d κ -> κ

Type *names* introduced by ``typedef`` / ``header`` / ``struct``
declarations are represented by :class:`TypeName` and resolved by the
unfolding judgement ``Δ ⊢ τ ⇝ τ'``, which
:class:`repro.ifc.convert.TypeLabeler` implements.

Security annotations from the surface syntax are carried by
:class:`AnnotatedType` as raw strings; they mean nothing to the ordinary
type system and are resolved against a lattice by :mod:`repro.ifc`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.syntax.source import SourceSpan

#: Annotation spellings that explicitly request label inference.  ``<bit<8>,
#: infer>`` (or ``<bit<8>, ?>``) asks the :mod:`repro.inference` subsystem to
#: solve for the label; outside inference mode such annotations are label
#: errors, so a partially annotated program cannot silently default to ⊥.
INFERENCE_MARKERS = frozenset({"infer", "?"})


def is_inference_marker(text: Optional[str]) -> bool:
    """Whether ``text`` is an explicit ``infer`` / ``?`` label annotation."""
    return text is not None and text.strip().lower() in INFERENCE_MARKERS


def inference_marker_guidance(text: str, *, construct: str = "annotation") -> str:
    """The shared diagnostic for an ``infer`` marker met outside infer mode."""
    return (
        f"{construct} {text!r} requests label inference; run the checker "
        "with inference enabled (p4bid --infer)"
    )


@dataclass(frozen=True, slots=True)
class Type:
    """Base class for every Core P4 type."""

    def is_base(self) -> bool:
        """Whether this is a base type ``ρ`` (usable as a field type)."""
        return True

    def describe(self) -> str:
        """Human readable spelling used in diagnostics."""
        return type(self).__name__


@dataclass(frozen=True, slots=True)
class BoolType(Type):
    """The boolean type."""

    def describe(self) -> str:
        return "bool"


@dataclass(frozen=True, slots=True)
class IntType(Type):
    """Arbitrary precision integers (``n_∞`` literals)."""

    def describe(self) -> str:
        return "int"


@dataclass(frozen=True, slots=True)
class BitType(Type):
    """Fixed-width bit vectors ``bit<n>``."""

    width: int = 32

    def describe(self) -> str:
        return f"bit<{self.width}>"


@dataclass(frozen=True, slots=True)
class UnitType(Type):
    """The unit type (return type of actions)."""

    def describe(self) -> str:
        return "unit"


@dataclass(frozen=True, slots=True)
class Field:
    """A named field of a record or header, with an optional label text."""

    name: str
    ty: "AnnotatedType"

    def describe(self) -> str:
        return f"{self.name}: {self.ty.describe()}"


@dataclass(frozen=True, slots=True)
class RecordType(Type):
    """Record (struct) types ``{ f : ρ }``."""

    fields: Tuple[Field, ...]

    def field_named(self, name: str) -> Optional[Field]:
        for f in self.fields:
            if f.name == name:
                return f
        return None

    def describe(self) -> str:
        inner = []
        for f in self.fields:  # Field.describe inlined: one frame per level
            inner.append(f"{f.name}: {f.ty.describe()}")
        return "struct {" + ", ".join(inner) + "}"


@dataclass(frozen=True, slots=True)
class HeaderType(Type):
    """Header types ``header { f : ρ }``."""

    fields: Tuple[Field, ...]

    def field_named(self, name: str) -> Optional[Field]:
        for f in self.fields:
            if f.name == name:
                return f
        return None

    def describe(self) -> str:
        inner = []
        for f in self.fields:  # Field.describe inlined: one frame per level
            inner.append(f"{f.name}: {f.ty.describe()}")
        return "header {" + ", ".join(inner) + "}"


@dataclass(frozen=True, slots=True)
class StackType(Type):
    """Header stacks / arrays ``ρ[n]``."""

    element: "AnnotatedType"
    size: int

    def describe(self) -> str:
        return f"{self.element.describe()}[{self.size}]"


@dataclass(frozen=True, slots=True)
class MatchKindType(Type):
    """``match_kind { f }`` enumerations (``exact``, ``lpm``, ...)."""

    members: Tuple[str, ...] = ()

    def describe(self) -> str:
        return "match_kind {" + ", ".join(self.members) + "}"


@dataclass(frozen=True, slots=True)
class TypeName(Type):
    """A reference to a named type introduced by a declaration."""

    name: str

    def describe(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class TableType(Type):
    """The type of match-action tables.

    The ordinary type system only needs the fact that a name denotes a
    table; the IFC system refines this to ``table(pc_tbl)``.  The optional
    ``pc_label`` field stores that bound when known.
    """

    pc_label: Optional[str] = None

    def is_base(self) -> bool:
        return False

    def describe(self) -> str:
        if self.pc_label is None:
            return "table"
        return f"table({self.pc_label})"


@dataclass(frozen=True, slots=True)
class Parameter:
    """A single parameter of a function/action type (``d κ``)."""

    direction: str
    ty: "AnnotatedType"
    name: str = ""

    def describe(self) -> str:
        prefix = f"{self.direction} " if self.direction else ""
        return f"{prefix}{self.ty.describe()}"


@dataclass(frozen=True, slots=True)
class FunctionType(Type):
    """Function (action) types ``d κ --pc_fn--> κ_ret``."""

    parameters: Tuple[Parameter, ...]
    return_type: "AnnotatedType"
    control_plane_parameters: Tuple[Parameter, ...] = ()

    def is_base(self) -> bool:
        return False

    def describe(self) -> str:
        params = ", ".join(p.describe() for p in self.parameters)
        return f"({params}) -> {self.return_type.describe()}"


@dataclass(frozen=True, slots=True)
class AnnotatedType:
    """A type together with its (optional, unresolved) security annotation.

    ``label`` is the raw spelling from the source (e.g. ``"high"`` or
    ``"A"``); ``None`` means the programmer left the type unannotated, in
    which case the IFC checker defaults it to the lattice bottom (the
    implementation section of the paper: "unannotated types default to
    low").
    """

    ty: Type
    label: Optional[str] = None
    span: SourceSpan = field(default_factory=SourceSpan.unknown)

    def with_label(self, label: Optional[str]) -> "AnnotatedType":
        """A copy of this annotated type carrying ``label``."""
        return AnnotatedType(self.ty, label, self.span)

    def wants_inference(self) -> bool:
        """Whether the annotation explicitly requests label inference."""
        return is_inference_marker(self.label)

    def describe(self) -> str:
        if self.label is None:
            return self.ty.describe()
        return f"<{self.ty.describe()}, {self.label}>"


def annotated(ty: Type, label: Optional[str] = None) -> AnnotatedType:
    """Convenience constructor used heavily by tests and builders."""
    return AnnotatedType(ty, label)
