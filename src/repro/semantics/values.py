"""Runtime values for the Core P4 interpreter.

Values are immutable; writing through an l-value builds a new composite
value and stores it back at the base variable's location, exactly as in the
l-value writing rules of Appendix G.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple, TYPE_CHECKING

from repro.syntax.types import (
    BitType,
    BoolType,
    HeaderType,
    IntType,
    MatchKindType,
    RecordType,
    StackType,
    Type,
    TypeName,
    UnitType,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.semantics.store import Environment
    from repro.syntax.declarations import FunctionDecl, TableDecl


@dataclass(frozen=True)
class Value:
    """Base class of every runtime value."""

    def describe(self) -> str:
        return type(self).__name__


@dataclass(frozen=True)
class UnitValue(Value):
    def describe(self) -> str:
        return "()"


@dataclass(frozen=True)
class BoolValue(Value):
    value: bool

    def describe(self) -> str:
        return "true" if self.value else "false"


@dataclass(frozen=True)
class IntValue(Value):
    """An integer; ``width`` is None for arbitrary precision ``int``.

    Fixed-width values are always kept in the range ``[0, 2^width)``.
    """

    value: int
    width: Optional[int] = None

    def __post_init__(self) -> None:
        if self.width is not None:
            object.__setattr__(self, "value", self.value % (1 << self.width))

    def describe(self) -> str:
        if self.width is None:
            return str(self.value)
        return f"{self.width}w{self.value}"


@dataclass(frozen=True)
class MatchKindValue(Value):
    name: str

    def describe(self) -> str:
        return self.name


@dataclass(frozen=True)
class RecordValue(Value):
    fields: Tuple[Tuple[str, Value], ...]

    def field_map(self) -> Dict[str, Value]:
        return dict(self.fields)

    def get(self, name: str) -> Optional[Value]:
        for field_name, value in self.fields:
            if field_name == name:
                return value
        return None

    def set(self, name: str, value: Value) -> "RecordValue":
        return RecordValue(
            tuple((n, value if n == name else v) for n, v in self.fields)
        )

    def describe(self) -> str:
        inner = ", ".join(f"{n} = {v.describe()}" for n, v in self.fields)
        return "{" + inner + "}"


@dataclass(frozen=True)
class HeaderValue(Value):
    fields: Tuple[Tuple[str, Value], ...]
    valid: bool = True

    def field_map(self) -> Dict[str, Value]:
        return dict(self.fields)

    def get(self, name: str) -> Optional[Value]:
        for field_name, value in self.fields:
            if field_name == name:
                return value
        return None

    def set(self, name: str, value: Value) -> "HeaderValue":
        return HeaderValue(
            tuple((n, value if n == name else v) for n, v in self.fields), self.valid
        )

    def describe(self) -> str:
        inner = ", ".join(f"{n} = {v.describe()}" for n, v in self.fields)
        return f"header(valid={self.valid}){{" + inner + "}"


@dataclass(frozen=True)
class StackValue(Value):
    elements: Tuple[Value, ...]

    def get(self, index: int) -> Optional[Value]:
        if 0 <= index < len(self.elements):
            return self.elements[index]
        return None

    def set(self, index: int, value: Value) -> "StackValue":
        elements = list(self.elements)
        elements[index] = value
        return StackValue(tuple(elements))

    def describe(self) -> str:
        return "[" + ", ".join(v.describe() for v in self.elements) + "]"


@dataclass(frozen=True)
class ClosureValue(Value):
    """A function/action closure: captured environment plus the declaration."""

    environment: "Environment"
    declaration: "FunctionDecl"

    def describe(self) -> str:
        return f"clos({self.declaration.name})"


@dataclass(frozen=True)
class TableValue(Value):
    """A table value: captured environment plus the declaration.

    The control plane identifies the table by its declaration name, which
    plays the role of the location ``l`` in ``table_l(ε, ...)``.
    """

    environment: "Environment"
    declaration: "TableDecl"

    def describe(self) -> str:
        return f"table({self.declaration.name})"


# ---------------------------------------------------------------------------
# default and havoc values


def init_value(ty: Type, lookup_type) -> Value:
    """The default-initialised value ``init_Δ τ`` for a declared type.

    ``lookup_type`` resolves type names (it is the interpreter's Δ).
    """
    if isinstance(ty, BoolType):
        return BoolValue(False)
    if isinstance(ty, IntType):
        return IntValue(0, None)
    if isinstance(ty, BitType):
        return IntValue(0, ty.width)
    if isinstance(ty, UnitType):
        return UnitValue()
    if isinstance(ty, MatchKindType):
        return MatchKindValue(ty.members[0] if ty.members else "exact")
    if isinstance(ty, RecordType):
        return RecordValue(
            tuple((f.name, init_value(f.ty.ty, lookup_type)) for f in ty.fields)
        )
    if isinstance(ty, HeaderType):
        return HeaderValue(
            tuple((f.name, init_value(f.ty.ty, lookup_type)) for f in ty.fields),
            valid=True,
        )
    if isinstance(ty, StackType):
        element = init_value(ty.element.ty, lookup_type)
        return StackValue(tuple(element for _ in range(ty.size)))
    if isinstance(ty, TypeName):
        resolved = lookup_type(ty.name)
        if resolved is None:
            raise ValueError(f"cannot initialise unknown type {ty.name!r}")
        return init_value(resolved, lookup_type)
    raise ValueError(f"cannot initialise values of type {ty.describe()}")


def havoc_value(ty: Type, lookup_type) -> Value:
    """The ``havoc(τ)`` value produced by out-of-bounds stack reads.

    We model havoc deterministically as the default value, which keeps the
    interpreter deterministic (important for the differential
    non-interference harness: both runs must havoc identically).
    """
    return init_value(ty, lookup_type)
