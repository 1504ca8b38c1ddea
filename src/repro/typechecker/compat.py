"""Structural type compatibility for the ordinary type system.

Two types are compatible when they unfold to structurally equal types; as
in P4, arbitrary-precision ``int`` literals are additionally compatible
with any ``bit<n>`` type (width-inferred constants).
"""

from __future__ import annotations

from repro.syntax.types import (
    BitType,
    BoolType,
    HeaderType,
    IntType,
    MatchKindType,
    RecordType,
    StackType,
    Type,
    UnitType,
)
from repro.typechecker.environment import TypeDefinitions
from repro.typechecker.unfold import unfold_type


def types_compatible(delta: TypeDefinitions, expected: Type, actual: Type) -> bool:
    """Whether a value of type ``actual`` can be used where ``expected`` is required."""
    expected = unfold_type(delta, expected)
    actual = unfold_type(delta, actual)
    if isinstance(expected, BoolType) and isinstance(actual, BoolType):
        return True
    if isinstance(expected, UnitType) and isinstance(actual, UnitType):
        return True
    if isinstance(expected, IntType) and isinstance(actual, (IntType, BitType)):
        return isinstance(actual, IntType)
    if isinstance(expected, BitType):
        if isinstance(actual, BitType):
            return expected.width == actual.width
        return isinstance(actual, IntType)
    if isinstance(expected, (RecordType, HeaderType)) and type(expected) is type(actual):
        if len(expected.fields) != len(actual.fields):
            return False
        for exp_field, act_field in zip(expected.fields, actual.fields):
            if exp_field.name != act_field.name:
                return False
            if not types_compatible(delta, exp_field.ty.ty, act_field.ty.ty):
                return False
        return True
    if isinstance(expected, StackType) and isinstance(actual, StackType):
        return expected.size == actual.size and types_compatible(
            delta, expected.element.ty, actual.element.ty
        )
    if isinstance(expected, MatchKindType) and isinstance(actual, MatchKindType):
        return True
    return False
