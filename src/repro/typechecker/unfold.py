"""The type-unfolding judgement ``Δ ⊢ τ ⇝ τ'``.

Resolves :class:`~repro.syntax.types.TypeName` references through the
definition context until a structural type is reached, and recursively
unfolds the element types of stacks.  Field types inside records/headers
are *not* eagerly unfolded -- the typing rules unfold them on demand when a
field is projected -- which matches petr4's lazy treatment and keeps the
unfolding cheap for large header structs.
"""

from __future__ import annotations

from typing import Set

from repro.syntax.types import AnnotatedType, StackType, Type, TypeName
from repro.typechecker.environment import TypeDefinitions


class UnfoldError(Exception):
    """Raised on unknown type names or cyclic typedefs."""


def unfold_type(delta: TypeDefinitions, ty: Type) -> Type:
    """Resolve ``ty`` to a structural (non-name) type under ``delta``."""
    return _unfold(delta, ty, seen=set())


def _unfold(delta: TypeDefinitions, ty: Type, seen: Set[str]) -> Type:
    if isinstance(ty, TypeName):
        if ty.name in seen:
            raise UnfoldError(f"cyclic type definition involving {ty.name!r}")
        target = delta.lookup(ty.name)
        if target is None:
            raise UnfoldError(f"unknown type name {ty.name!r}")
        return _unfold(delta, target, seen | {ty.name})
    if isinstance(ty, StackType):
        element = _unfold(delta, ty.element.ty, seen)
        return StackType(AnnotatedType(element, ty.element.label, ty.element.span), ty.size)
    return ty
