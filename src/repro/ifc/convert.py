"""Resolving annotated syntactic types into security types.

The :class:`TypeLabeler` turns an :class:`~repro.syntax.types.AnnotatedType`
into a :class:`~repro.ifc.security_types.SecurityType` under a given
lattice and type-definition context:

* scalar types get the annotated label, defaulting to ``⊥`` when the
  programmer wrote no annotation (the paper: "unannotated types default to
  low");
* named types are unfolded through Δ (``Δ ⊢ τ ⇝ τ'``), keeping the per-field
  annotations written at the declaration site;
* a label written on a composite *use* site (``<alice_t, A> x``) is joined
  into every field, so the outer label of a composite stays ⊥ as in
  Figure 4.

Label resolution is routed through the overridable hooks
:meth:`TypeLabeler.resolve_label` and :meth:`TypeLabeler.attach_label` so
the :mod:`repro.inference` subsystem can subclass the labeler and produce
*label variables* (terms to be solved) instead of raising
:class:`LabelResolutionError` where an annotation is missing or explicitly
marked ``infer``.
"""

from __future__ import annotations

from typing import Optional

from repro.ifc.context import SecurityTypeDefs
from repro.ifc.security_types import (
    SBit,
    SBool,
    SHeader,
    SInt,
    SMatchKind,
    SRecord,
    SStack,
    SUnit,
    SecurityType,
    join_into,
)
from repro.lattice.base import Label, Lattice, LatticeError
from repro.syntax.types import (
    AnnotatedType,
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
    inference_marker_guidance,
    is_inference_marker,
)


class LabelResolutionError(Exception):
    """An annotation names an unknown label or an unknown type."""


class TypeLabeler:
    """Converts annotated syntactic types into security types."""

    def __init__(self, lattice: Lattice, definitions: SecurityTypeDefs) -> None:
        self._lattice = lattice
        self._definitions = definitions

    @property
    def lattice(self) -> Lattice:
        return self._lattice

    @property
    def definitions(self) -> SecurityTypeDefs:
        return self._definitions

    # ------------------------------------------------------------------ labels

    def resolve_label(self, text: Optional[str]) -> Label:
        """Resolve an annotation's raw text; ``None`` defaults to ⊥.

        A spelling that names an actual lattice level always means that
        level -- a lattice is free to define a level called ``Infer``.
        Otherwise ``infer`` / ``?`` markers are rejected here: only the
        inference labeler (which overrides this hook) can give them a
        meaning.
        """
        if text is None:
            return self._lattice.bottom
        try:
            return self._lattice.parse_label(text)
        except LatticeError as exc:
            if is_inference_marker(text):
                raise LabelResolutionError(inference_marker_guidance(text)) from exc
            raise LabelResolutionError(str(exc)) from exc

    # ------------------------------------------------------------------ types

    def security_type(self, annotated: AnnotatedType, *, seen: frozenset = frozenset()) -> SecurityType:
        """The security type denoted by ``annotated`` under Δ and the lattice."""
        base = self._body_of(annotated.ty, seen)
        return self.attach_label(annotated, base)

    def attach_label(self, annotated: AnnotatedType, base: SecurityType) -> SecurityType:
        """Combine the resolved ``base`` type with the slot's annotation.

        Overridden by the inference labeler, which introduces a label
        variable here when the annotation is missing or marked ``infer``.
        """
        label = self.resolve_label(annotated.label)
        if isinstance(base.body, (SRecord, SHeader, SStack)):
            if annotated.label is not None:
                return join_into(self._lattice, base, label)
            return base
        return SecurityType(base.body, self._lattice.join(base.label, label))

    def _body_of(self, ty: Type, seen: frozenset) -> SecurityType:
        bottom = self._lattice.bottom
        if isinstance(ty, BoolType):
            return SecurityType(SBool(), bottom)
        if isinstance(ty, IntType):
            return SecurityType(SInt(), bottom)
        if isinstance(ty, BitType):
            return SecurityType(SBit(ty.width), bottom)
        if isinstance(ty, UnitType):
            return SecurityType(SUnit(), bottom)
        if isinstance(ty, MatchKindType):
            return SecurityType(SMatchKind(), bottom)
        if isinstance(ty, RecordType):
            fields = tuple((f.name, self.security_type(f.ty, seen=seen)) for f in ty.fields)
            return SecurityType(SRecord(fields), bottom)
        if isinstance(ty, HeaderType):
            fields = tuple((f.name, self.security_type(f.ty, seen=seen)) for f in ty.fields)
            return SecurityType(SHeader(fields), bottom)
        if isinstance(ty, StackType):
            element = self.security_type(ty.element, seen=seen)
            return SecurityType(SStack(element, ty.size), bottom)
        if isinstance(ty, TypeName):
            if ty.name in seen:
                raise LabelResolutionError(
                    f"cyclic type definition involving {ty.name!r}"
                )
            definition = self._definitions.lookup(ty.name)
            if definition is None:
                raise LabelResolutionError(f"unknown type name {ty.name!r}")
            return self.security_type(definition, seen=seen | {ty.name})
        raise LabelResolutionError(f"type {ty.describe()} has no security interpretation")
