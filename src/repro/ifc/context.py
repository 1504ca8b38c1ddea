"""Typing contexts for the security type system.

``SecurityContext`` is Γ mapping variables to security types (with the
special ``return`` binding of T-FuncDecl / T-Return), and
``SecurityTypeDefs`` is Δ mapping declared type names to their *syntactic*
annotated types; :class:`repro.ifc.convert.TypeLabeler` resolves those into
security types on demand, which implements the unfolding judgement
``Δ ⊢ τ ⇝ τ'`` for the security system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional

from repro.ifc.security_types import SecurityType
from repro.syntax.types import AnnotatedType


@dataclass
class SecurityTypeDefs:
    """The security type-definition context Δ."""

    _definitions: Dict[str, AnnotatedType] = field(default_factory=dict)
    _parent: Optional["SecurityTypeDefs"] = None

    def define(self, name: str, ty: AnnotatedType) -> None:
        self._definitions[name] = ty

    def lookup(self, name: str) -> Optional[AnnotatedType]:
        if name in self._definitions:
            return self._definitions[name]
        if self._parent is not None:
            return self._parent.lookup(name)
        return None

    def __contains__(self, name: str) -> bool:
        return self.lookup(name) is not None

    def child(self) -> "SecurityTypeDefs":
        return SecurityTypeDefs(_parent=self)

    def names(self) -> Iterator[str]:
        yield from self._definitions
        if self._parent is not None:
            yield from self._parent.names()


@dataclass
class SecurityContext:
    """The security typing context Γ (variables to security types)."""

    _bindings: Dict[str, SecurityType] = field(default_factory=dict)
    _parent: Optional["SecurityContext"] = None

    RETURN_KEY = "return"

    def bind(self, name: str, sec_type: SecurityType) -> None:
        self._bindings[name] = sec_type

    def lookup(self, name: str) -> Optional[SecurityType]:
        scope: Optional[SecurityContext] = self
        while scope is not None:
            bindings = scope._bindings
            if name in bindings:
                return bindings[name]
            scope = scope._parent
        return None

    def __contains__(self, name: str) -> bool:
        return self.lookup(name) is not None

    def child(self) -> "SecurityContext":
        return SecurityContext(_parent=self)

    def names(self) -> Iterator[str]:
        seen = set()
        scope: Optional[SecurityContext] = self
        while scope is not None:
            for name in scope._bindings:
                if name not in seen:
                    seen.add(name)
                    yield name
            scope = scope._parent
