"""Typing contexts for the ordinary Core P4 type system.

``TypeDefinitions`` is the partial map Δ from type names to types (built by
``typedef`` / ``header`` / ``struct`` / ``match_kind`` declarations), and
``TypeContext`` is the partial map Γ from variables to types.  Both support
cheap child scopes so that statement blocks and function bodies extend the
context without mutating the enclosing one, mirroring how the judgements
thread ``Γ ⊣ Γ'``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional

from repro.syntax.types import Type


@dataclass
class TypeDefinitions:
    """The type-definition context Δ."""

    _definitions: Dict[str, Type] = field(default_factory=dict)
    _parent: Optional["TypeDefinitions"] = None

    def define(self, name: str, ty: Type) -> None:
        self._definitions[name] = ty

    def lookup(self, name: str) -> Optional[Type]:
        if name in self._definitions:
            return self._definitions[name]
        if self._parent is not None:
            return self._parent.lookup(name)
        return None

    def __contains__(self, name: str) -> bool:
        return self.lookup(name) is not None

    def child(self) -> "TypeDefinitions":
        return TypeDefinitions(_parent=self)

    def names(self) -> Iterator[str]:
        yield from self._definitions
        if self._parent is not None:
            yield from self._parent.names()


@dataclass
class TypeContext:
    """The variable typing context Γ.

    The special key ``return`` stores the enclosing function's return type,
    exactly as in the paper's T-FuncDecl / T-Return rules.
    """

    _bindings: Dict[str, Type] = field(default_factory=dict)
    _parent: Optional["TypeContext"] = None

    RETURN_KEY = "return"

    def bind(self, name: str, ty: Type) -> None:
        self._bindings[name] = ty

    def lookup(self, name: str) -> Optional[Type]:
        if name in self._bindings:
            return self._bindings[name]
        if self._parent is not None:
            return self._parent.lookup(name)
        return None

    def __contains__(self, name: str) -> bool:
        return self.lookup(name) is not None

    def child(self) -> "TypeContext":
        return TypeContext(_parent=self)

    def names(self) -> Iterator[str]:
        seen = set()
        scope: Optional[TypeContext] = self
        while scope is not None:
            for name in scope._bindings:
                if name not in seen:
                    seen.add(name)
                    yield name
            scope = scope._parent


class RecordingTypeDefinitions(TypeDefinitions):
    """Δ that logs ``define`` calls while a log is installed (see
    :func:`repro.flow.units.drive_units`)."""

    effects: Optional[list] = None

    def define(self, name: str, ty: Type) -> None:
        if self.effects is not None:
            self.effects.append(("delta", name, ty))
        super().define(name, ty)


class RecordingTypeContext(TypeContext):
    """Γ that logs ``bind`` calls while a log is installed."""

    effects: Optional[list] = None

    def bind(self, name: str, ty: Type) -> None:
        if self.effects is not None:
            self.effects.append(("gamma", name, ty))
        super().bind(name, ty)
