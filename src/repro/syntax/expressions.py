"""Core P4 expressions (Figure 1a).

::

    exp ::= b                      Boolean
          | n_w                    integers or bits of width w
          | x                      variable
          | exp1[exp2]             array indexing
          | exp1 (+) exp2          binary operation
          | { f_i = exp_i }        record
          | exp.f_i                field projection
          | exp1(exp2)             function call

We additionally support unary operations (``!``, ``-``, ``~``) because the
case-study programs use them; they type like single-argument binary
operations and introduce no new information-flow behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.syntax.source import SourceSpan


@dataclass(frozen=True, slots=True)
class Expression:
    """Base class for every expression node."""

    span: SourceSpan = field(default_factory=SourceSpan.unknown, kw_only=True)

    def describe(self) -> str:
        """Compact, source-like rendering used by diagnostics."""
        return type(self).__name__


@dataclass(frozen=True, slots=True)
class BoolLiteral(Expression):
    """``true`` / ``false``."""

    value: bool

    def describe(self) -> str:
        return "true" if self.value else "false"


@dataclass(frozen=True, slots=True)
class IntLiteral(Expression):
    """Integer literals, optionally with an explicit bit width ``n_w``.

    ``width is None`` models the arbitrary precision integers ``n_∞``;
    a concrete width models ``bit<w>`` literals such as ``8w255``.
    """

    value: int
    width: Optional[int] = None

    def describe(self) -> str:
        if self.width is None:
            return str(self.value)
        return f"{self.width}w{self.value}"


@dataclass(frozen=True, slots=True)
class Var(Expression):
    """A variable reference ``x``."""

    name: str

    def describe(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class Index(Expression):
    """Array / header-stack indexing ``exp1[exp2]``."""

    array: Expression
    index: Expression

    def describe(self) -> str:
        return f"{self.array.describe()}[{self.index.describe()}]"


@dataclass(frozen=True, slots=True)
class BinaryOp(Expression):
    """Binary operation ``exp1 (+) exp2``.

    The operator is kept as its source spelling (``+``, ``-``, ``==``,
    ``&&`` ...); the typing oracle ``T`` in
    :mod:`repro.typechecker.operators` gives its meaning.
    """

    op: str
    left: Expression
    right: Expression

    def describe(self) -> str:
        return f"({self.left.describe()} {self.op} {self.right.describe()})"


@dataclass(frozen=True, slots=True)
class UnaryOp(Expression):
    """Unary operation (``!``, ``-``, ``~``)."""

    op: str
    operand: Expression

    def describe(self) -> str:
        return f"({self.op}{self.operand.describe()})"


@dataclass(frozen=True, slots=True)
class RecordLiteral(Expression):
    """Record construction ``{ f_i = exp_i }``."""

    fields: Tuple[Tuple[str, Expression], ...]

    def describe(self) -> str:
        # Loops, not generator expressions, in the recursive describe()s:
        # a generator costs a frame per nesting level, and the parser's
        # MAX_DEPTH assumes at most two.
        inner = []
        for name, expr in self.fields:
            inner.append(f"{name} = {expr.describe()}")
        return "{" + ", ".join(inner) + "}"

    def field_named(self, name: str) -> Optional[Expression]:
        for field_name, expr in self.fields:
            if field_name == name:
                return expr
        return None


@dataclass(frozen=True, slots=True)
class FieldAccess(Expression):
    """Field projection ``exp.f``.

    Covers both record member access (T-MemRec) and header member access
    (T-MemHdr); which rule applies is determined by the type of ``target``.
    """

    target: Expression
    field_name: str

    def describe(self) -> str:
        return f"{self.target.describe()}.{self.field_name}"


@dataclass(frozen=True, slots=True)
class Call(Expression):
    """Function / action call ``exp1(exp2)``.

    Table application ``t.apply()`` is desugared by the parser to a call of
    the table-typed variable with no arguments, matching Core P4's
    ``exp()`` form used by T-TblCall.
    """

    callee: Expression
    arguments: Tuple[Expression, ...] = ()

    def describe(self) -> str:
        args = []
        for argument in self.arguments:
            args.append(argument.describe())
        return f"{self.callee.describe()}({', '.join(args)})"
