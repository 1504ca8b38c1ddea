"""The ordinary Core P4 type checker.

Implements the label-free typing judgements the paper recalls in
Section 3.3:

* ``Γ, Δ ⊢ exp : κ goes d`` -- expression typing with a directionality,
* ``Γ, Δ ⊢ stmt ⊣ Γ'`` -- statement typing,
* ``Γ, Δ ⊢ decl ⊣ Γ', Δ'`` -- declaration typing.

The checker collects diagnostics instead of aborting on the first error so
the CLI can report every problem in a file, matching p4c's behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.syntax import declarations as d
from repro.syntax import expressions as e
from repro.syntax import statements as s
from repro.syntax.program import Program
from repro.syntax.source import SourceSpan
from repro.syntax.types import (
    AnnotatedType,
    BitType,
    BoolType,
    Field,
    FunctionType,
    HeaderType,
    IntType,
    MatchKindType,
    Parameter,
    RecordType,
    StackType,
    TableType,
    Type,
    TypeName,
    UnitType,
)
from repro.typechecker.compat import types_compatible
from repro.typechecker.environment import (
    RecordingTypeContext,
    RecordingTypeDefinitions,
    TypeContext,
    TypeDefinitions,
)
from repro.typechecker.errors import CoreTypeError, TypeDiagnostic
from repro.typechecker.operators import binary_result_type, unary_result_type
from repro.typechecker.unfold import UnfoldError, unfold_type

if TYPE_CHECKING:  # pragma: no cover
    from repro.flow.units import UnitCache

#: Directionality of an expression: read-only or readable-and-writable.
DIR_IN = "in"
DIR_INOUT = "inout"

#: The match kinds the checker accepts when no match_kind declaration is in
#: scope.  Real P4 programs import these from core.p4; our dialect lets the
#: programmer redeclare them but does not require it.
DEFAULT_MATCH_KINDS = ("exact", "lpm", "ternary", "range", "optional")


@dataclass
class CoreCheckResult:
    """Outcome of running the ordinary type checker over a program."""

    program: Program
    diagnostics: List[TypeDiagnostic] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.diagnostics

    def raise_on_error(self) -> "CoreCheckResult":
        if self.diagnostics:
            raise CoreTypeError(self.diagnostics)
        return self


class CoreTypeChecker:
    """Checks a program against the ordinary Core P4 type system."""

    def __init__(self) -> None:
        self._diagnostics: List[TypeDiagnostic] = []

    # ------------------------------------------------------------------ entry points

    def check_program(
        self, program: Program, cache: Optional["UnitCache"] = None
    ) -> CoreCheckResult:
        """Check every top-level unit through the per-unit loop
        (:func:`repro.flow.units.drive_units`); with a ``cache``, units it
        holds valid products for are replayed instead of re-checked."""
        from repro.flow.units import drive_units, program_units

        products = drive_units(_CoreUnits(self), program_units(program), cache)
        self._diagnostics = [diag for unit in products for diag in unit.outputs]
        return CoreCheckResult(program, list(self._diagnostics))

    def check_control(
        self, control: d.ControlDecl, gamma: TypeContext, delta: TypeDefinitions
    ) -> None:
        scope = gamma.child()
        for param in control.params:
            resolved = self._resolve_type(param.ty, delta, param.span)
            scope.bind(param.name, resolved)
        for decl in control.local_declarations:
            scope, delta = self.check_declaration(decl, scope, delta)
        self.check_statement(control.apply_block, scope, delta)

    # ------------------------------------------------------------------ helpers

    def _error(self, message: str, span: SourceSpan, rule: str = "") -> None:
        self._diagnostics.append(TypeDiagnostic(message, span, rule))

    def _install_default_match_kinds(
        self, delta: TypeDefinitions, gamma: TypeContext
    ) -> None:
        kind_type = MatchKindType(DEFAULT_MATCH_KINDS)
        delta.define("match_kind", kind_type)
        for member in DEFAULT_MATCH_KINDS:
            gamma.bind(member, kind_type)

    def _resolve_type(
        self, annotated: AnnotatedType, delta: TypeDefinitions, span: SourceSpan
    ) -> Type:
        """Unfold an annotated type, reporting unknown names as diagnostics."""
        try:
            return unfold_type(delta, annotated.ty)
        except UnfoldError as exc:
            self._error(str(exc), span, rule="typedef")
            return UnitType()

    def _unfold(self, ty: Type, delta: TypeDefinitions, span: SourceSpan) -> Type:
        try:
            return unfold_type(delta, ty)
        except UnfoldError as exc:
            self._error(str(exc), span, rule="typedef")
            return UnitType()

    # ------------------------------------------------------------------ declarations

    def check_declaration(
        self, decl: d.Declaration, gamma: TypeContext, delta: TypeDefinitions
    ) -> Tuple[TypeContext, TypeDefinitions]:
        if isinstance(decl, d.VarDecl):
            return self._check_var_decl(decl, gamma, delta), delta
        if isinstance(decl, d.TypedefDecl):
            delta.define(decl.name, decl.ty.ty)
            return gamma, delta
        if isinstance(decl, d.HeaderDecl):
            delta.define(decl.name, HeaderType(decl.fields))
            return gamma, delta
        if isinstance(decl, d.StructDecl):
            delta.define(decl.name, RecordType(decl.fields))
            return gamma, delta
        if isinstance(decl, d.MatchKindDecl):
            # P4 match_kind declarations accumulate: each adds its members
            # to the kinds declared before it.
            earlier = delta.lookup("match_kind")
            members = earlier.members if isinstance(earlier, MatchKindType) else ()
            kind_type = MatchKindType(tuple(dict.fromkeys(members + decl.members)))
            delta.define("match_kind", kind_type)
            for member in decl.members:
                gamma.bind(member, kind_type)
            return gamma, delta
        if isinstance(decl, d.FunctionDecl):
            return self._check_function_decl(decl, gamma, delta), delta
        if isinstance(decl, d.TableDecl):
            return self._check_table_decl(decl, gamma, delta), delta
        self._error(f"unsupported declaration {decl.describe()}", decl.span)
        return gamma, delta

    def _check_var_decl(
        self, decl: d.VarDecl, gamma: TypeContext, delta: TypeDefinitions
    ) -> TypeContext:
        declared = self._resolve_type(decl.ty, delta, decl.span)
        if not declared.is_base():
            self._error(
                f"variables must have base types, not {declared.describe()}",
                decl.span,
                rule="T-VarDecl",
            )
        if decl.init is not None:
            init_type, _ = self.check_expression(decl.init, gamma, delta)
            if init_type is not None and not types_compatible(delta, declared, init_type):
                self._error(
                    f"initialiser of {decl.name!r} has type {init_type.describe()}, "
                    f"expected {declared.describe()}",
                    decl.span,
                    rule="T-VarInit",
                )
        gamma.bind(decl.name, declared)
        return gamma

    def _check_function_decl(
        self, decl: d.FunctionDecl, gamma: TypeContext, delta: TypeDefinitions
    ) -> TypeContext:
        parameters: List[Parameter] = []
        body_scope = gamma.child()
        for param in decl.params:
            resolved = self._resolve_type(param.ty, delta, param.span)
            body_scope.bind(param.name, resolved)
            parameters.append(
                Parameter(
                    param.direction.effective().value,
                    AnnotatedType(resolved, param.ty.label),
                    param.name,
                )
            )
        if decl.return_type is None:
            return_type = AnnotatedType(UnitType(), None)
        else:
            return_type = AnnotatedType(
                self._resolve_type(decl.return_type, delta, decl.span),
                decl.return_type.label,
            )
        body_scope.bind(TypeContext.RETURN_KEY, return_type.ty)
        self.check_statement(decl.body, body_scope, delta)
        fn_type = FunctionType(tuple(parameters), return_type)
        gamma.bind(decl.name, fn_type)
        return gamma

    def _check_table_decl(
        self, decl: d.TableDecl, gamma: TypeContext, delta: TypeDefinitions
    ) -> TypeContext:
        known_kinds = set(DEFAULT_MATCH_KINDS)
        declared_kinds = delta.lookup("match_kind")
        if isinstance(declared_kinds, MatchKindType):
            known_kinds |= set(declared_kinds.members)
        for key in decl.keys:
            key_type, _ = self.check_expression(key.expression, gamma, delta)
            if key_type is not None and not key_type.is_base():
                self._error(
                    f"table key {key.expression.describe()!r} must have a base type",
                    key.span,
                    rule="T-TblDecl",
                )
            if key.match_kind not in known_kinds:
                self._error(
                    f"unknown match kind {key.match_kind!r}",
                    key.span,
                    rule="T-TblDecl",
                )
        for action_ref in decl.actions:
            self._check_action_ref(action_ref, gamma, delta)
        gamma.bind(decl.name, TableType())
        return gamma

    def _check_action_ref(
        self, ref: d.ActionRef, gamma: TypeContext, delta: TypeDefinitions
    ) -> None:
        target = gamma.lookup(ref.name)
        if target is None:
            self._error(
                f"table refers to undeclared action {ref.name!r}",
                ref.span,
                rule="T-TblDecl",
            )
            return
        if not isinstance(target, FunctionType):
            self._error(
                f"table action {ref.name!r} is not an action (it has type "
                f"{target.describe()})",
                ref.span,
                rule="T-TblDecl",
            )
            return
        if len(ref.arguments) > len(target.parameters):
            self._error(
                f"action {ref.name!r} takes {len(target.parameters)} parameters but "
                f"{len(ref.arguments)} arguments were supplied",
                ref.span,
                rule="T-TblDecl",
            )
            return
        for argument, parameter in zip(ref.arguments, target.parameters):
            arg_type, arg_dir = self.check_expression(argument, gamma, delta)
            if arg_type is None:
                continue
            expected = self._unfold(parameter.ty.ty, delta, ref.span)
            if not types_compatible(delta, expected, arg_type):
                self._error(
                    f"argument {argument.describe()!r} of action {ref.name!r} has type "
                    f"{arg_type.describe()}, expected {expected.describe()}",
                    ref.span,
                    rule="T-TblDecl",
                )
            if parameter.direction in (DIR_INOUT, "out") and arg_dir != DIR_INOUT:
                self._error(
                    f"argument {argument.describe()!r} must be writable (direction "
                    f"{parameter.direction})",
                    ref.span,
                    rule="T-TblDecl",
                )

    # ------------------------------------------------------------------ statements

    def check_statement(
        self, stmt: s.Statement, gamma: TypeContext, delta: TypeDefinitions
    ) -> TypeContext:
        if isinstance(stmt, s.Block):
            scope = gamma.child()
            for inner in stmt.statements:
                scope = self.check_statement(inner, scope, delta)
            return gamma
        if isinstance(stmt, s.Assign):
            self._check_assign(stmt, gamma, delta)
            return gamma
        if isinstance(stmt, s.CallStmt):
            self.check_expression(stmt.call, gamma, delta, allow_table_apply=True)
            return gamma
        if isinstance(stmt, s.If):
            cond_type, _ = self.check_expression(stmt.condition, gamma, delta)
            if cond_type is not None and not isinstance(
                self._unfold(cond_type, delta, stmt.span), BoolType
            ):
                self._error(
                    f"if condition has type {cond_type.describe()}, expected bool",
                    stmt.condition.span,
                    rule="T-Cond",
                )
            self.check_statement(stmt.then_branch, gamma, delta)
            self.check_statement(stmt.else_branch, gamma, delta)
            return gamma
        if isinstance(stmt, s.Exit):
            return gamma
        if isinstance(stmt, s.Return):
            self._check_return(stmt, gamma, delta)
            return gamma
        if isinstance(stmt, s.VarDeclStmt):
            return self._check_var_decl(stmt.declaration, gamma, delta)
        self._error(f"unsupported statement {stmt.describe()}", stmt.span)
        return gamma

    def _check_assign(
        self, stmt: s.Assign, gamma: TypeContext, delta: TypeDefinitions
    ) -> None:
        target_type, target_dir = self.check_expression(stmt.target, gamma, delta)
        value_type, _ = self.check_expression(stmt.value, gamma, delta)
        if target_type is None or value_type is None:
            return
        if target_dir != DIR_INOUT:
            self._error(
                f"cannot assign to read-only expression {stmt.target.describe()!r}",
                stmt.target.span,
                rule="T-Assign",
            )
        if not types_compatible(delta, target_type, value_type):
            self._error(
                f"cannot assign {value_type.describe()} to "
                f"{stmt.target.describe()!r} of type {target_type.describe()}",
                stmt.span,
                rule="T-Assign",
            )

    def _check_return(
        self, stmt: s.Return, gamma: TypeContext, delta: TypeDefinitions
    ) -> None:
        expected = gamma.lookup(TypeContext.RETURN_KEY)
        if expected is None:
            self._error(
                "return statement outside of a function or action",
                stmt.span,
                rule="T-Return",
            )
            return
        expected = self._unfold(expected, delta, stmt.span)
        if stmt.value is None:
            if not isinstance(expected, UnitType):
                self._error(
                    f"return without a value in a function returning "
                    f"{expected.describe()}",
                    stmt.span,
                    rule="T-Return",
                )
            return
        value_type, _ = self.check_expression(stmt.value, gamma, delta)
        if value_type is not None and not types_compatible(delta, expected, value_type):
            self._error(
                f"return value has type {value_type.describe()}, expected "
                f"{expected.describe()}",
                stmt.span,
                rule="T-Return",
            )

    # ------------------------------------------------------------------ expressions

    def check_expression(
        self,
        expr: e.Expression,
        gamma: TypeContext,
        delta: TypeDefinitions,
        *,
        allow_table_apply: bool = False,
    ) -> Tuple[Optional[Type], str]:
        """Type an expression; returns ``(type, direction)``.

        Returns ``(None, "in")`` when the expression is ill-typed; a
        diagnostic has already been recorded in that case.
        """
        if isinstance(expr, e.BoolLiteral):
            return BoolType(), DIR_IN
        if isinstance(expr, e.IntLiteral):
            if expr.width is None:
                return IntType(), DIR_IN
            return BitType(expr.width), DIR_IN
        if isinstance(expr, e.Var):
            ty = gamma.lookup(expr.name)
            if ty is None:
                self._error(f"unknown variable {expr.name!r}", expr.span, rule="T-Var")
                return None, DIR_IN
            return ty, DIR_INOUT
        if isinstance(expr, e.Index):
            return self._check_index(expr, gamma, delta)
        if isinstance(expr, e.BinaryOp):
            return self._check_binary(expr, gamma, delta)
        if isinstance(expr, e.UnaryOp):
            return self._check_unary(expr, gamma, delta)
        if isinstance(expr, e.RecordLiteral):
            return self._check_record_literal(expr, gamma, delta)
        if isinstance(expr, e.FieldAccess):
            return self._check_field_access(expr, gamma, delta)
        if isinstance(expr, e.Call):
            return self._check_call(expr, gamma, delta, allow_table_apply)
        self._error(f"unsupported expression {expr.describe()}", expr.span)
        return None, DIR_IN

    def _check_index(
        self, expr: e.Index, gamma: TypeContext, delta: TypeDefinitions
    ) -> Tuple[Optional[Type], str]:
        array_type, direction = self.check_expression(expr.array, gamma, delta)
        index_type, _ = self.check_expression(expr.index, gamma, delta)
        if array_type is None:
            return None, DIR_IN
        array_type = self._unfold(array_type, delta, expr.span)
        if not isinstance(array_type, StackType):
            self._error(
                f"cannot index into non-array type {array_type.describe()}",
                expr.span,
                rule="T-Index",
            )
            return None, DIR_IN
        if index_type is not None and not isinstance(
            self._unfold(index_type, delta, expr.span), (BitType, IntType)
        ):
            self._error(
                f"array index must be numeric, found {index_type.describe()}",
                expr.index.span,
                rule="T-Index",
            )
        return self._unfold(array_type.element.ty, delta, expr.span), direction

    def _check_binary(
        self, expr: e.BinaryOp, gamma: TypeContext, delta: TypeDefinitions
    ) -> Tuple[Optional[Type], str]:
        left_type, _ = self.check_expression(expr.left, gamma, delta)
        right_type, _ = self.check_expression(expr.right, gamma, delta)
        if left_type is None or right_type is None:
            return None, DIR_IN
        left_type = self._unfold(left_type, delta, expr.span)
        right_type = self._unfold(right_type, delta, expr.span)
        result = binary_result_type(expr.op, left_type, right_type)
        if result is None:
            self._error(
                f"operator {expr.op!r} cannot be applied to {left_type.describe()} "
                f"and {right_type.describe()}",
                expr.span,
                rule="T-BinOp",
            )
            return None, DIR_IN
        return result, DIR_IN

    def _check_unary(
        self, expr: e.UnaryOp, gamma: TypeContext, delta: TypeDefinitions
    ) -> Tuple[Optional[Type], str]:
        operand_type, _ = self.check_expression(expr.operand, gamma, delta)
        if operand_type is None:
            return None, DIR_IN
        operand_type = self._unfold(operand_type, delta, expr.span)
        result = unary_result_type(expr.op, operand_type)
        if result is None:
            self._error(
                f"operator {expr.op!r} cannot be applied to {operand_type.describe()}",
                expr.span,
                rule="T-UnOp",
            )
            return None, DIR_IN
        return result, DIR_IN

    def _check_record_literal(
        self, expr: e.RecordLiteral, gamma: TypeContext, delta: TypeDefinitions
    ) -> Tuple[Optional[Type], str]:
        fields: List[Field] = []
        for name, value in expr.fields:
            value_type, _ = self.check_expression(value, gamma, delta)
            if value_type is None:
                return None, DIR_IN
            fields.append(Field(name, AnnotatedType(value_type, None)))
        return RecordType(tuple(fields)), DIR_IN

    def _check_field_access(
        self, expr: e.FieldAccess, gamma: TypeContext, delta: TypeDefinitions
    ) -> Tuple[Optional[Type], str]:
        target_type, direction = self.check_expression(expr.target, gamma, delta)
        if target_type is None:
            return None, DIR_IN
        target_type = self._unfold(target_type, delta, expr.span)
        if not isinstance(target_type, (RecordType, HeaderType)):
            self._error(
                f"cannot project field {expr.field_name!r} from "
                f"{target_type.describe()}",
                expr.span,
                rule="T-MemRec",
            )
            return None, DIR_IN
        target_field = target_type.field_named(expr.field_name)
        if target_field is None:
            self._error(
                f"type {target_type.describe()} has no field {expr.field_name!r}",
                expr.span,
                rule="T-MemRec",
            )
            return None, DIR_IN
        return self._unfold(target_field.ty.ty, delta, expr.span), direction

    def _check_call(
        self,
        expr: e.Call,
        gamma: TypeContext,
        delta: TypeDefinitions,
        allow_table_apply: bool,
    ) -> Tuple[Optional[Type], str]:
        # declassify/endorse are built-in identity functions (see
        # repro.ifc.declassify); they are ordinary-typed as τ -> τ.
        if (
            isinstance(expr.callee, e.Var)
            and expr.callee.name in ("declassify", "endorse")
            and gamma.lookup(expr.callee.name) is None
        ):
            if len(expr.arguments) != 1:
                self._error(
                    f"{expr.callee.name} takes exactly one argument",
                    expr.span,
                    rule="T-Call",
                )
                return None, DIR_IN
            return self.check_expression(expr.arguments[0], gamma, delta)[0], DIR_IN
        callee_type, _ = self.check_expression(expr.callee, gamma, delta)
        if callee_type is None:
            return None, DIR_IN
        if isinstance(callee_type, TableType):
            if not allow_table_apply:
                self._error(
                    "tables may only be applied in statement position",
                    expr.span,
                    rule="T-TblCall",
                )
            if expr.arguments:
                self._error(
                    "table application takes no arguments",
                    expr.span,
                    rule="T-TblCall",
                )
            return UnitType(), DIR_IN
        if not isinstance(callee_type, FunctionType):
            self._error(
                f"{expr.callee.describe()!r} of type {callee_type.describe()} "
                "is not callable",
                expr.span,
                rule="T-Call",
            )
            return None, DIR_IN
        directional = [
            p for p in callee_type.parameters if p.direction in (DIR_IN, DIR_INOUT, "out", "")
        ]
        if len(expr.arguments) > len(directional):
            self._error(
                f"call supplies {len(expr.arguments)} arguments but "
                f"{expr.callee.describe()!r} takes {len(directional)}",
                expr.span,
                rule="T-Call",
            )
            return self._unfold(callee_type.return_type.ty, delta, expr.span), DIR_IN
        for argument, parameter in zip(expr.arguments, callee_type.parameters):
            arg_type, arg_dir = self.check_expression(argument, gamma, delta)
            if arg_type is None:
                continue
            expected = self._unfold(parameter.ty.ty, delta, expr.span)
            if not types_compatible(delta, expected, arg_type):
                self._error(
                    f"argument {argument.describe()!r} has type {arg_type.describe()}, "
                    f"expected {expected.describe()}",
                    argument.span,
                    rule="T-Call",
                )
            if parameter.direction in (DIR_INOUT, "out") and arg_dir != DIR_INOUT:
                self._error(
                    f"argument {argument.describe()!r} for {parameter.direction} "
                    f"parameter {parameter.name!r} must be an l-value",
                    argument.span,
                    rule="T-Call",
                )
        return self._unfold(callee_type.return_type.ty, delta, expr.span), DIR_IN


class _CoreUnits:
    """The :func:`~repro.flow.units.drive_units` walker of the Core P4
    checker: one recorded top-level Γ/Δ, diagnostics captured per unit."""

    def __init__(self, checker: CoreTypeChecker) -> None:
        self.checker = checker
        self.gamma = RecordingTypeContext()
        self.delta = RecordingTypeDefinitions()
        checker._install_default_match_kinds(self.delta, self.gamma)
        self.recorders = (self.gamma, self.delta)
        self.sinks = {"gamma": self.gamma.bind, "delta": self.delta.define}

    def begin_unit(self) -> None:
        self.checker._diagnostics = []

    def end_unit(self) -> List[TypeDiagnostic]:
        return self.checker._diagnostics

    def walk(self, unit) -> None:
        if isinstance(unit, d.ControlDecl):
            self.checker.check_control(unit, self.gamma, self.delta)
        else:
            self.checker.check_declaration(unit, self.gamma, self.delta)


def check_core_types(
    program: Program, cache: Optional["UnitCache"] = None
) -> CoreCheckResult:
    """Run the ordinary type checker over ``program``.

    A ``cache`` (:class:`repro.flow.units.UnitCache`) lets a long-lived
    caller re-check only the units an edit invalidated.
    """
    return CoreTypeChecker().check_program(program, cache)
