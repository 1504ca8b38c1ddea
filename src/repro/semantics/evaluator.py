"""The big-step interpreter for the Core P4 fragment.

:class:`Evaluator` threads the store μ and the control plane ``C`` through
the evaluation of expressions, statements, and declarations.  Closures and
table values capture their declaring environment, function calls use the
copy-in/copy-out discipline of Appendix H, and table application evaluates
the keys, consults ``C``, and invokes the matched action with both its
declaration-time arguments and the control-plane-supplied ones.

:func:`run_control` is the convenience entry point used by examples and by
the non-interference harness: it evaluates a whole program's declarations,
then runs one control block on caller-supplied parameter values, returning
the final values of every parameter (the "output packet").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.flow.units import DEFAULT_MATCH_KINDS
from repro.semantics.control_plane import ControlPlane
from repro.semantics.errors import EvaluationError
from repro.semantics.lvalues import (
    LField,
    LIndex,
    LValue,
    LVar,
    read_lvalue,
    write_lvalue,
    zero_like,
)
from repro.semantics.operators import eval_binary, eval_unary
from repro.semantics.signals import Signal
from repro.semantics.store import Environment, Store
from repro.semantics.values import (
    BoolValue,
    ClosureValue,
    HeaderValue,
    IntValue,
    MatchKindValue,
    RecordValue,
    StackValue,
    TableValue,
    UnitValue,
    Value,
    init_value,
)
from repro.syntax import declarations as d
from repro.syntax import expressions as e
from repro.syntax import statements as s
from repro.syntax.declarations import Direction
from repro.syntax.program import Program
from repro.syntax.types import HeaderType, MatchKindType, RecordType, Type

#: Safety valve against runaway evaluation (the fragment has no loops, but a
#: malformed synthetic program could still recurse through closures).
MAX_CALL_DEPTH = 256


@dataclass
class ControlRun:
    """The result of running one control block."""

    #: Final values of every control parameter, keyed by parameter name.
    parameters: Dict[str, Value]
    signal: Signal
    store_size: int = 0


class Evaluator:
    """Evaluates programs of the Core P4 fragment."""

    def __init__(self, control_plane: Optional[ControlPlane] = None) -> None:
        self.store = Store()
        self.control_plane = control_plane or ControlPlane()
        self._type_definitions: Dict[str, Type] = {}
        self._call_depth = 0

    # ------------------------------------------------------------------ type environment

    def lookup_type(self, name: str) -> Optional[Type]:
        return self._type_definitions.get(name)

    def default_value(self, ty: Type) -> Value:
        return init_value(ty, self.lookup_type)

    # ------------------------------------------------------------------ declarations

    def exec_declaration(self, decl: d.Declaration, env: Environment) -> None:
        if isinstance(decl, d.VarDecl):
            if decl.init is not None:
                value = self.eval_expression(decl.init, env)
            else:
                value = self.default_value(decl.ty.ty)
            env.bind(decl.name, self.store.fresh(value))
            return
        if isinstance(decl, d.TypedefDecl):
            self._type_definitions[decl.name] = decl.ty.ty
            return
        if isinstance(decl, d.HeaderDecl):
            self._type_definitions[decl.name] = HeaderType(decl.fields)
            return
        if isinstance(decl, d.StructDecl):
            self._type_definitions[decl.name] = RecordType(decl.fields)
            return
        if isinstance(decl, d.MatchKindDecl):
            self._type_definitions["match_kind"] = MatchKindType(decl.members)
            for member in decl.members:
                env.bind(member, self.store.fresh(MatchKindValue(member)))
            return
        if isinstance(decl, d.FunctionDecl):
            env.bind(decl.name, self.store.fresh(ClosureValue(env, decl)))
            return
        if isinstance(decl, d.TableDecl):
            env.bind(decl.name, self.store.fresh(TableValue(env, decl)))
            return
        raise EvaluationError(f"cannot evaluate declaration {decl.describe()}", decl.span)

    # ------------------------------------------------------------------ statements

    def exec_statement(self, stmt: s.Statement, env: Environment) -> Signal:
        if isinstance(stmt, s.Block):
            scope = env.child()
            for inner in stmt.statements:
                signal = self.exec_statement(inner, scope)
                if not signal.is_cont:
                    return signal
            return Signal.cont()
        if isinstance(stmt, s.Assign):
            lvalue = self.eval_lvalue(stmt.target, env)
            value = self.eval_expression(stmt.value, env)
            write_lvalue(lvalue, value, env, self.store)
            return Signal.cont()
        if isinstance(stmt, s.If):
            condition = self.eval_expression(stmt.condition, env)
            if not isinstance(condition, BoolValue):
                raise EvaluationError(
                    f"if condition evaluated to {condition.describe()}", stmt.span
                )
            branch = stmt.then_branch if condition.value else stmt.else_branch
            return self.exec_statement(branch, env)
        if isinstance(stmt, s.CallStmt):
            return self._exec_call_statement(stmt.call, env)
        if isinstance(stmt, s.Exit):
            return Signal.exit()
        if isinstance(stmt, s.Return):
            if stmt.value is None:
                return Signal.ret(UnitValue())
            return Signal.ret(self.eval_expression(stmt.value, env))
        if isinstance(stmt, s.VarDeclStmt):
            self.exec_declaration(stmt.declaration, env)
            return Signal.cont()
        raise EvaluationError(f"cannot evaluate statement {stmt.describe()}", stmt.span)

    def _exec_call_statement(self, call: e.Call, env: Environment) -> Signal:
        callee = self.eval_expression(call.callee, env)
        if isinstance(callee, TableValue):
            if call.arguments:
                raise EvaluationError("table application takes no arguments", call.span)
            return self.apply_table(callee, env)
        if isinstance(callee, ClosureValue):
            signal, _ = self.call_closure(callee, call.arguments, env)
            # A return terminates only the callee; exit propagates.
            if signal.is_exit:
                return signal
            return Signal.cont()
        raise EvaluationError(
            f"{call.callee.describe()!r} is not callable (value {callee.describe()})",
            call.span,
        )

    # ------------------------------------------------------------------ expressions

    def eval_expression(self, expr: e.Expression, env: Environment) -> Value:
        if isinstance(expr, e.BoolLiteral):
            return BoolValue(expr.value)
        if isinstance(expr, e.IntLiteral):
            return IntValue(expr.value, expr.width)
        if isinstance(expr, e.Var):
            return self.store.read(env.require(expr.name))
        if isinstance(expr, e.BinaryOp):
            left = self.eval_expression(expr.left, env)
            right = self.eval_expression(expr.right, env)
            return eval_binary(expr.op, left, right)
        if isinstance(expr, e.UnaryOp):
            return eval_unary(expr.op, self.eval_expression(expr.operand, env))
        if isinstance(expr, e.RecordLiteral):
            fields = tuple(
                (name, self.eval_expression(value, env)) for name, value in expr.fields
            )
            return RecordValue(fields)
        if isinstance(expr, e.FieldAccess):
            target = self.eval_expression(expr.target, env)
            if not isinstance(target, (RecordValue, HeaderValue)):
                raise EvaluationError(
                    f"cannot project field {expr.field_name!r} from "
                    f"{target.describe()}",
                    expr.span,
                )
            value = target.get(expr.field_name)
            if value is None:
                raise EvaluationError(
                    f"value {target.describe()} has no field {expr.field_name!r}",
                    expr.span,
                )
            return value
        if isinstance(expr, e.Index):
            array = self.eval_expression(expr.array, env)
            index = self.eval_expression(expr.index, env)
            if not isinstance(array, StackValue):
                raise EvaluationError(f"cannot index into {array.describe()}", expr.span)
            if not isinstance(index, IntValue):
                raise EvaluationError(
                    f"array index evaluated to {index.describe()}", expr.span
                )
            element = array.get(index.value)
            if element is None:
                # havoc(τ): deterministic zeroed element
                return zero_like(array.elements[0]) if array.elements else UnitValue()
            return element
        if isinstance(expr, e.Call):
            # declassify/endorse are run-time identities (see repro.ifc.declassify).
            if (
                isinstance(expr.callee, e.Var)
                and expr.callee.name in ("declassify", "endorse")
                and env.lookup(expr.callee.name) is None
            ):
                if len(expr.arguments) != 1:
                    raise EvaluationError(
                        f"{expr.callee.name} takes exactly one argument", expr.span
                    )
                return self.eval_expression(expr.arguments[0], env)
            callee = self.eval_expression(expr.callee, env)
            if isinstance(callee, TableValue):
                # tables in expression position are rejected by the type
                # checker; evaluate as a statement-style application anyway.
                self.apply_table(callee, env)
                return UnitValue()
            if not isinstance(callee, ClosureValue):
                raise EvaluationError(
                    f"{expr.callee.describe()!r} is not callable", expr.span
                )
            signal, _ = self.call_closure(callee, expr.arguments, env)
            if signal.is_return and signal.value is not None:
                return signal.value
            return UnitValue()
        raise EvaluationError(f"cannot evaluate expression {expr.describe()}", expr.span)

    # ------------------------------------------------------------------ l-values

    def eval_lvalue(self, expr: e.Expression, env: Environment) -> LValue:
        """Evaluate an expression to an l-value (Appendix F)."""
        if isinstance(expr, e.Var):
            return LVar(expr.name)
        if isinstance(expr, e.FieldAccess):
            return LField(self.eval_lvalue(expr.target, env), expr.field_name)
        if isinstance(expr, e.Index):
            base = self.eval_lvalue(expr.array, env)
            index = self.eval_expression(expr.index, env)
            if not isinstance(index, IntValue):
                raise EvaluationError(
                    f"array index evaluated to {index.describe()}", expr.span
                )
            return LIndex(base, index.value)
        raise EvaluationError(
            f"{expr.describe()!r} is not a valid l-value", expr.span
        )

    # ------------------------------------------------------------------ calls (copy-in / copy-out)

    def call_closure(
        self,
        closure: ClosureValue,
        arguments: Sequence[e.Expression],
        caller_env: Environment,
        control_args: Optional[Dict[str, Value]] = None,
    ) -> Tuple[Signal, Optional[Value]]:
        """Invoke a function/action closure.

        ``arguments`` are the caller-supplied (directional) argument
        expressions, evaluated in the caller's environment; ``control_args``
        supplies values for directionless parameters when the call comes
        from a table match.  Returns the final signal and the return value
        (if any).
        """
        self._call_depth += 1
        if self._call_depth > MAX_CALL_DEPTH:
            self._call_depth -= 1
            raise EvaluationError("call depth exceeded (recursion is not allowed in P4)")
        try:
            decl = closure.declaration
            body_env = closure.environment.child()
            copy_out: List[Tuple[LValue, int]] = []
            positional = list(arguments)
            control_args = control_args or {}
            for param in decl.params:
                value, out_target = self._bind_argument(
                    param, positional, control_args, caller_env
                )
                location = self.store.fresh(value)
                body_env.bind(param.name, location)
                if out_target is not None:
                    copy_out.append((out_target, location))
            signal = self.exec_statement(decl.body, body_env)
            for lvalue, location in copy_out:
                write_lvalue(lvalue, self.store.read(location), caller_env, self.store)
            return_value = signal.value if signal.is_return else None
            return signal, return_value
        finally:
            self._call_depth -= 1

    def _bind_argument(
        self,
        param: d.Param,
        positional: List[e.Expression],
        control_args: Dict[str, Value],
        caller_env: Environment,
    ) -> Tuple[Value, Optional[LValue]]:
        """Copy-in one parameter; returns its initial value and, for
        writable parameters, the caller l-value to copy back out to."""
        direction = param.direction
        if positional:
            argument = positional.pop(0)
            if direction in (Direction.INOUT, Direction.OUT):
                lvalue = self.eval_lvalue(argument, caller_env)
                if direction is Direction.OUT:
                    return self.default_value(param.ty.ty), lvalue
                return read_lvalue(lvalue, caller_env, self.store), lvalue
            return self.eval_expression(argument, caller_env), None
        if param.name in control_args:
            return control_args[param.name], None
        # Unsupplied directionless parameter: default-initialised, mirroring
        # a controller that installed no argument.
        return self.default_value(param.ty.ty), None

    # ------------------------------------------------------------------ tables

    def apply_table(self, table: TableValue, caller_env: Environment) -> Signal:
        """Apply a match-action table (the ⇓_match rule plus action call)."""
        decl = table.declaration
        table_env = table.environment
        key_values = [self.eval_expression(key.expression, table_env) for key in decl.keys]
        declared_actions = [ref.name for ref in decl.actions]
        resolved = self.control_plane.resolve(decl.name, key_values, declared_actions)
        if resolved is None:
            return Signal.cont()
        action_ref = next(
            (ref for ref in decl.actions if ref.name == resolved.action), None
        )
        if action_ref is None:
            raise EvaluationError(
                f"control plane chose action {resolved.action!r} which table "
                f"{decl.name!r} does not declare"
            )
        location = table_env.lookup(action_ref.name)
        if location is None:
            raise EvaluationError(
                f"table {decl.name!r} refers to undeclared action {action_ref.name!r}"
            )
        closure = self.store.read(location)
        if not isinstance(closure, ClosureValue):
            raise EvaluationError(
                f"table action {action_ref.name!r} is not an action closure"
            )
        signal, _ = self.call_closure(
            closure, action_ref.arguments, table_env, resolved.control_args
        )
        if signal.is_exit:
            return signal
        return Signal.cont()


def run_control(
    program: Program,
    inputs: Optional[Dict[str, Value]] = None,
    *,
    control_name: Optional[str] = None,
    control_plane: Optional[ControlPlane] = None,
) -> ControlRun:
    """Evaluate ``program`` and run one of its control blocks.

    ``inputs`` supplies initial values for the control's parameters (missing
    parameters are default-initialised from their declared types), and the
    returned :class:`ControlRun` reports every parameter's final value --
    for packet-processing programs these are the output headers.
    """
    evaluator = Evaluator(control_plane)
    global_env = Environment()
    for member in DEFAULT_MATCH_KINDS:
        global_env.bind(member, evaluator.store.fresh(MatchKindValue(member)))
    for decl in program.declarations:
        evaluator.exec_declaration(decl, global_env)

    if control_name is None:
        control = program.main_control()
    else:
        found = program.control_named(control_name)
        if found is None:
            raise EvaluationError(f"program has no control named {control_name!r}")
        control = found

    control_env = global_env.child()
    inputs = inputs or {}
    for param in control.params:
        if param.name in inputs:
            value = inputs[param.name]
        else:
            value = evaluator.default_value(param.ty.ty)
        control_env.bind(param.name, evaluator.store.fresh(value))

    local_env = control_env.child()
    for decl in control.local_declarations:
        evaluator.exec_declaration(decl, local_env)
    signal = evaluator.exec_statement(control.apply_block, local_env)

    final: Dict[str, Value] = {}
    for param in control.params:
        final[param.name] = evaluator.store.read(control_env.require(param.name))
    return ControlRun(final, signal, store_size=len(evaluator.store))
