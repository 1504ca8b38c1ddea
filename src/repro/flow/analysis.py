"""The single Figure 5–7 traversal, parameterized by a label algebra.

``FlowAnalysis`` walks a :class:`~repro.syntax.program.Program` -- its
declarations (Figure 7), statements (Figure 6), and expressions
(Figure 5) -- exactly once, and at every rule site calls into the
:class:`~repro.flow.algebra.LabelAlgebra` it was constructed with.  Run
with the :class:`~repro.flow.concrete.ConcreteAlgebra` it *is* the IFC
checker; run with the :class:`~repro.flow.symbolic.SymbolicAlgebra` it
*is* the constraint generator.  The rule bodies exist only here, so the
two interpretations cannot drift: a new rule (or a fix to an old one)
reaches both by construction.

Write-effect inference
----------------------

The typing rules take the function bound ``pc_fn`` and the table bound
``pc_tbl`` as given (they appear in the types).  The traversal *infers*
them: ``pc_fn`` is the greatest lower bound of the labels the function
body writes (assignment targets, bounds of callees, ⊥ for ``exit`` /
``return`` which only type under a ⊥ pc), and ``pc_tbl`` is the meet of
the bounds of the table's actions.  T-TblDecl's side conditions
``χ_k ⊑ pc_fn_j`` then become checkable conditions between the inferred
bounds and the labels of the table keys.

The body walk that collects the write bounds runs under a ⊥ pc inside
``algebra.write_bound_pass()``.  The concrete algebra silences
diagnostics there and asks (``rechecks_bodies``) for a second walk under
the inferred ``pc_fn`` -- the original checker's strategy.  The symbolic
algebra takes the first walk as the real one: re-walking under ``pc_fn``
would only add conditions of the shape ``⨅ targets ⊑ target_i``, which
hold by lattice laws -- except at declassify sites, whose ``pc ⊑ ⊥``
condition does involve ``pc_fn``; those are flagged via
``RuleSite.pc_obligation`` and the symbolic algebra emits them against
``pc_fn`` when the body walk finishes.

Per-unit driving
----------------

:meth:`FlowAnalysis.run` does not loop over the program itself: it hands
the top-level units to :func:`repro.flow.units.drive_units`, which walks
them one at a time with each unit's top-level effects recorded and the
algebra's outputs captured per unit (``begin_unit`` / ``end_unit``), then
concatenates them in unit order (``merge_units``).  Given a cache, the
loop replays the effects of units whose products are still valid
instead of walking them -- the incremental constraint generator and the
workspace's IFC re-check are this one loop with a cache; the one-shot
checker and generator are it without one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.flow.algebra import LabelAlgebra, RuleSite
from repro.ifc.context import SecurityContext
from repro.ifc.convert import LabelResolutionError, TypeLabeler
from repro.ifc.declassify import DECLASSIFY_FUNCTIONS
from repro.ifc.errors import ViolationKind
from repro.ifc.security_types import (
    DIR_IN,
    DIR_INOUT,
    SBit,
    SBool,
    SFunction,
    SHeader,
    SInt,
    SMatchKind,
    SParam,
    SRecord,
    SStack,
    STable,
    SUnit,
    SecurityBody,
    SecurityType,
    bodies_compatible,
)
from repro.syntax import declarations as d
from repro.syntax import expressions as e
from repro.syntax import statements as s
from repro.syntax.declarations import Direction
from repro.syntax.program import Program
from repro.syntax.source import SourceSpan
from repro.syntax.types import AnnotatedType, HeaderType, RecordType

if TYPE_CHECKING:  # pragma: no cover
    from repro.flow.units import UnitCache


def binary_result_body(op: str, left: SecurityBody, right: SecurityBody) -> SecurityBody:
    """The type component of a binary operation's result (T-BinOp)."""
    if op in {"==", "!=", "<", ">", "<=", ">=", "&&", "||"}:
        return SBool()
    if isinstance(left, SBit):
        return left
    if isinstance(right, SBit):
        return right
    if isinstance(left, SInt) or isinstance(right, SInt):
        return SInt()
    return left


class FlowAnalysis:
    """One walk of the Figure 5–7 rules over an abstract label algebra."""

    def __init__(self, algebra: LabelAlgebra) -> None:
        self.algebra = algebra
        self._write_bounds: List[List[object]] = []
        #: Inferred write bounds (carrier-valued), by action / table name.
        self.function_bounds: dict = {}
        self.table_bounds: dict = {}
        #: Enclosing control/action names, innermost last (scopes slot hints).
        self._owner: List[str] = []

    # ------------------------------------------------------------------ plumbing

    def _record_write(self, bound) -> None:
        if self._write_bounds:
            self._write_bounds[-1].append(bound)

    def _security_type(
        self, annotated: AnnotatedType, labeler: TypeLabeler, span: SourceSpan
    ) -> Optional[SecurityType]:
        try:
            return labeler.security_type(annotated)
        except LabelResolutionError as exc:
            self.algebra.error(ViolationKind.LABEL_ERROR, str(exc), span, rule="labels")
            return None

    # ------------------------------------------------------------------ entry point

    def run(self, program: Program, cache: Optional["UnitCache"] = None) -> None:
        """Walk the whole program (named declarations, then controls).

        The walk goes through the per-unit loop
        (:func:`repro.flow.units.drive_units`): each top-level unit's
        outputs are captured separately and concatenated in unit order
        into the algebra's outputs.  With a ``cache``, units it holds
        valid products for are replayed instead of walked.
        """
        from repro.flow.units import FlowUnits, drive_units, program_units

        products = drive_units(
            FlowUnits(self), program_units(program), cache
        )
        self.algebra.merge_units([unit.outputs for unit in products])

    # ------------------------------------------------------------------ controls

    def check_control(
        self,
        control: d.ControlDecl,
        gamma: SecurityContext,
        labeler: TypeLabeler,
    ) -> None:
        pc = self.algebra.resolve_control_pc(control)
        scope = gamma.child()
        for param in control.params:
            if self.algebra.wants_hints:
                self.algebra.suggest_hint(
                    param.ty, f"parameter {param.name} of control {control.name}"
                )
            sec_type = self._security_type(param.ty, labeler, param.span)
            if sec_type is not None:
                scope.bind(param.name, sec_type)
        self._owner.append(control.name)
        try:
            for decl in control.local_declarations:
                scope = self.check_declaration(decl, scope, labeler, pc)
            self.check_statement(control.apply_block, scope, labeler, pc)
        finally:
            self._owner.pop()

    # ------------------------------------------------------------------ declarations (Figure 7)

    def check_declaration(
        self,
        decl: d.Declaration,
        gamma: SecurityContext,
        labeler: TypeLabeler,
        pc,
    ) -> SecurityContext:
        if isinstance(decl, d.VarDecl):
            return self._check_var_decl(decl, gamma, labeler, pc)
        if isinstance(decl, d.TypedefDecl):
            if self.algebra.wants_hints:
                self.algebra.suggest_hint(decl.ty, f"typedef {decl.name}")
            labeler.definitions.define(decl.name, decl.ty)
            return gamma
        if isinstance(decl, (d.HeaderDecl, d.StructDecl)) and self.algebra.wants_hints:
            # A field's variable is made where the type is first used,
            # possibly by a later unit: the hint outlives this walk.
            for field in decl.fields:
                self.algebra.suggest_hint(field.ty, f"field {decl.name}.{field.name}")
        if isinstance(decl, d.HeaderDecl):
            labeler.definitions.define(
                decl.name, AnnotatedType(HeaderType(decl.fields), None, decl.span)
            )
            return gamma
        if isinstance(decl, d.StructDecl):
            labeler.definitions.define(
                decl.name, AnnotatedType(RecordType(decl.fields), None, decl.span)
            )
            return gamma
        if isinstance(decl, d.MatchKindDecl):
            kind = SecurityType(SMatchKind(), self.algebra.bottom)
            for member in decl.members:
                gamma.bind(member, kind)
            return gamma
        if isinstance(decl, d.FunctionDecl):
            return self._check_function_decl(decl, gamma, labeler)
        if isinstance(decl, d.TableDecl):
            return self._check_table_decl(decl, gamma, labeler, pc)
        self.algebra.type_error(
            f"unsupported declaration {decl.describe()}", decl.span, rule="decl"
        )
        return gamma

    # -- T-VarDecl / T-VarInit ------------------------------------------------

    def _check_var_decl(
        self,
        decl: d.VarDecl,
        gamma: SecurityContext,
        labeler: TypeLabeler,
        pc,
    ) -> SecurityContext:
        if self.algebra.wants_hints:
            owner = f" in {self._owner[-1]}" if self._owner else ""
            self.algebra.suggest_hint(decl.ty, f"variable {decl.name}{owner}")
        declared = self._security_type(decl.ty, labeler, decl.span)
        if declared is None:
            return gamma
        if decl.init is not None:
            init_type, _ = self.check_expression(decl.init, gamma, labeler, pc)
            if init_type is not None and bodies_compatible(declared.body, init_type.body):
                self.algebra.require_flow(
                    init_type,
                    declared,
                    RuleSite(
                        decl.span,
                        rule="T-VarInit",
                        kind=ViolationKind.EXPLICIT_FLOW,
                        reason=(
                            f"initialiser of {decl.name!r} flows into its "
                            "declared label"
                        ),
                        message=(
                            f"initialiser of {decl.name!r} has label {{src}}, "
                            "which may not flow into a variable labelled {dst}"
                        ),
                    ),
                )
        gamma.bind(decl.name, declared)
        return gamma

    # -- T-FuncDecl -----------------------------------------------------------

    def _check_function_decl(
        self,
        decl: d.FunctionDecl,
        gamma: SecurityContext,
        labeler: TypeLabeler,
    ) -> SecurityContext:
        algebra = self.algebra
        parameters: List[SParam] = []
        body_scope = gamma.child()
        for param in decl.params:
            if algebra.wants_hints:
                algebra.suggest_hint(param.ty, f"parameter {param.name} of {decl.name}")
            sec_type = self._security_type(param.ty, labeler, param.span)
            if sec_type is None:
                sec_type = SecurityType(SUnit(), algebra.bottom)
            body_scope.bind(param.name, sec_type)
            parameters.append(
                SParam(
                    param.direction.effective().value,
                    sec_type,
                    param.name,
                    control_plane=param.direction is Direction.NONE,
                )
            )
        if decl.return_type is None:
            return_type = SecurityType(SUnit(), algebra.bottom)
        else:
            if algebra.wants_hints:
                algebra.suggest_hint(decl.return_type, f"return type of {decl.name}")
            resolved = self._security_type(decl.return_type, labeler, decl.span)
            return_type = resolved or SecurityType(SUnit(), algebra.bottom)
        body_scope.bind(SecurityContext.RETURN_KEY, return_type)

        pc_fn = self._analyze_function_body(decl, body_scope, labeler)

        fn_type = SecurityType(
            SFunction(tuple(parameters), pc_fn, return_type), algebra.bottom
        )
        gamma.bind(decl.name, fn_type)
        self.function_bounds[decl.name] = pc_fn
        return gamma

    def _analyze_function_body(
        self, decl: d.FunctionDecl, body_scope: SecurityContext, labeler: TypeLabeler
    ):
        """Infer ``pc_fn`` and impose T-FuncDecl's body conditions."""
        algebra = self.algebra
        algebra.enter_function_body(decl.name)
        self._write_bounds.append([])
        self._owner.append(decl.name)
        try:
            with algebra.write_bound_pass():
                self.check_statement(decl.body, body_scope, labeler, algebra.bottom)
        finally:
            self._owner.pop()
            bounds = self._write_bounds.pop()
        pc_fn = algebra.meet_all(bounds)
        algebra.exit_function_body(decl.name, pc_fn)
        if algebra.rechecks_bodies:
            # T-FuncDecl: the body must be well-typed under the inferred pc_fn.
            self.check_statement(decl.body, body_scope, labeler, pc_fn)
        return pc_fn

    # -- T-TblDecl ------------------------------------------------------------

    def _check_table_decl(
        self,
        decl: d.TableDecl,
        gamma: SecurityContext,
        labeler: TypeLabeler,
        pc,
    ) -> SecurityContext:
        key_labels: List[Tuple[d.TableKey, object]] = []
        for key in decl.keys:
            key_type, _ = self.check_expression(key.expression, gamma, labeler, pc)
            if key_type is None:
                continue
            key_labels.append((key, self.algebra.read_label(key_type)))

        action_bounds: List[object] = []
        for action_ref in decl.actions:
            bound = self._check_table_action_ref(
                action_ref, gamma, labeler, key_labels, pc, decl.name
            )
            if bound is not None:
                action_bounds.append(bound)

        pc_tbl = self.algebra.meet_all(action_bounds)
        # T-TblDecl also requires χ_k ⊑ pc_tbl; with pc_tbl the meet of the
        # action bounds this is implied by the per-action checks above, but a
        # table with no actions still gets the constraint against ⊤ trivially.
        self.table_bounds[decl.name] = pc_tbl
        gamma.bind(decl.name, SecurityType(STable(pc_tbl), self.algebra.bottom))
        return gamma

    def _check_table_action_ref(
        self,
        ref: d.ActionRef,
        gamma: SecurityContext,
        labeler: TypeLabeler,
        key_labels: List[Tuple[d.TableKey, object]],
        pc,
        table_name: str,
    ):
        target = gamma.lookup(ref.name)
        if target is None or not isinstance(target.body, SFunction):
            # The ordinary checker reports the missing/ill-typed action.
            return None
        fn = target.body
        # Keys act like the guard of a conditional: every key label must be
        # below the write bound of every action the table may invoke.
        for key, key_label in key_labels:
            self.algebra.require_leq(
                key_label,
                self.algebra.coerce(fn.pc_fn),
                RuleSite(
                    key.span,
                    rule="T-TblDecl",
                    kind=ViolationKind.TABLE_KEY_FLOW,
                    reason=(
                        f"table key {key.expression.describe()!r} of "
                        f"{table_name!r} must stay below the write bound of "
                        f"action {ref.name!r}"
                    ),
                    message=(
                        f"table key {key.expression.describe()!r} has label "
                        f"{{lhs}}, but action {ref.name!r} writes at level "
                        "{rhs}; matching on the key would leak it"
                    ),
                ),
            )
        # Declaration-time arguments bind to the action's leading parameters.
        for argument, parameter in zip(ref.arguments, fn.parameters):
            arg_type, arg_dir = self.check_expression(argument, gamma, labeler, pc)
            if arg_type is None:
                continue
            self._check_argument_flow(argument, arg_type, arg_dir, parameter, ref.name)
        return fn.pc_fn

    # ------------------------------------------------------------------ statements (Figure 6)

    def check_statement(
        self,
        stmt: s.Statement,
        gamma: SecurityContext,
        labeler: TypeLabeler,
        pc,
    ) -> SecurityContext:
        if isinstance(stmt, s.Block):
            scope = gamma.child()
            for inner in stmt.statements:
                scope = self.check_statement(inner, scope, labeler, pc)
            return gamma
        if isinstance(stmt, s.Assign):
            self._check_assign(stmt, gamma, labeler, pc)
            return gamma
        if isinstance(stmt, s.If):
            self._check_if(stmt, gamma, labeler, pc)
            return gamma
        if isinstance(stmt, s.CallStmt):
            self._check_call_statement(stmt, gamma, labeler, pc)
            return gamma
        if isinstance(stmt, s.Exit):
            self._check_control_signal(stmt.span, "exit", pc, rule="T-Exit")
            return gamma
        if isinstance(stmt, s.Return):
            self._check_return(stmt, gamma, labeler, pc)
            return gamma
        if isinstance(stmt, s.VarDeclStmt):
            return self._check_var_decl(stmt.declaration, gamma, labeler, pc)
        self.algebra.type_error(
            f"unsupported statement {stmt.describe()}", stmt.span, rule="stmt"
        )
        return gamma

    # -- T-Assign --------------------------------------------------------------

    def _check_assign(
        self, stmt: s.Assign, gamma: SecurityContext, labeler: TypeLabeler, pc
    ) -> None:
        target_type, target_dir = self.check_expression(stmt.target, gamma, labeler, pc)
        value_type, _ = self.check_expression(stmt.value, gamma, labeler, pc)
        if target_type is None or value_type is None:
            return
        target_bound = self.algebra.write_label(target_type)
        self._record_write(target_bound)
        if target_dir != DIR_INOUT:
            # Assignment to a read-only expression never executes; the flow
            # and pc conditions below would blame labels for a type error.
            self.algebra.type_error(
                f"cannot assign to read-only expression {stmt.target.describe()!r}",
                stmt.target.span,
                rule="T-Assign",
            )
            return
        if not bodies_compatible(target_type.body, value_type.body):
            # The ordinary checker reports the shape mismatch; nothing to add.
            return
        self.algebra.require_flow(
            value_type,
            target_type,
            RuleSite(
                stmt.span,
                rule="T-Assign",
                kind=ViolationKind.EXPLICIT_FLOW,
                reason=(
                    f"{stmt.value.describe()!r} flows into "
                    f"{stmt.target.describe()!r}"
                ),
                message=(
                    f"cannot assign {stmt.value.describe()!r} (label {{src}}) to "
                    f"{stmt.target.describe()!r} (label {{dst}}): {{dst}} <- "
                    "{src} is not allowed"
                ),
            ),
        )
        self.algebra.require_leq(
            pc,
            target_bound,
            RuleSite(
                stmt.span,
                rule="T-Assign",
                kind=ViolationKind.IMPLICIT_FLOW,
                reason=(
                    f"assignment to {stmt.target.describe()!r} must be writable "
                    "at the level of the surrounding branch or table key"
                ),
                message=(
                    f"assignment to {stmt.target.describe()!r} (label {{rhs}}) "
                    "occurs in a context of level {lhs}; the branch or table "
                    "key would leak implicitly"
                ),
            ),
        )

    # -- T-Cond ----------------------------------------------------------------

    def _check_if(
        self, stmt: s.If, gamma: SecurityContext, labeler: TypeLabeler, pc
    ) -> None:
        guard_type, _ = self.check_expression(stmt.condition, gamma, labeler, pc)
        guard_label = (
            self.algebra.read_label(guard_type)
            if guard_type is not None
            else self.algebra.bottom
        )
        branch_pc = self.algebra.join(pc, guard_label)
        self.check_statement(stmt.then_branch, gamma, labeler, branch_pc)
        self.check_statement(stmt.else_branch, gamma, labeler, branch_pc)

    # -- T-FnCallStmt / T-TblCall ----------------------------------------------

    def _check_call_statement(
        self, stmt: s.CallStmt, gamma: SecurityContext, labeler: TypeLabeler, pc
    ) -> None:
        call = stmt.call
        callee_type, _ = self.check_expression(call.callee, gamma, labeler, pc)
        if callee_type is None:
            return
        if isinstance(callee_type.body, STable):
            pc_tbl = self.algebra.coerce(callee_type.body.pc_tbl)
            self._record_write(pc_tbl)
            self.algebra.require_leq(
                pc,
                pc_tbl,
                RuleSite(
                    stmt.span,
                    rule="T-TblCall",
                    kind=ViolationKind.IMPLICIT_FLOW,
                    reason=(
                        f"table {call.callee.describe()!r} is applied in a "
                        "guarded context; its write bound must dominate the guard"
                    ),
                    message=(
                        f"table {call.callee.describe()!r} writes at level "
                        "{rhs} but is applied in a context of level {lhs}"
                    ),
                ),
            )
            return
        # Ordinary action / function call used as a statement.
        self.check_expression(call, gamma, labeler, pc)

    # -- T-Exit / T-Return -------------------------------------------------------

    def _check_control_signal(
        self, span: SourceSpan, keyword: str, pc, rule: str
    ) -> None:
        self._record_write(self.algebra.bottom)
        self.algebra.require_leq(
            pc,
            self.algebra.bottom,
            RuleSite(
                span,
                rule=rule,
                kind=ViolationKind.CONTROL_SIGNAL,
                reason=f"{keyword!r} statements only type check under a public pc",
                message=(
                    f"{keyword!r} statements only type check under a {{rhs}} "
                    "program counter, but the context has level {lhs}; the "
                    "control signal would leak the guard"
                ),
            ),
        )

    def _check_return(
        self, stmt: s.Return, gamma: SecurityContext, labeler: TypeLabeler, pc
    ) -> None:
        self._check_control_signal(stmt.span, "return", pc, rule="T-Return")
        expected = gamma.lookup(SecurityContext.RETURN_KEY)
        if stmt.value is None or expected is None:
            return
        value_type, _ = self.check_expression(stmt.value, gamma, labeler, pc)
        if value_type is None:
            return
        if bodies_compatible(expected.body, value_type.body):
            self.algebra.require_flow(
                value_type,
                expected,
                RuleSite(
                    stmt.span,
                    rule="T-Return",
                    kind=ViolationKind.EXPLICIT_FLOW,
                    reason="return value flows into the function's return label",
                    message=(
                        "return value has label {src}, but the function's "
                        "return type is labelled {dst}"
                    ),
                ),
            )

    # ------------------------------------------------------------------ expressions (Figure 5)

    def check_expression(
        self,
        expr: e.Expression,
        gamma: SecurityContext,
        labeler: TypeLabeler,
        pc,
    ) -> Tuple[Optional[SecurityType], str]:
        """Type an expression; returns ``(security type, direction)``."""
        algebra = self.algebra
        bottom = algebra.bottom
        if isinstance(expr, e.BoolLiteral):
            return SecurityType(SBool(), bottom), DIR_IN
        if isinstance(expr, e.IntLiteral):
            body: SecurityBody = SInt() if expr.width is None else SBit(expr.width)
            return SecurityType(body, bottom), DIR_IN
        if isinstance(expr, e.Var):
            sec_type = gamma.lookup(expr.name)
            if sec_type is None:
                # Unknown variables are the ordinary checker's problem.
                return None, DIR_IN
            return sec_type, DIR_INOUT
        if isinstance(expr, e.BinaryOp):
            left_type, _ = self.check_expression(expr.left, gamma, labeler, pc)
            right_type, _ = self.check_expression(expr.right, gamma, labeler, pc)
            if left_type is None or right_type is None:
                return None, DIR_IN
            label = algebra.join(
                algebra.read_label(left_type), algebra.read_label(right_type)
            )
            result_body = binary_result_body(expr.op, left_type.body, right_type.body)
            return SecurityType(result_body, label), DIR_IN
        if isinstance(expr, e.UnaryOp):
            operand_type, _ = self.check_expression(expr.operand, gamma, labeler, pc)
            if operand_type is None:
                return None, DIR_IN
            return operand_type.with_label(algebra.read_label(operand_type)), DIR_IN
        if isinstance(expr, e.RecordLiteral):
            fields = []
            for name, value in expr.fields:
                value_type, _ = self.check_expression(value, gamma, labeler, pc)
                if value_type is None:
                    return None, DIR_IN
                fields.append((name, value_type))
            return SecurityType(SRecord(tuple(fields)), bottom), DIR_IN
        if isinstance(expr, e.FieldAccess):
            return self._check_field_access(expr, gamma, labeler, pc)
        if isinstance(expr, e.Index):
            return self._check_index(expr, gamma, labeler, pc)
        if isinstance(expr, e.Call):
            if (
                isinstance(expr.callee, e.Var)
                and expr.callee.name in DECLASSIFY_FUNCTIONS
                and gamma.lookup(expr.callee.name) is None
            ):
                return self._check_declassify(expr, gamma, labeler, pc)
            return self._check_call(expr, gamma, labeler, pc)
        return None, DIR_IN

    # -- T-MemRec / T-MemHdr ------------------------------------------------------

    def _check_field_access(
        self, expr: e.FieldAccess, gamma: SecurityContext, labeler: TypeLabeler, pc
    ) -> Tuple[Optional[SecurityType], str]:
        target_type, direction = self.check_expression(expr.target, gamma, labeler, pc)
        if target_type is None:
            return None, DIR_IN
        body = target_type.body
        if not isinstance(body, (SRecord, SHeader)):
            return None, DIR_IN
        field_type = body.field_named(expr.field_name)
        if field_type is None:
            return None, DIR_IN
        return field_type, direction

    # -- T-Index ------------------------------------------------------------------

    def _check_index(
        self, expr: e.Index, gamma: SecurityContext, labeler: TypeLabeler, pc
    ) -> Tuple[Optional[SecurityType], str]:
        array_type, direction = self.check_expression(expr.array, gamma, labeler, pc)
        index_type, _ = self.check_expression(expr.index, gamma, labeler, pc)
        if array_type is None or not isinstance(array_type.body, SStack):
            return None, DIR_IN
        element = array_type.body.element
        if index_type is not None:
            self.algebra.require_leq(
                self.algebra.read_label(index_type),
                self.algebra.coerce(element.label),
                RuleSite(
                    expr.span,
                    rule="T-Index",
                    kind=ViolationKind.EXPLICIT_FLOW,
                    reason=(
                        f"index {expr.index.describe()!r} leaks through the "
                        "selected stack element"
                    ),
                    message=(
                        f"index {expr.index.describe()!r} has label {{lhs}}, "
                        "which is not below the element label {rhs}; the index "
                        "would leak through the selected element"
                    ),
                ),
            )
        return element, direction

    # -- declassify / endorse (extension; off unless explicitly enabled) ----------

    def _check_declassify(
        self, expr: e.Call, gamma: SecurityContext, labeler: TypeLabeler, pc
    ) -> Tuple[Optional[SecurityType], str]:
        primitive = expr.callee.name  # type: ignore[union-attr]
        if len(expr.arguments) != 1:
            self.algebra.error(
                ViolationKind.TYPE_ERROR,
                f"{primitive} takes exactly one argument",
                expr.span,
                rule="T-Declassify",
            )
            return None, DIR_IN
        argument = expr.arguments[0]
        arg_type, _ = self.check_expression(argument, gamma, labeler, pc)
        if arg_type is None:
            return None, DIR_IN
        if not self.algebra.allow_declassification:
            self.algebra.error(
                ViolationKind.DECLASSIFICATION,
                f"{primitive}({argument.describe()}) is not permitted: run the "
                "checker with declassification enabled (p4bid --allow-declassify) "
                "to accept audited releases",
                expr.span,
                rule="T-Declassify",
            )
            return arg_type, DIR_IN
        # Releases are only honoured in a public context: otherwise the fact
        # that the release happened would itself leak the guard.
        self.algebra.require_leq(
            pc,
            self.algebra.bottom,
            RuleSite(
                expr.span,
                rule="T-Declassify",
                kind=ViolationKind.IMPLICIT_FLOW,
                reason=f"{primitive} may only be used in a public context",
                message=f"{primitive} may not be used in a context of level {{lhs}}",
                pc_obligation=True,
            ),
        )
        self.algebra.record_declassification(
            primitive, argument.describe(), arg_type, expr.span
        )
        return self.algebra.lower_to_bottom(arg_type), DIR_IN

    # -- T-Call --------------------------------------------------------------------

    def _check_call(
        self, expr: e.Call, gamma: SecurityContext, labeler: TypeLabeler, pc
    ) -> Tuple[Optional[SecurityType], str]:
        callee_type, _ = self.check_expression(expr.callee, gamma, labeler, pc)
        if callee_type is None:
            return None, DIR_IN
        if isinstance(callee_type.body, STable):
            # Table application in expression position; the ordinary checker
            # flags the position, here we just return unit.
            return SecurityType(SUnit(), self.algebra.bottom), DIR_IN
        if not isinstance(callee_type.body, SFunction):
            return None, DIR_IN
        fn = callee_type.body
        self._record_write(fn.pc_fn)
        self.algebra.require_leq(
            pc,
            self.algebra.coerce(fn.pc_fn),
            RuleSite(
                expr.span,
                rule="T-FnCall",
                kind=ViolationKind.CALL_CONTEXT,
                reason=(
                    f"{expr.callee.describe()!r} is called in a guarded context; "
                    "its write bound must dominate the guard"
                ),
                message=(
                    f"{expr.callee.describe()!r} writes at level {{rhs}} but is "
                    "called in a context of level {lhs}; the call would leak "
                    "the guard into the callee's writes"
                ),
            ),
        )
        for argument, parameter in zip(expr.arguments, fn.parameters):
            arg_type, arg_dir = self.check_expression(argument, gamma, labeler, pc)
            if arg_type is None:
                continue
            self._check_argument_flow(
                argument, arg_type, arg_dir, parameter, expr.callee.describe()
            )
        return fn.return_type, DIR_IN

    # -- T-Call / T-SubType-In arguments ---------------------------------------------

    def _check_argument_flow(
        self,
        argument: e.Expression,
        arg_type: SecurityType,
        arg_dir: str,
        parameter: SParam,
        callee: str,
    ) -> None:
        if not bodies_compatible(parameter.sec_type.body, arg_type.body):
            # Shape mismatch: the ordinary checker reports it.
            return
        if parameter.direction in (DIR_INOUT, "out"):
            self._record_write(self.algebra.write_label(arg_type))
            if arg_dir != DIR_INOUT:
                self.algebra.type_error(
                    f"argument {argument.describe()!r} for {parameter.direction} "
                    f"parameter {parameter.name!r} of {callee!r} must be an l-value",
                    argument.span,
                    rule="T-Call",
                )
                return
            # T-SubType-In only applies to in-direction expressions: inout
            # arguments must carry exactly the parameter's labels.
            self.algebra.require_labels_equal(
                arg_type,
                parameter.sec_type,
                RuleSite(
                    argument.span,
                    rule="T-SubType-In",
                    kind=ViolationKind.ARGUMENT_FLOW,
                    reason=(
                        f"inout argument {argument.describe()!r} must carry "
                        f"exactly the label of parameter {parameter.name!r} of "
                        f"{callee!r}"
                    ),
                    message=(
                        f"inout argument {argument.describe()!r} (label {{src}}) "
                        f"does not match the label of parameter "
                        f"{parameter.name!r} ({{dst}}); relabelling writable "
                        "arguments is unsound"
                    ),
                ),
            )
            return
        # in-direction parameter: subsumption allows raising the label.
        self.algebra.require_flow(
            arg_type,
            parameter.sec_type,
            RuleSite(
                argument.span,
                rule="T-Call",
                kind=ViolationKind.ARGUMENT_FLOW,
                reason=(
                    f"argument {argument.describe()!r} flows into parameter "
                    f"{parameter.name!r} of {callee!r}"
                ),
                message=(
                    f"argument {argument.describe()!r} has label {{src}}, which "
                    f"may not flow into parameter {parameter.name!r} of "
                    f"{callee!r} (label {{dst_read}})"
                ),
            ),
        )
