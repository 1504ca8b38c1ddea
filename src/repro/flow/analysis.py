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

Core P4 diagnostics
-------------------

The rules type every expression with a base type and a label at once,
so the walk checks Core P4's typing (Section 3.3) on the way: where a
base type does not fit -- an unknown name, a wrong operand, a non-bool
guard, an ill-typed argument -- it reports a
:class:`~repro.typechecker.errors.TypeDiagnostic` through
``algebra.core_error`` and, as the ordinary rules do, checks nothing
further on that expression.  The core outputs are kept per unit apart
from the label outputs; a check reads them from its first walk over the
source.  An operation the core rules reject still gets a body for the
label rules to carry on with, marked by the direction :data:`DIR_ILL`.

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

from contextlib import contextmanager
from typing import TYPE_CHECKING, Callable, Iterator, List, Optional, Tuple

from repro.flow.algebra import LabelAlgebra, RuleSite
from repro.flow.units import DEFAULT_MATCH_KINDS, FlowUnits, drive_units, program_units
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
    SUnresolved,
    SecurityBody,
    SecurityType,
    bodies_compatible,
    type_text,
)
from repro.syntax import declarations as d
from repro.syntax import expressions as e
from repro.syntax import statements as s
from repro.syntax.declarations import Direction
from repro.syntax.program import Program
from repro.syntax.source import SourceSpan
from repro.syntax.types import AnnotatedType, HeaderType, MatchKindType, RecordType

if TYPE_CHECKING:  # pragma: no cover
    from repro.flow.units import UnitCache

#: What typing an expression gives: its security type (``None``: ill-typed
#: past what the label rules can carry on with) and its direction.
Typed = Tuple[Optional[SecurityType], str]

#: The direction of an expression the Core P4 rules reject: read-only
#: like ``DIR_IN``, but with no core type, so no core rule checks it
#: again -- while the label rules carry on with its security type.
DIR_ILL = "ill-typed"

COMPARISON_OPERATORS = frozenset({"==", "!=", "<", ">", "<=", ">="})
BOOLEAN_OPERATORS = frozenset({"&&", "||"})
SHIFT_OPERATORS = frozenset({"<<", ">>"})
NUMERIC_OPERATORS = frozenset({"+", "-", "*", "/", "%", "&", "|", "^"})


def _numeric_merge(left: SecurityBody, right: SecurityBody) -> Optional[SecurityBody]:
    """The common numeric body of two operands: ``int`` literals take the
    width of a ``bit<n>`` operand."""
    if isinstance(left, SBit):
        if isinstance(right, SBit):
            return left if left.width == right.width else None
        return left if isinstance(right, SInt) else None
    if isinstance(left, SInt):
        return right if isinstance(right, (SBit, SInt)) else None
    return None


def binary_result_body(
    op: str, left: SecurityBody, right: SecurityBody
) -> Optional[SecurityBody]:
    """The oracle ``T(Δ; ⊕; ρ1; ρ2) = ρ3`` of T-BinOp: arithmetic and
    bitwise operators on equal numeric types, shifts on any two numeric
    ones, comparisons of numbers or (``==``/``!=``) booleans, and
    connectives of booleans; ``None`` when Core P4 rejects the operation."""
    if op in BOOLEAN_OPERATORS:
        return SBool() if isinstance(left, SBool) and isinstance(right, SBool) else None
    if op in COMPARISON_OPERATORS:
        if op in ("==", "!=") and isinstance(left, SBool) and isinstance(right, SBool):
            return SBool()
        return SBool() if _numeric_merge(left, right) is not None else None
    if op in SHIFT_OPERATORS:
        if isinstance(left, (SBit, SInt)) and isinstance(right, (SBit, SInt)):
            return left
        return None
    if op in NUMERIC_OPERATORS:
        return _numeric_merge(left, right)
    return None


def _ill_typed_body(op: str, left: SecurityBody, right: SecurityBody) -> SecurityBody:
    """The body the label rules carry a rejected binary operation on
    with: bool for comparisons and connectives, else the first ``bit<n>``
    operand's, else int."""
    if op in COMPARISON_OPERATORS or op in BOOLEAN_OPERATORS:
        return SBool()
    if isinstance(left, SBit):
        return left
    if isinstance(right, SBit):
        return right
    if isinstance(left, SInt) or isinstance(right, SInt):
        return SInt()
    return left


def _unary_typed(op: str, operand: SecurityBody) -> bool:
    """Whether Core P4 types a unary operation (its result is the operand's body)."""
    if op == "!":
        return isinstance(operand, SBool)
    return op in ("-", "~") and isinstance(operand, (SBit, SInt))


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
            return self.algebra.unresolved_type(exc, span)

    @contextmanager
    def _core_quiet(self, quiet: bool) -> Iterator[None]:
        """Drop the core errors of a walk the Core P4 rules do not make
        (the arguments of a call with too many of them)."""
        self.algebra.core_quiet += quiet
        try:
            yield
        finally:
            self.algebra.core_quiet -= quiet

    # ------------------------------------------------------------------ entry point

    def run(self, program: Program, cache: Optional["UnitCache"] = None) -> None:
        """Walk the whole program (named declarations, then controls).

        The walk goes through the per-unit loop
        (:func:`repro.flow.units.drive_units`): each top-level unit's
        outputs are captured separately and concatenated in unit order
        into the algebra's outputs.  With a ``cache``, units it holds
        valid products for are replayed instead of walked.
        """
        products = drive_units(FlowUnits(self), program_units(program), cache)
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
        rule = _DECLARATION_RULES.get(type(decl), FlowAnalysis._check_unsupported_declaration)
        return rule(self, decl, gamma, labeler, pc)

    def _check_unsupported_declaration(
        self, decl: d.Declaration, gamma: SecurityContext, labeler: TypeLabeler, pc
    ) -> SecurityContext:
        message = f"unsupported declaration {decl.describe()}"
        self.algebra.core_error(message, decl.span, rule="")
        self.algebra.type_error(message, decl.span, rule="decl")
        return gamma

    def _check_typedef(
        self, decl: d.TypedefDecl, gamma: SecurityContext, labeler: TypeLabeler, pc
    ) -> SecurityContext:
        if self.algebra.wants_hints:
            self.algebra.suggest_hint(decl.ty, f"typedef {decl.name}")
        labeler.definitions.define(decl.name, decl.ty)
        return gamma

    def _check_record_decl(
        self,
        decl: "d.HeaderDecl | d.StructDecl",
        gamma: SecurityContext,
        labeler: TypeLabeler,
        pc,
    ) -> SecurityContext:
        if self.algebra.wants_hints:
            # A field's variable is made where the type is first used,
            # possibly by a later unit: the hint outlives this walk.
            for field in decl.fields:
                self.algebra.suggest_hint(field.ty, f"field {decl.name}.{field.name}")
        shape = HeaderType if isinstance(decl, d.HeaderDecl) else RecordType
        labeler.definitions.define(decl.name, AnnotatedType(shape(decl.fields), None, decl.span))
        return gamma

    def _check_match_kind_decl(
        self, decl: d.MatchKindDecl, gamma: SecurityContext, labeler: TypeLabeler, pc
    ) -> SecurityContext:
        # Declarations accumulate: each adds its kinds to the earlier ones.
        members = tuple(dict.fromkeys(self._match_kinds(labeler) + decl.members))
        labeler.definitions.define("match_kind", AnnotatedType(MatchKindType(members)))
        kind = SecurityType(SMatchKind(members), self.algebra.bottom)
        for member in decl.members:
            gamma.bind(member, kind)
        return gamma

    @staticmethod
    def _match_kinds(labeler: TypeLabeler) -> Tuple[str, ...]:
        """The match kinds declared so far (Δ's ``match_kind`` entry)."""
        declared = labeler.definitions.lookup("match_kind")
        return declared.ty.members if declared is not None else ()

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
            init_type, init_dir = self.check_expression(decl.init, gamma, labeler, pc)
            if init_type is not None and bodies_compatible(declared.body, init_type.body):
                self.algebra.require_flow(
                    init_type,
                    declared,
                    RuleSite(
                        decl.span,
                        rule="T-VarInit",
                        kind=ViolationKind.EXPLICIT_FLOW,
                        reason=lambda: (
                            f"initialiser of {decl.name!r} flows into its "
                            "declared label"
                        ),
                        message=lambda: (
                            f"initialiser of {decl.name!r} has label {{src}}, "
                            "which may not flow into a variable labelled {dst}"
                        ),
                    ),
                )
            elif init_type is not None and init_dir is not DIR_ILL:
                self.algebra.core_error(
                    f"initialiser of {decl.name!r} has type {type_text(init_type.body)}, "
                    f"expected {type_text(declared.body)}",
                    decl.span,
                    rule="T-VarInit",
                )
        gamma.bind(decl.name, declared)
        return gamma

    # -- T-FuncDecl -----------------------------------------------------------

    def _check_function_decl(
        self,
        decl: d.FunctionDecl,
        gamma: SecurityContext,
        labeler: TypeLabeler,
        pc,
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
            SFunction(tuple(parameters), pc_fn, return_type, decl), algebra.bottom
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
        known_kinds = DEFAULT_MATCH_KINDS + self._match_kinds(labeler)
        key_labels: List[Tuple[d.TableKey, object]] = []
        for key in decl.keys:
            key_type, key_dir = self.check_expression(key.expression, gamma, labeler, pc)
            if key_type is not None:
                if key_dir is not DIR_ILL and not key_type.is_base():
                    self.algebra.core_error(
                        f"table key {key.expression.describe()!r} must have a base type",
                        key.span,
                        rule="T-TblDecl",
                    )
                key_labels.append((key, self.algebra.read_label(key_type)))
            if key.match_kind not in known_kinds:
                self.algebra.core_error(
                    f"unknown match kind {key.match_kind!r}", key.span, rule="T-TblDecl"
                )

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
        if target is None:
            self.algebra.core_error(
                f"table refers to undeclared action {ref.name!r}", ref.span, rule="T-TblDecl"
            )
            return None
        if not isinstance(target.body, SFunction):
            self.algebra.core_error(
                f"table action {ref.name!r} is not an action (it has type "
                f"{type_text(target.body)})",
                ref.span,
                rule="T-TblDecl",
            )
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
                    reason=lambda key=key: (
                        f"table key {key.expression.describe()!r} of "
                        f"{table_name!r} must stay below the write bound of "
                        f"action {ref.name!r}"
                    ),
                    message=lambda key=key: (
                        f"table key {key.expression.describe()!r} has label "
                        f"{{lhs}}, but action {ref.name!r} writes at level "
                        "{rhs}; matching on the key would leak it"
                    ),
                ),
            )
        too_many = len(ref.arguments) > len(fn.parameters)
        if too_many:
            self.algebra.core_error(
                f"action {ref.name!r} takes {len(fn.parameters)} parameters but "
                f"{len(ref.arguments)} arguments were supplied",
                ref.span,
                rule="T-TblDecl",
            )
        # Declaration-time arguments bind to the action's leading parameters.
        with self._core_quiet(too_many):
            for argument, parameter in zip(ref.arguments, fn.parameters):
                arg_type, arg_dir = self.check_expression(argument, gamma, labeler, pc)
                if arg_type is None:
                    continue
                self._check_argument_flow(
                    argument, arg_type, arg_dir, parameter, lambda: ref.name, ref=ref
                )
        return fn.pc_fn

    # ------------------------------------------------------------------ statements (Figure 6)

    def check_statement(
        self,
        stmt: s.Statement,
        gamma: SecurityContext,
        labeler: TypeLabeler,
        pc,
    ) -> SecurityContext:
        rule = _STATEMENT_RULES.get(type(stmt), FlowAnalysis._check_unsupported_statement)
        return rule(self, stmt, gamma, labeler, pc)

    def _check_unsupported_statement(
        self, stmt: s.Statement, gamma: SecurityContext, labeler: TypeLabeler, pc
    ) -> SecurityContext:
        message = f"unsupported statement {stmt.describe()}"
        self.algebra.core_error(message, stmt.span, rule="")
        self.algebra.type_error(message, stmt.span, rule="stmt")
        return gamma

    def _check_block(
        self, stmt: s.Block, gamma: SecurityContext, labeler: TypeLabeler, pc
    ) -> SecurityContext:
        scope = gamma.child()
        for inner in stmt.statements:
            scope = self.check_statement(inner, scope, labeler, pc)
        return gamma

    def _check_var_decl_statement(
        self, stmt: s.VarDeclStmt, gamma: SecurityContext, labeler: TypeLabeler, pc
    ) -> SecurityContext:
        return self._check_var_decl(stmt.declaration, gamma, labeler, pc)

    # -- T-Assign --------------------------------------------------------------

    def _check_assign(
        self, stmt: s.Assign, gamma: SecurityContext, labeler: TypeLabeler, pc
    ) -> SecurityContext:
        target, value = stmt.target, stmt.value
        target_type, target_dir = self.check_expression(target, gamma, labeler, pc)
        value_type, value_dir = self.check_expression(value, gamma, labeler, pc)
        if target_type is None or value_type is None:
            return gamma
        typed = target_dir is not DIR_ILL and value_dir is not DIR_ILL
        compatible = bodies_compatible(target_type.body, value_type.body)
        target_bound = self.algebra.write_label(target_type)
        self._record_write(target_bound)
        if target_dir != DIR_INOUT:
            # Assignment to a read-only expression never executes; the flow
            # and pc conditions below would blame labels for a type error.
            message = f"cannot assign to read-only expression {target.describe()!r}"
            if typed:
                self.algebra.core_error(message, target.span, rule="T-Assign")
            self.algebra.type_error(message, target.span, rule="T-Assign")
        if not compatible and typed:
            self.algebra.core_error(
                f"cannot assign {type_text(value_type.body)} to "
                f"{target.describe()!r} of type {type_text(target_type.body)}",
                stmt.span,
                rule="T-Assign",
            )
        if target_dir != DIR_INOUT or not compatible:
            return gamma
        self.algebra.require_flow(
            value_type,
            target_type,
            RuleSite(
                stmt.span,
                rule="T-Assign",
                kind=ViolationKind.EXPLICIT_FLOW,
                reason=lambda: f"{value.describe()!r} flows into {target.describe()!r}",
                message=lambda: (
                    f"cannot assign {value.describe()!r} (label {{src}}) to "
                    f"{target.describe()!r} (label {{dst}}): {{dst}} <- "
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
                reason=lambda: (
                    f"assignment to {target.describe()!r} must be writable "
                    "at the level of the surrounding branch or table key"
                ),
                message=lambda: (
                    f"assignment to {target.describe()!r} (label {{rhs}}) "
                    "occurs in a context of level {lhs}; the branch or table "
                    "key would leak implicitly"
                ),
            ),
        )
        return gamma

    # -- T-Cond ----------------------------------------------------------------

    def _check_if(
        self, stmt: s.If, gamma: SecurityContext, labeler: TypeLabeler, pc
    ) -> SecurityContext:
        guard_type, guard_dir = self.check_expression(stmt.condition, gamma, labeler, pc)
        if guard_type is None:
            guard_label = self.algebra.bottom
        else:
            guard_label = self.algebra.read_label(guard_type)
            if guard_dir is not DIR_ILL and not isinstance(guard_type.body, SBool):
                self.algebra.core_error(
                    f"if condition has type {type_text(guard_type.body)}, expected bool",
                    stmt.condition.span,
                    rule="T-Cond",
                )
        branch_pc = self.algebra.join(pc, guard_label)
        self.check_statement(stmt.then_branch, gamma, labeler, branch_pc)
        self.check_statement(stmt.else_branch, gamma, labeler, branch_pc)
        return gamma

    # -- T-FnCallStmt / T-TblCall ----------------------------------------------

    def _check_call_statement(
        self, stmt: s.CallStmt, gamma: SecurityContext, labeler: TypeLabeler, pc
    ) -> SecurityContext:
        call = stmt.call
        if self._is_release(call, gamma):
            # A release whose result is dropped releases nothing: only its
            # argument is typed.
            if len(call.arguments) != 1:
                self._release_arity_error(call)
            else:
                self.check_expression(call.arguments[0], gamma, labeler, pc)
        else:
            self._check_call(call, gamma, labeler, pc, statement=stmt)
        return gamma

    def _check_table_apply(self, stmt: s.CallStmt, table: STable, pc) -> None:
        pc_tbl = self.algebra.coerce(table.pc_tbl)
        self._record_write(pc_tbl)
        callee = stmt.call.callee
        self.algebra.require_leq(
            pc,
            pc_tbl,
            RuleSite(
                stmt.span,
                rule="T-TblCall",
                kind=ViolationKind.IMPLICIT_FLOW,
                reason=lambda: (
                    f"table {callee.describe()!r} is applied in a guarded "
                    "context; its write bound must dominate the guard"
                ),
                message=lambda: (
                    f"table {callee.describe()!r} writes at level {{rhs}} but "
                    "is applied in a context of level {lhs}"
                ),
            ),
        )

    # -- T-Exit / T-Return -------------------------------------------------------

    def _check_exit(
        self, stmt: s.Exit, gamma: SecurityContext, labeler: TypeLabeler, pc
    ) -> SecurityContext:
        self._check_control_signal(stmt.span, "exit", pc, rule="T-Exit")
        return gamma

    def _check_control_signal(self, span: SourceSpan, keyword: str, pc, rule: str) -> None:
        self._record_write(self.algebra.bottom)
        self.algebra.require_leq(
            pc,
            self.algebra.bottom,
            RuleSite(
                span,
                rule=rule,
                kind=ViolationKind.CONTROL_SIGNAL,
                reason=lambda: f"{keyword!r} statements only type check under a public pc",
                message=lambda: (
                    f"{keyword!r} statements only type check under a {{rhs}} "
                    "program counter, but the context has level {lhs}; the "
                    "control signal would leak the guard"
                ),
            ),
        )

    def _check_return(
        self, stmt: s.Return, gamma: SecurityContext, labeler: TypeLabeler, pc
    ) -> SecurityContext:
        self._check_control_signal(stmt.span, "return", pc, rule="T-Return")
        expected = gamma.lookup(SecurityContext.RETURN_KEY)
        if expected is None:
            self.algebra.core_error(
                "return statement outside of a function or action", stmt.span, rule="T-Return"
            )
            return gamma
        if stmt.value is None:
            if not isinstance(expected.body, SUnit):
                self.algebra.core_error(
                    "return without a value in a function returning "
                    f"{type_text(expected.body)}",
                    stmt.span,
                    rule="T-Return",
                )
            return gamma
        value_type, value_dir = self.check_expression(stmt.value, gamma, labeler, pc)
        if value_type is None:
            return gamma
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
        elif value_dir is not DIR_ILL:
            self.algebra.core_error(
                f"return value has type {type_text(value_type.body)}, expected "
                f"{type_text(expected.body)}",
                stmt.span,
                rule="T-Return",
            )
        return gamma

    # ------------------------------------------------------------------ expressions (Figure 5)

    def check_expression(
        self,
        expr: e.Expression,
        gamma: SecurityContext,
        labeler: TypeLabeler,
        pc,
    ) -> Typed:
        """Type an expression; returns ``(security type, direction)``.

        ``(None, DIR_IN)`` when the expression is ill-typed and the label
        rules cannot go on either; a core diagnostic has been reported.
        """
        rule = _EXPRESSION_RULES.get(type(expr), FlowAnalysis._check_unsupported_expression)
        return rule(self, expr, gamma, labeler, pc)

    def _check_unsupported_expression(
        self, expr: e.Expression, gamma: SecurityContext, labeler: TypeLabeler, pc
    ) -> Typed:
        self.algebra.core_error(f"unsupported expression {expr.describe()}", expr.span, rule="")
        return None, DIR_IN

    # -- T-Bool / T-Int / T-Var ------------------------------------------------------

    def _check_bool_literal(
        self, expr: e.BoolLiteral, gamma: SecurityContext, labeler: TypeLabeler, pc
    ) -> Typed:
        return SecurityType(SBool(), self.algebra.bottom), DIR_IN

    def _check_int_literal(
        self, expr: e.IntLiteral, gamma: SecurityContext, labeler: TypeLabeler, pc
    ) -> Typed:
        body: SecurityBody = SInt() if expr.width is None else SBit(expr.width)
        return SecurityType(body, self.algebra.bottom), DIR_IN

    def _check_var(self, expr: e.Var, gamma: SecurityContext, labeler: TypeLabeler, pc) -> Typed:
        sec_type = gamma.lookup(expr.name)
        if sec_type is None:
            self.algebra.core_error(f"unknown variable {expr.name!r}", expr.span, rule="T-Var")
            return None, DIR_IN
        return sec_type, DIR_INOUT

    # -- T-UnOp -------------------------------------------------------------------

    def _check_unary(
        self, expr: e.UnaryOp, gamma: SecurityContext, labeler: TypeLabeler, pc
    ) -> Typed:
        operand_type, operand_dir = self.check_expression(expr.operand, gamma, labeler, pc)
        if operand_type is None:
            return None, DIR_IN
        result = operand_type.with_label(self.algebra.read_label(operand_type))
        if operand_dir is DIR_ILL:
            return result, DIR_ILL
        if not _unary_typed(expr.op, operand_type.body):
            self.algebra.core_error(
                f"operator {expr.op!r} cannot be applied to {type_text(operand_type.body)}",
                expr.span,
                rule="T-UnOp",
            )
            return result, DIR_ILL
        return result, DIR_IN

    # -- T-Rec --------------------------------------------------------------------

    def _check_record_literal(
        self, expr: e.RecordLiteral, gamma: SecurityContext, labeler: TypeLabeler, pc
    ) -> Typed:
        fields = []
        direction = DIR_IN
        for name, value in expr.fields:
            # The core rules stop at the first rejected field.
            with self._core_quiet(direction is DIR_ILL):
                value_type, value_dir = self.check_expression(value, gamma, labeler, pc)
            if value_type is None:
                return None, DIR_IN
            if value_dir is DIR_ILL:
                direction = DIR_ILL
            fields.append((name, value_type))
        return SecurityType(SRecord(tuple(fields)), self.algebra.bottom), direction

    # -- T-BinOp ------------------------------------------------------------------

    def _check_binary(
        self, expr: e.BinaryOp, gamma: SecurityContext, labeler: TypeLabeler, pc
    ) -> Typed:
        algebra = self.algebra
        left_type, left_dir = self.check_expression(expr.left, gamma, labeler, pc)
        right_type, right_dir = self.check_expression(expr.right, gamma, labeler, pc)
        if left_type is None or right_type is None:
            return None, DIR_IN
        label = algebra.join(algebra.read_label(left_type), algebra.read_label(right_type))
        body = binary_result_body(expr.op, left_type.body, right_type.body)
        direction = DIR_ILL if DIR_ILL in (left_dir, right_dir) else DIR_IN
        if body is None:
            if direction is DIR_IN:
                algebra.core_error(
                    f"operator {expr.op!r} cannot be applied to "
                    f"{type_text(left_type.body)} and {type_text(right_type.body)}",
                    expr.span,
                    rule="T-BinOp",
                )
            body, direction = _ill_typed_body(expr.op, left_type.body, right_type.body), DIR_ILL
        return SecurityType(body, label), direction

    # -- T-MemRec / T-MemHdr ------------------------------------------------------

    def _check_field_access(
        self, expr: e.FieldAccess, gamma: SecurityContext, labeler: TypeLabeler, pc
    ) -> Typed:
        target_type, direction = self.check_expression(expr.target, gamma, labeler, pc)
        if target_type is None:
            return None, DIR_IN
        body = target_type.body
        typed = direction is not DIR_ILL
        if not isinstance(body, (SRecord, SHeader)):
            if typed:
                self.algebra.core_error(
                    f"cannot project field {expr.field_name!r} from {type_text(body)}",
                    expr.span,
                    rule="T-MemRec",
                )
            return None, DIR_IN
        field_type = body.field_named(expr.field_name)
        if field_type is None:
            if typed:
                self.algebra.core_error(
                    f"type {type_text(body)} has no field {expr.field_name!r}",
                    expr.span,
                    rule="T-MemRec",
                )
            return None, DIR_IN
        if isinstance(field_type.body, SUnresolved):
            # Only the label-free walk resolves a field type this late.
            self.algebra.core_error(field_type.body.message, expr.span, rule="typedef")
            return SecurityType(SUnit(), self.algebra.bottom), direction
        return field_type, direction

    # -- T-Index ------------------------------------------------------------------

    def _check_index(
        self, expr: e.Index, gamma: SecurityContext, labeler: TypeLabeler, pc
    ) -> Typed:
        array_type, direction = self.check_expression(expr.array, gamma, labeler, pc)
        index_type, index_dir = self.check_expression(expr.index, gamma, labeler, pc)
        if array_type is None:
            return None, DIR_IN
        if not isinstance(array_type.body, SStack):
            if direction is not DIR_ILL:
                self.algebra.core_error(
                    f"cannot index into non-array type {type_text(array_type.body)}",
                    expr.span,
                    rule="T-Index",
                )
            return None, DIR_IN
        element = array_type.body.element
        if index_type is not None:
            if index_dir is not DIR_ILL and not isinstance(index_type.body, (SBit, SInt)):
                self.algebra.core_error(
                    f"array index must be numeric, found {type_text(index_type.body)}",
                    expr.index.span,
                    rule="T-Index",
                )
            self.algebra.require_leq(
                self.algebra.read_label(index_type),
                self.algebra.coerce(element.label),
                RuleSite(
                    expr.span,
                    rule="T-Index",
                    kind=ViolationKind.EXPLICIT_FLOW,
                    reason=lambda: (
                        f"index {expr.index.describe()!r} leaks through the "
                        "selected stack element"
                    ),
                    message=lambda: (
                        f"index {expr.index.describe()!r} has label {{lhs}}, "
                        "which is not below the element label {rhs}; the index "
                        "would leak through the selected element"
                    ),
                ),
            )
        return element, direction

    # -- declassify / endorse (extension; off unless explicitly enabled) ----------

    @staticmethod
    def _is_release(call: e.Call, gamma: SecurityContext) -> bool:
        """Whether ``call`` is the built-in ``declassify``/``endorse``
        (typed ``τ -> τ``), not a program's own function of that name."""
        callee = call.callee
        return (
            isinstance(callee, e.Var)
            and callee.name in DECLASSIFY_FUNCTIONS
            and gamma.lookup(callee.name) is None
        )

    def _release_arity_error(self, expr: e.Call) -> None:
        self.algebra.core_error(
            f"{expr.callee.name} takes exactly one argument",  # type: ignore[union-attr]
            expr.span,
            rule="T-Call",
        )

    def _check_declassify(
        self, expr: e.Call, gamma: SecurityContext, labeler: TypeLabeler, pc
    ) -> Typed:
        primitive = expr.callee.name  # type: ignore[union-attr]
        if len(expr.arguments) != 1:
            self._release_arity_error(expr)
            self.algebra.error(
                ViolationKind.TYPE_ERROR,
                f"{primitive} takes exactly one argument",
                expr.span,
                rule="T-Declassify",
            )
            return None, DIR_IN
        argument = expr.arguments[0]
        arg_type, arg_dir = self.check_expression(argument, gamma, labeler, pc)
        if arg_type is None:
            return None, DIR_IN
        direction = DIR_ILL if arg_dir is DIR_ILL else DIR_IN
        if not self.algebra.allow_declassification:
            self.algebra.error(
                ViolationKind.DECLASSIFICATION,
                f"{primitive}({argument.describe()}) is not permitted: run the "
                "checker with declassification enabled (p4bid --allow-declassify) "
                "to accept audited releases",
                expr.span,
                rule="T-Declassify",
            )
            return arg_type, direction
        # Releases are only honoured in a public context: otherwise the fact
        # that the release happened would itself leak the guard.
        self.algebra.require_leq(
            pc,
            self.algebra.bottom,
            RuleSite(
                expr.span,
                rule="T-Declassify",
                kind=ViolationKind.IMPLICIT_FLOW,
                reason=lambda: f"{primitive} may only be used in a public context",
                message=lambda: f"{primitive} may not be used in a context of level {{lhs}}",
                pc_obligation=True,
            ),
        )
        self.algebra.record_declassification(
            primitive, argument.describe(), arg_type, expr.span
        )
        return self.algebra.lower_to_bottom(arg_type), direction

    # -- T-Call --------------------------------------------------------------------

    def _check_call_expression(
        self, expr: e.Call, gamma: SecurityContext, labeler: TypeLabeler, pc
    ) -> Typed:
        if self._is_release(expr, gamma):
            return self._check_declassify(expr, gamma, labeler, pc)
        return self._check_call(expr, gamma, labeler, pc)

    def _check_call(
        self,
        expr: e.Call,
        gamma: SecurityContext,
        labeler: TypeLabeler,
        pc,
        statement: Optional[s.CallStmt] = None,
    ) -> Typed:
        """T-Call, and T-TblCall for a table applied as the ``statement``."""
        callee_type, _ = self.check_expression(expr.callee, gamma, labeler, pc)
        if callee_type is None:
            return None, DIR_IN
        if isinstance(callee_type.body, STable):
            if statement is None:
                self.algebra.core_error(
                    "tables may only be applied in statement position",
                    expr.span,
                    rule="T-TblCall",
                )
            else:
                self._check_table_apply(statement, callee_type.body, pc)
            if expr.arguments:
                self.algebra.core_error(
                    "table application takes no arguments", expr.span, rule="T-TblCall"
                )
            return SecurityType(SUnit(), self.algebra.bottom), DIR_IN
        if not isinstance(callee_type.body, SFunction):
            self.algebra.core_error(
                f"{expr.callee.describe()!r} of type {type_text(callee_type.body)} "
                "is not callable",
                expr.span,
                rule="T-Call",
            )
            return None, DIR_IN
        fn = callee_type.body
        callee = expr.callee.describe
        self._record_write(fn.pc_fn)
        self.algebra.require_leq(
            pc,
            self.algebra.coerce(fn.pc_fn),
            RuleSite(
                expr.span,
                rule="T-FnCall",
                kind=ViolationKind.CALL_CONTEXT,
                reason=lambda: (
                    f"{callee()!r} is called in a guarded context; "
                    "its write bound must dominate the guard"
                ),
                message=lambda: (
                    f"{callee()!r} writes at level {{rhs}} but is "
                    "called in a context of level {lhs}; the call would leak "
                    "the guard into the callee's writes"
                ),
            ),
        )
        too_many = len(expr.arguments) > len(fn.parameters)
        if too_many:
            self.algebra.core_error(
                f"call supplies {len(expr.arguments)} arguments but "
                f"{callee()!r} takes {len(fn.parameters)}",
                expr.span,
                rule="T-Call",
            )
        with self._core_quiet(too_many):
            for argument, parameter in zip(expr.arguments, fn.parameters):
                arg_type, arg_dir = self.check_expression(argument, gamma, labeler, pc)
                if arg_type is None:
                    continue
                self._check_argument_flow(argument, arg_type, arg_dir, parameter, callee)
        return fn.return_type, DIR_IN

    # -- T-Call / T-SubType-In arguments ---------------------------------------------

    def _check_argument_flow(
        self,
        argument: e.Expression,
        arg_type: SecurityType,
        arg_dir: str,
        parameter: SParam,
        callee: Callable[[], str],
        ref: Optional[d.ActionRef] = None,
    ) -> None:
        """The argument conditions of T-Call; ``callee`` makes the callee's
        text, and ``ref``: the argument is one a table declaration binds
        (T-TblDecl's core reports)."""
        compatible = bodies_compatible(parameter.sec_type.body, arg_type.body)
        writable = parameter.direction in (DIR_INOUT, "out")
        if arg_dir is not DIR_ILL:
            self._argument_core_errors(
                argument, arg_type, arg_dir, parameter, compatible, writable, ref
            )
        if not compatible:
            return
        if writable:
            self._record_write(self.algebra.write_label(arg_type))
            if arg_dir != DIR_INOUT:
                self.algebra.type_error(
                    f"argument {argument.describe()!r} for {parameter.direction} "
                    f"parameter {parameter.name!r} of {callee()!r} must be an l-value",
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
                    reason=lambda: (
                        f"inout argument {argument.describe()!r} must carry "
                        f"exactly the label of parameter {parameter.name!r} of "
                        f"{callee()!r}"
                    ),
                    message=lambda: (
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
                reason=lambda: (
                    f"argument {argument.describe()!r} flows into parameter "
                    f"{parameter.name!r} of {callee()!r}"
                ),
                message=lambda: (
                    f"argument {argument.describe()!r} has label {{src}}, which "
                    f"may not flow into parameter {parameter.name!r} of "
                    f"{callee()!r} (label {{dst_read}})"
                ),
            ),
        )

    def _argument_core_errors(
        self,
        argument: e.Expression,
        arg_type: SecurityType,
        arg_dir: str,
        parameter: SParam,
        compatible: bool,
        writable: bool,
        ref: Optional[d.ActionRef],
    ) -> None:
        """The Core P4 reports of one argument: its type, then whether a
        writable parameter gets an l-value."""
        core_error = self.algebra.core_error
        if not compatible:
            shown = argument.describe()
            expected = type_text(parameter.sec_type.body)
            if ref is None:
                core_error(
                    f"argument {shown!r} has type {type_text(arg_type.body)}, "
                    f"expected {expected}",
                    argument.span,
                    rule="T-Call",
                )
            else:
                core_error(
                    f"argument {shown!r} of action {ref.name!r} has type "
                    f"{type_text(arg_type.body)}, expected {expected}",
                    ref.span,
                    rule="T-TblDecl",
                )
        if writable and arg_dir != DIR_INOUT:
            shown = argument.describe()
            if ref is None:
                core_error(
                    f"argument {shown!r} for {parameter.direction} parameter "
                    f"{parameter.name!r} must be an l-value",
                    argument.span,
                    rule="T-Call",
                )
            else:
                core_error(
                    f"argument {shown!r} must be writable (direction "
                    f"{parameter.direction})",
                    ref.span,
                    rule="T-TblDecl",
                )


# Each node class's rule, looked up by ``type(node)``: a class missing from
# a table is an unsupported construct, reported as the core and type error
# of its ``_check_unsupported_*`` rule.
_DECLARATION_RULES = {
    d.VarDecl: FlowAnalysis._check_var_decl,
    d.TypedefDecl: FlowAnalysis._check_typedef,
    d.HeaderDecl: FlowAnalysis._check_record_decl,
    d.StructDecl: FlowAnalysis._check_record_decl,
    d.MatchKindDecl: FlowAnalysis._check_match_kind_decl,
    d.FunctionDecl: FlowAnalysis._check_function_decl,
    d.TableDecl: FlowAnalysis._check_table_decl,
}
_STATEMENT_RULES = {
    s.Block: FlowAnalysis._check_block,
    s.Assign: FlowAnalysis._check_assign,
    s.If: FlowAnalysis._check_if,
    s.CallStmt: FlowAnalysis._check_call_statement,
    s.Exit: FlowAnalysis._check_exit,
    s.Return: FlowAnalysis._check_return,
    s.VarDeclStmt: FlowAnalysis._check_var_decl_statement,
}
_EXPRESSION_RULES = {
    e.FieldAccess: FlowAnalysis._check_field_access,
    e.Var: FlowAnalysis._check_var,
    e.BinaryOp: FlowAnalysis._check_binary,
    e.IntLiteral: FlowAnalysis._check_int_literal,
    e.BoolLiteral: FlowAnalysis._check_bool_literal,
    e.UnaryOp: FlowAnalysis._check_unary,
    e.RecordLiteral: FlowAnalysis._check_record_literal,
    e.Index: FlowAnalysis._check_index,
    e.Call: FlowAnalysis._check_call_expression,
}
