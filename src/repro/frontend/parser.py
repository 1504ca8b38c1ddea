"""Recursive-descent parser for the annotated P4 dialect.

The grammar is a concrete syntax for the Core P4 fragment of Figure 1:

* ``header`` / ``struct`` / ``typedef`` / ``match_kind`` type declarations,
* ``control`` blocks with local ``action`` / ``function`` / ``table`` /
  variable declarations and an ``apply`` block,
* the statements and expressions of Figures 1a/1b.

Security annotations are written ``<type, label>`` wherever a type may
appear, e.g. ``<bit<8>, high> ttl;`` inside a header.  A control block may
be prefixed by ``@pc(label)`` to request type checking under a non-bottom
program counter (isolation case study, Section 5.4).

Binary operators are parsed by precedence climbing, and input nested
deeper than :data:`MAX_DEPTH`, or types nested deeper than
:data:`MAX_TYPE_DEPTH`, is rejected with a located error.

Given a :class:`ParseIndex` of the previous revision, :func:`parse_program`
lexes and parses only the text around an edit and hands back the other
top-level units as the previous parse's node objects.
"""

from __future__ import annotations

from array import array
from itertools import accumulate
from typing import Dict, List, Optional, Set, Tuple

from repro.frontend.errors import FrontendError, ParserError
from repro.frontend.lexer import Token, TokenKind, scan, tokenize
from repro.syntax.declarations import (
    ActionRef,
    ControlDecl,
    Declaration,
    Direction,
    FunctionDecl,
    HeaderDecl,
    MatchKindDecl,
    Param,
    StructDecl,
    TableDecl,
    TableKey,
    TypedefDecl,
    VarDecl,
)
from repro.syntax.expressions import (
    BinaryOp,
    BoolLiteral,
    Call,
    Expression,
    FieldAccess,
    Index,
    IntLiteral,
    RecordLiteral,
    UnaryOp,
    Var,
)
from repro.syntax.digest import Unit
from repro.syntax.program import Program
from repro.syntax.source import Position, SourceSpan
from repro.syntax.statements import (
    Assign,
    Block,
    CallStmt,
    Exit,
    If,
    Return,
    Statement,
    VarDeclStmt,
)
from repro.syntax.types import (
    AnnotatedType,
    BitType,
    BoolType,
    Field,
    IntType,
    StackType,
    Type,
    TypeName,
    UnitType,
)
from repro.telemetry.recorder import current_recorder

#: Binary operator precedence levels, lowest binding first.  Each level is a
#: tuple of operators parsed left-associatively.
_BINARY_PRECEDENCE: Tuple[Tuple[str, ...], ...] = (
    ("||",), ("&&",), ("==", "!="), ("<", ">", "<=", ">="), ("|",), ("^",), ("&",),
    ("<<", ">>"), ("+", "-"), ("*", "/", "%"),
)

#: Binary operator -> its precedence level, for precedence climbing.
_BINARY_LEVEL: Dict[str, int] = {
    op: level for level, ops in enumerate(_BINARY_PRECEDENCE) for op in ops
}

_UNARY_OPERATORS = frozenset({"!", "-", "~"})

#: Deepest nesting the parser accepts, counting statements (a block is
#: one) and expressions (a parenthesised group is one) nested in one
#: another; declarations do not count.  The parser and every recursive
#: walker downstream -- core and IFC checking, constraint generation,
#: elaboration, digests, the printer -- spend at most two frames per
#: level, so at this depth they stay well inside Python's default
#: recursion limit of 1000, and deeper input gets a located
#: :class:`ParserError` instead of a ``RecursionError``.  Real programs
#: nest a few levels; the deepest test input is a 300-selector chain.
MAX_DEPTH = 320

#: Deepest type declaration the parser accepts.  Each ``header``,
#: ``struct`` and ``typedef`` on a chain of named types is one level,
#: wherever the names are declared, and so is each stack suffix ``[n]``;
#: a use of a type may add at most as many suffixes again.  The type
#: walkers downstream -- security-type conversion, typedef unfolding --
#: spend up to five frames per level, and may run below a statement or
#: expression nested :data:`MAX_DEPTH` deep, so the cap is far lower.
#: Real programs nest a handful of levels.
MAX_TYPE_DEPTH = 32

_TYPE_KEYWORDS = frozenset({"bit", "bool", "int", "void"})


def _cover(first: SourceSpan, last: SourceSpan) -> SourceSpan:
    """From the start of ``first`` to the end of ``last``, which follows it."""
    return SourceSpan(first.start, last.end, first.filename)


def _between(first: Token, last: Token) -> SourceSpan:
    """The span from token ``first`` through token ``last``."""
    return SourceSpan(
        Position(first.line, first.column),
        Position(last.line, last.column + len(last.text)),
        first.filename,
    )


class Parser:
    """Parses a token stream into the Core P4 AST."""

    def __init__(self, tokens: List[Token], filename: str = "<input>") -> None:
        self._tokens = tokens
        self._filename = filename
        self._index = 0
        #: Depth of the innermost open statement or expression (MAX_DEPTH).
        self._depth = 0

    # ------------------------------------------------------------------ utils

    def _peek(self, ahead: int = 0) -> Token:
        # Lookahead past the current token only follows a non-EOF token,
        # so it never runs off the end of the list.
        return self._tokens[self._index + ahead]

    def _at_end(self) -> bool:
        return self._peek().kind is TokenKind.EOF

    def _advance(self) -> Token:
        token = self._tokens[self._index]
        if token.kind is not TokenKind.EOF:
            self._index += 1
        return token

    def _check_punct(self, text: str) -> bool:
        return self._tokens[self._index].is_punct(text)

    def _check_keyword(self, text: str) -> bool:
        return self._tokens[self._index].is_keyword(text)

    def _match_punct(self, text: str) -> Optional[Token]:
        if self._check_punct(text):
            return self._advance()
        return None

    def _expect_punct(self, text: str, context: str) -> Token:
        token = self._peek()
        if not token.is_punct(text):
            raise ParserError(f"expected {text!r} {context}, found {token}", token.span)
        return self._advance()

    def _expect_keyword(self, text: str, context: str) -> Token:
        token = self._peek()
        if not token.is_keyword(text):
            raise ParserError(f"expected keyword {text!r} {context}, found {token}", token.span)
        return self._advance()

    def _nest(self, token: Token) -> None:
        """Open one nesting level at ``token``; close it with ``_depth -= 1``."""
        self._depth += 1
        if self._depth > MAX_DEPTH:
            raise ParserError(f"nesting deeper than {MAX_DEPTH} levels", token.span)

    def _expect_ident(self, context: str) -> Token:
        token = self._peek()
        if token.kind is not TokenKind.IDENT:
            raise ParserError(f"expected an identifier {context}, found {token}", token.span)
        return self._advance()

    # ------------------------------------------------------------------ program

    def parse_units(self) -> Tuple[List[Unit], "array[int]"]:
        """Every top-level unit up to EOF, in source order, and its bounds.

        The bounds hold four ints per unit: the line and column of the
        first token it consumed and of the end of the last one.  An
        ``@pc(...)`` prefix is part of its control, a trailing optional
        ``;`` part of its declaration.  Plain ints, not the tokens, so
        what a :class:`ParseIndex` keeps does not pin the token list's
        memory.
        """
        units: List[Unit] = []
        bounds = array("l")
        tokens = self._tokens
        while not self._at_end():
            first = self._peek()
            pc_label = self._parse_optional_pc_annotation()
            token = self._peek()
            unit: Unit
            if token.is_keyword("control"):
                unit = self._parse_control(pc_label)
            elif pc_label is not None:
                raise ParserError(
                    "@pc(...) annotations may only precede a control block",
                    token.span,
                )
            elif token.is_keyword("header"):
                unit = self._parse_header_or_struct(header=True)
            elif token.is_keyword("struct"):
                unit = self._parse_header_or_struct(header=False)
            elif token.is_keyword("typedef"):
                unit = self._parse_typedef()
            elif token.is_keyword("match_kind"):
                unit = self._parse_match_kind()
            elif token.is_keyword("const") or self._looks_like_type_start():
                unit = self._parse_var_decl(allow_const=True)
            else:
                raise ParserError(
                    f"unexpected token {token} at top level", token.span
                )
            last = tokens[self._index - 1]
            units.append(unit)
            bounds.extend((first.line, first.column, last.line, last.column + len(last.text)))
        return units, bounds

    def _parse_optional_pc_annotation(self) -> Optional[str]:
        if not self._check_punct("@"):
            return None
        at_token = self._advance()
        name = self._expect_ident("after '@'")
        if name.text != "pc":
            raise ParserError(
                f"unknown annotation @{name.text}; only @pc(label) is supported",
                at_token.span,
            )
        self._expect_punct("(", "after '@pc'")
        label = self._parse_label_text(")")
        self._expect_punct(")", "to close '@pc('")
        return label

    # ------------------------------------------------------------------ type declarations

    def _parse_header_or_struct(self, *, header: bool) -> Declaration:
        keyword = self._advance()
        name = self._expect_ident("after 'header'/'struct'")
        self._expect_punct("{", f"to open {keyword.text} {name.text}")
        fields: List[Field] = []
        while not self._check_punct("}"):
            field_type = self._parse_annotated_type()
            field_name = self._expect_ident("as a field name")
            self._expect_punct(";", "after a field declaration")
            fields.append(Field(field_name.text, field_type))
        close = self._expect_punct("}", f"to close {keyword.text} {name.text}")
        self._match_punct(";")
        span = _between(keyword, close)
        if header:
            return HeaderDecl(name.text, tuple(fields), span=span)
        return StructDecl(name.text, tuple(fields), span=span)

    def _parse_typedef(self) -> TypedefDecl:
        keyword = self._advance()
        ty = self._parse_annotated_type()
        name = self._expect_ident("as the typedef name")
        semi = self._expect_punct(";", "after a typedef")
        return TypedefDecl(ty, name.text, span=_between(keyword, semi))

    def _parse_match_kind(self) -> MatchKindDecl:
        keyword = self._advance()
        self._expect_punct("{", "after 'match_kind'")
        members: List[str] = []
        while not self._check_punct("}"):
            member = self._expect_ident("as a match_kind member")
            members.append(member.text)
            if not self._match_punct(","):
                break
        close = self._expect_punct("}", "to close match_kind")
        self._match_punct(";")
        return MatchKindDecl(tuple(members), span=_between(keyword, close))

    # ------------------------------------------------------------------ controls

    def _parse_control(self, pc_label: Optional[str]) -> ControlDecl:
        keyword = self._expect_keyword("control", "to start a control block")
        name = self._expect_ident("as the control name")
        self._expect_punct("(", "after the control name")
        params = self._parse_param_list()
        self._expect_punct(")", "to close the control parameter list")
        self._expect_punct("{", "to open the control body")
        locals_: List[Declaration] = []
        apply_block: Optional[Block] = None
        while not self._check_punct("}"):
            token = self._peek()
            if token.is_keyword("apply"):
                self._advance()
                apply_block = self._parse_block()
            elif token.is_keyword("action"):
                locals_.append(self._parse_action())
            elif token.is_keyword("function"):
                locals_.append(self._parse_function())
            elif token.is_keyword("table"):
                locals_.append(self._parse_table())
            elif self._looks_like_type_start() or token.is_keyword("const"):
                locals_.append(self._parse_var_decl(allow_const=True))
            else:
                raise ParserError(
                    f"unexpected token {token} inside control {name.text!r}",
                    token.span,
                )
        close = self._expect_punct("}", f"to close control {name.text!r}")
        if apply_block is None:
            apply_block = Block((), span=close.span)
        return ControlDecl(
            name.text,
            tuple(params),
            tuple(locals_),
            apply_block,
            pc_label=pc_label,
            span=_between(keyword, close),
        )

    def _parse_param_list(self) -> List[Param]:
        params: List[Param] = []
        if self._check_punct(")"):
            return params
        while True:
            params.append(self._parse_param())
            if not self._match_punct(","):
                return params

    def _parse_param(self) -> Param:
        start = self._peek().span
        direction = Direction.NONE
        token = self._peek()
        if token.is_keyword("in"):
            direction = Direction.IN
            self._advance()
        elif token.is_keyword("out"):
            direction = Direction.OUT
            self._advance()
        elif token.is_keyword("inout"):
            direction = Direction.INOUT
            self._advance()
        ty = self._parse_annotated_type()
        name = self._expect_ident("as a parameter name")
        return Param(direction, name.text, ty, span=_cover(start, name.span))

    # ------------------------------------------------------------------ actions / functions

    def _parse_action(self) -> FunctionDecl:
        keyword = self._advance()
        name = self._expect_ident("as the action name")
        self._expect_punct("(", "after the action name")
        params = self._parse_param_list()
        self._expect_punct(")", "to close the action parameter list")
        body = self._parse_block()
        return FunctionDecl(
            name.text,
            tuple(params),
            body,
            return_type=None,
            is_action=True,
            span=_cover(keyword.span, body.span),
        )

    def _parse_function(self) -> FunctionDecl:
        keyword = self._advance()
        if self._check_keyword("void"):
            self._advance()
            return_type: Optional[AnnotatedType] = None
        else:
            return_type = self._parse_annotated_type()
        name = self._expect_ident("as the function name")
        self._expect_punct("(", "after the function name")
        params = self._parse_param_list()
        self._expect_punct(")", "to close the function parameter list")
        body = self._parse_block()
        return FunctionDecl(
            name.text,
            tuple(params),
            body,
            return_type=return_type,
            is_action=False,
            span=_cover(keyword.span, body.span),
        )

    # ------------------------------------------------------------------ tables

    def _parse_table(self) -> TableDecl:
        keyword = self._advance()
        name = self._expect_ident("as the table name")
        self._expect_punct("{", "to open the table body")
        keys: List[TableKey] = []
        actions: List[ActionRef] = []
        while not self._check_punct("}"):
            token = self._peek()
            if token.is_keyword("key"):
                self._advance()
                self._expect_punct("=", "after 'key'")
                self._expect_punct("{", "to open the key list")
                while not self._check_punct("}"):
                    key_expr = self.parse_expression()
                    self._expect_punct(":", "between a key expression and its match kind")
                    kind = self._expect_ident("as a match kind")
                    self._match_punct(";")
                    keys.append(
                        TableKey(key_expr, kind.text, span=_cover(key_expr.span, kind.span))
                    )
                self._expect_punct("}", "to close the key list")
                self._match_punct(";")
            elif token.is_keyword("actions"):
                self._advance()
                self._expect_punct("=", "after 'actions'")
                self._expect_punct("{", "to open the action list")
                while not self._check_punct("}"):
                    actions.append(self._parse_action_ref())
                    if not (self._match_punct(";") or self._match_punct(",")):
                        break
                self._expect_punct("}", "to close the action list")
                self._match_punct(";")
            else:
                raise ParserError(
                    f"unexpected token {token} inside table {name.text!r}; "
                    "expected 'key = {...}' or 'actions = {...}'",
                    token.span,
                )
        close = self._expect_punct("}", f"to close table {name.text!r}")
        self._match_punct(";")
        return TableDecl(
            name.text, tuple(keys), tuple(actions), span=_between(keyword, close)
        )

    def _parse_action_ref(self) -> ActionRef:
        name = self._expect_ident("as an action reference")
        arguments: List[Expression] = []
        span = name.span
        if self._match_punct("("):
            if not self._check_punct(")"):
                while True:
                    arguments.append(self.parse_expression())
                    if not self._match_punct(","):
                        break
            close = self._expect_punct(")", "to close action arguments")
            span = _cover(span, close.span)
        return ActionRef(name.text, tuple(arguments), span=span)

    # ------------------------------------------------------------------ variable declarations

    def _parse_var_decl(self, *, allow_const: bool = False) -> VarDecl:
        start = self._peek().span
        if allow_const and self._check_keyword("const"):
            self._advance()
        ty = self._parse_annotated_type()
        name = self._expect_ident("as a variable name")
        init: Optional[Expression] = None
        if self._match_punct("="):
            init = self.parse_expression()
        semi = self._expect_punct(";", "after a variable declaration")
        return VarDecl(ty, name.text, init, span=_cover(start, semi.span))

    def _looks_like_type_start(self) -> bool:
        """Decide whether the upcoming tokens begin a (possibly annotated) type.

        Used to disambiguate variable declarations from expression statements
        without backtracking.  A statement starts a declaration when it
        begins with ``<`` (an annotated type), a type keyword, or an
        identifier immediately followed by another identifier (``ipv4_t x``)
        or by ``[n] ident`` (a stack-typed variable).
        """
        token = self._peek()
        if token.is_punct("<"):
            return True
        if token.kind is TokenKind.KEYWORD and token.text in _TYPE_KEYWORDS:
            return True
        if token.kind is TokenKind.IDENT:
            nxt = self._peek(1)
            if nxt.kind is TokenKind.IDENT:
                return True
            if (
                nxt.is_punct("[")
                and self._peek(2).kind is TokenKind.INT
                and self._peek(3).is_punct("]")
                and self._peek(4).kind is TokenKind.IDENT
            ):
                return True
        return False

    # ------------------------------------------------------------------ statements

    def _parse_block(self) -> Block:
        open_brace = self._expect_punct("{", "to open a block")
        self._nest(open_brace)
        statements: List[Statement] = []
        while not self._check_punct("}"):
            statements.append(self._parse_statement())
        self._depth -= 1
        close = self._expect_punct("}", "to close a block")
        return Block(tuple(statements), span=_between(open_brace, close))

    def _parse_statement(self) -> Statement:
        token = self._peek()
        if token.is_punct("{"):
            return self._parse_block()
        self._nest(token)
        try:
            if token.is_keyword("if"):
                return self._parse_if()
            if token.is_keyword("exit"):
                self._advance()
                semi = self._expect_punct(";", "after 'exit'")
                return Exit(span=_between(token, semi))
            if token.is_keyword("return"):
                self._advance()
                if self._check_punct(";"):
                    semi = self._advance()
                    return Return(None, span=_between(token, semi))
                value = self.parse_expression()
                semi = self._expect_punct(";", "after a return value")
                return Return(value, span=_between(token, semi))
            if self._looks_like_type_start() or token.is_keyword("const"):
                decl = self._parse_var_decl(allow_const=True)
                return VarDeclStmt(decl, span=decl.span)
            return self._parse_expression_statement()
        finally:
            self._depth -= 1

    def _parse_if(self) -> If:
        keyword = self._advance()
        self._expect_punct("(", "after 'if'")
        condition = self.parse_expression()
        self._expect_punct(")", "to close the if condition")
        then_branch = self._parse_block()
        else_branch = Block((), span=then_branch.span)
        if self._check_keyword("else"):
            self._advance()
            if self._check_keyword("if"):
                self._depth += 1  # the block ``else if`` implies
                nested = self._parse_statement()
                self._depth -= 1
                else_branch = Block((nested,), span=nested.span)
            else:
                else_branch = self._parse_block()
        return If(
            condition,
            then_branch,
            else_branch,
            span=_cover(keyword.span, else_branch.span),
        )

    def _parse_expression_statement(self) -> Statement:
        expr = self.parse_expression()
        if self._match_punct("="):
            value = self.parse_expression()
            semi = self._expect_punct(";", "after an assignment")
            return Assign(expr, value, span=_cover(expr.span, semi.span))
        semi = self._expect_punct(";", "after an expression statement")
        if isinstance(expr, Call):
            return CallStmt(expr, span=_cover(expr.span, semi.span))
        raise ParserError(
            f"expression {expr.describe()!r} cannot be used as a statement",
            expr.span,
        )

    # ------------------------------------------------------------------ expressions
    #
    # The helpers below return each expression with its *height*: the
    # nesting levels it spans (a leaf is 1, a parenthesised group adds 1).
    # Operator and selector chains such as ``a + b + c`` or ``h.f.g`` grow
    # in a loop rather than by recursion, so :meth:`parse_expression`
    # checks the finished expression against :data:`MAX_DEPTH`, while
    # ``_nest`` bounds the recursion on the way down.  Every nesting level
    # costs the parser at most two frames: ``_parse_binary`` and
    # ``_parse_operand`` recurse into each other and into nothing else.

    def parse_expression(self) -> Expression:
        expr, height = self._parse_binary(0)
        if self._depth + height > MAX_DEPTH:
            raise ParserError(f"nesting deeper than {MAX_DEPTH} levels", expr.span)
        return expr

    def _parse_binary(self, min_level: int) -> Tuple[Expression, int]:
        """Precedence climbing over operators binding at ``min_level`` or tighter."""
        left, height = self._parse_operand()
        tokens = self._tokens
        while True:
            op = tokens[self._index]
            # Only punctuation tokens can spell an operator.
            level = _BINARY_LEVEL.get(op.text)
            if level is None or level < min_level:
                return left, height
            self._index += 1
            self._nest(op)
            right, right_height = self._parse_binary(level + 1)
            self._depth -= 1
            left = BinaryOp(op.text, left, right, span=_cover(left.span, right.span))
            height = 1 + max(height, right_height)

    def _parse_operand(self) -> Tuple[Expression, int]:
        """Prefix operators, a primary, then field selectors, indices and calls."""
        tokens = self._tokens
        token = tokens[self._index]
        prefix: List[Token] = []
        while token.text in _UNARY_OPERATORS:
            self._nest(token)
            prefix.append(token)
            self._index += 1
            token = tokens[self._index]

        expr: Expression
        kind, text = token.kind, token.text
        if kind is TokenKind.IDENT:
            self._index += 1
            expr, height = Var(text, span=token.span), 1
        elif kind is TokenKind.INT:
            self._index += 1
            expr, height = IntLiteral(token.value or 0, token.width, span=token.span), 1
        elif token.is_keyword("true") or token.is_keyword("false"):
            self._index += 1
            expr, height = BoolLiteral(text == "true", span=token.span), 1
        elif token.is_punct("("):
            self._index += 1
            self._nest(token)
            expr, height = self._parse_binary(0)
            self._depth -= 1
            self._expect_punct(")", "to close a parenthesised expression")
            height += 1
        elif token.is_punct("{"):
            self._index += 1
            self._nest(token)
            fields: List[Tuple[str, Expression]] = []
            height = 0
            while not self._check_punct("}"):
                name = self._expect_ident("as a record field name")
                self._expect_punct("=", "after a record field name")
                value, value_height = self._parse_binary(0)
                fields.append((name.text, value))
                height = max(height, value_height)
                if not self._match_punct(","):
                    break
            self._depth -= 1
            close = self._expect_punct("}", "to close a record literal")
            expr, height = RecordLiteral(tuple(fields), span=_between(token, close)), height + 1
        else:
            raise ParserError(f"expected an expression, found {token}", token.span)

        while True:
            token = tokens[self._index]
            if token.is_punct(".") and tokens[self._index + 1].is_keyword("apply"):
                # table application t.apply(...) desugars to t(...)
                self._index += 2
                token = self._peek()
                if not token.is_punct("("):
                    raise ParserError(f"expected '(' after '.apply', found {token}", token.span)
            if token.is_punct("("):
                self._index += 1
                self._nest(token)
                arguments: List[Expression] = []
                inner = 0
                if not self._check_punct(")"):
                    while True:
                        argument, argument_height = self._parse_binary(0)
                        arguments.append(argument)
                        inner = max(inner, argument_height)
                        if not self._match_punct(","):
                            break
                self._depth -= 1
                close = self._expect_punct(")", "to close a call")
                expr = Call(expr, tuple(arguments), span=_cover(expr.span, close.span))
                height = 1 + max(height, inner)
            elif token.is_punct("."):
                field = tokens[self._index + 1]
                if field.kind is not TokenKind.IDENT:
                    raise ParserError(f"expected a field name after '.', found {field}", field.span)
                self._index += 2
                expr = FieldAccess(expr, field.text, span=_cover(expr.span, field.span))
                height += 1
            elif token.is_punct("["):
                self._index += 1
                self._nest(token)
                index, index_height = self._parse_binary(0)
                self._depth -= 1
                close = self._expect_punct("]", "to close an index expression")
                expr = Index(expr, index, span=_cover(expr.span, close.span))
                height = 1 + max(height, index_height)
            else:
                break

        for token in reversed(prefix):
            expr = UnaryOp(token.text, expr, span=_cover(token.span, expr.span))
        self._depth -= len(prefix)
        return expr, height + len(prefix)

    # ------------------------------------------------------------------ types

    def _parse_annotated_type(self) -> AnnotatedType:
        token = self._peek()
        if token.is_punct("<"):
            open_angle = self._advance()
            inner = self._parse_type()
            self._expect_punct(",", "between a type and its security label")
            label = self._parse_label_text(">")
            close = self._expect_punct(">", "to close a security annotation")
            return AnnotatedType(inner, label, span=_between(open_angle, close))
        span_start = token.span
        ty = self._parse_type()
        # Span the whole type, not just its first token: ``bit<8>`` and
        # ``ipv4_t[4]`` span through the last consumed token, so SARIF
        # regions cover the full type expression.
        span_end = self._tokens[self._index - 1].span
        return AnnotatedType(ty, None, span=_cover(span_start, span_end))

    def _parse_type(self) -> Type:
        token = self._peek()
        base: Type
        if token.is_keyword("bit"):
            self._advance()
            self._expect_punct("<", "after 'bit'")
            width = self._peek()
            if width.kind is not TokenKind.INT:
                raise ParserError("expected a bit width", width.span)
            self._advance()
            self._expect_punct(">", "to close 'bit<...>'")
            base = BitType(width.value or 0)
        elif token.is_keyword("bool"):
            self._advance()
            base = BoolType()
        elif token.is_keyword("int"):
            self._advance()
            base = IntType()
        elif token.is_keyword("void"):
            self._advance()
            base = UnitType()
        elif token.kind is TokenKind.IDENT:
            self._advance()
            base = TypeName(token.text)
        else:
            raise ParserError(f"expected a type, found {token}", token.span)
        # header stacks / arrays: τ[n]
        stacks = 0
        while self._check_punct("[") and self._peek(1).kind is TokenKind.INT:
            bracket = self._advance()
            stacks += 1
            if stacks > MAX_TYPE_DEPTH:
                raise ParserError(
                    f"type nesting deeper than {MAX_TYPE_DEPTH} levels", bracket.span
                )
            size = self._advance()
            self._expect_punct("]", "to close a stack type")
            base = StackType(AnnotatedType(base, None), size.value or 0)
        return base

    def _parse_label_text(self, closing: str) -> str:
        """Collect the raw spelling of a security label up to ``closing``.

        Labels are usually a single identifier (``high``, ``A``) but may be
        a brace-enclosed principal set (``{alice, bob}``) or a parenthesised
        pair for product lattices.
        """
        parts: List[str] = []
        depth = 0
        while True:
            token = self._peek()
            if token.kind is TokenKind.EOF:
                raise ParserError("unterminated security label", token.span)
            if depth == 0 and token.is_punct(closing):
                break
            if token.kind is TokenKind.PUNCT and token.text in "({":
                depth += 1
            elif token.kind is TokenKind.PUNCT and token.text in ")}":
                depth -= 1
            parts.append(token.text)
            self._advance()
        text = "".join(
            part if part in ",(){}" else (" " + part) for part in parts
        ).replace("( ", "(").replace("{ ", "{").strip()
        if not text:
            raise ParserError("empty security label", self._peek().span)
        return text


class ParseIndex:
    """The top-level units of the last successful parse of one file.

    Pass the same index to every :func:`parse_program` call over
    successive revisions of a file: each successful parse records its
    source and units here, and the next one hands back the units the
    edit cannot have touched.  A failed parse leaves the index as it
    was.  A caller that swaps a parsed unit for an equal one with the
    same spans (a workspace keeps its cached nodes) records the swap
    with :meth:`relink`, so the next parse hands back the kept node.
    """

    def __init__(self) -> None:
        self.source: Optional[str] = None
        self.filename: Optional[str] = None
        #: The units of the last parse, in source order.
        self.units: List[Unit] = []
        #: Their bounds, four ints per unit (see :meth:`Parser.parse_units`).
        self.bounds = array("l")
        #: How many units the last parse reused and how many it parsed.
        self.reused = 0
        self.reparsed = 0
        self._line_starts: Optional[List[int]] = None

    def offset(self, line: int, column: int) -> int:
        """The offset of ``line``:``column`` in :attr:`source`."""
        if self._line_starts is None:
            self._line_starts = list(
                accumulate((len(text) + 1 for text in self.source.split("\n")), initial=0)
            )
        return self._line_starts[line - 1] + column - 1

    def relink(self, parsed: Program, kept: Program) -> None:
        """Record ``kept``'s units in place of ``parsed``'s, pairing them
        in walk order (declarations, then controls)."""
        swap = {
            id(old): new
            for old, new in zip(
                (*parsed.declarations, *parsed.controls),
                (*kept.declarations, *kept.controls),
            )
            if old is not new
        }
        if swap:
            self.units = [swap.get(id(unit), unit) for unit in self.units]


def parse_program(
    source: str,
    filename: str = "<input>",
    name: str | None = None,
    *,
    index: Optional[ParseIndex] = None,
) -> Program:
    """Parse ``source`` into a :class:`Program`.

    With an ``index`` holding an earlier parse of ``filename``, only the
    text around the edit is lexed and parsed; the units before and after
    it are the earlier parse's node objects, whose spans are exactly what
    a full parse would give:

    * every unit that ends at or before the first changed character;
    * when the edit keeps the changed region's line count, every unit
      that starts after a newline inside the common suffix.

    Between them the text is parsed as top-level units.  If that fails,
    or does not end exactly at the first reused suffix unit, the whole
    source is parsed, so errors are always the full parse's.  The lex
    and parse run in the ``parse.lex`` and ``parse.descend`` spans of
    the ambient telemetry recorder.
    """
    plan = _reuse_plan(index, source, filename) if index is not None else None
    if plan is not None:
        try:
            return _parse(source, filename, name, index, *plan)
        except FrontendError:
            pass  # the edit reaches into a reused unit
    return _parse(source, filename, name, index, 0, 0, 0, len(source), 1, 0)


def _parse(
    source: str,
    filename: str,
    name: Optional[str],
    index: Optional[ParseIndex],
    head: int,
    tail: int,
    start: int,
    stop: int,
    line: int,
    line_start: int,
) -> Program:
    """Parse ``source[start:stop]`` between the first ``head`` and the
    last ``tail`` units of ``index``, which are reused."""
    recorder = current_recorder()
    with recorder.span("parse.lex"):
        tokens = scan(source, filename, start, stop, line, line_start)
    with recorder.span("parse.descend"):
        units, bounds = Parser(tokens, filename).parse_units()
    reparsed = len(units)
    if head or tail:
        kept = len(index.units) - tail
        units = index.units[:head] + units + index.units[kept:]
        bounds = index.bounds[: 4 * head] + bounds + index.bounds[4 * kept :]
    _check_type_depth(units)
    end = Position(source.count("\n") + 1, len(source) - source.rfind("\n"))
    begin = Position(bounds[0], bounds[1]) if units else end
    if index is not None:
        index.source, index.filename = source, filename
        index.units, index.bounds = units, bounds
        index.reused, index.reparsed = len(units) - reparsed, reparsed
        index._line_starts = None
    return Program(
        tuple(unit for unit in units if not isinstance(unit, ControlDecl)),
        tuple(unit for unit in units if isinstance(unit, ControlDecl)),
        span=SourceSpan(begin, end, filename),
        name=name or filename,
    )


def _check_type_depth(units: List[Unit]) -> None:
    """Refuse a type declaration nested deeper than :data:`MAX_TYPE_DEPTH`.

    A declaration's depth is its own level plus its stack suffixes plus
    the depth of the deepest named type it refers to.  Names may refer
    forward, and in cycles, which the checkers report; every declaration
    a cycle reaches gets the levels of the whole unresolved region, an
    upper bound on any chain a walker can follow before it finds the
    cycle.  Iterative, so the check itself cannot overflow.
    """
    decls = [u for u in units if isinstance(u, (HeaderDecl, StructDecl, TypedefDecl))]
    if not decls:
        return
    own: Dict[str, int] = {}
    refs: Dict[str, Set[str]] = {}
    for decl in decls:
        fields = [decl.ty] if isinstance(decl, TypedefDecl) else [f.ty for f in decl.fields]
        levels, names = 1, refs.setdefault(decl.name, set())
        for annotated in fields:
            ty, stacks = annotated.ty, 0
            while isinstance(ty, StackType):
                ty, stacks = ty.element.ty, stacks + 1
            levels = max(levels, 1 + stacks)
            if isinstance(ty, TypeName):
                names.add(ty.name)
        own[decl.name] = max(own.get(decl.name, 1), levels)
    users: Dict[str, List[str]] = {name: [] for name in own}
    pending: Dict[str, int] = {}
    for name, names in refs.items():
        declared = names & own.keys()
        pending[name] = len(declared)
        for ref in declared:
            users[ref].append(name)
    below = dict.fromkeys(own, 0)
    depth: Dict[str, int] = {}
    ready = [name for name, count in pending.items() if not count]
    while ready:
        name = ready.pop()
        depth[name] = own[name] + below[name]
        for user in users[name]:
            below[user] = max(below[user], depth[name])
            pending[user] -= 1
            if not pending[user]:
                ready.append(user)
    cyclic = [name for name in own if name not in depth]
    if cyclic:
        bound = sum(own[name] for name in cyclic) + max(below[name] for name in cyclic)
        depth.update(dict.fromkeys(cyclic, bound))
    for decl in decls:
        if depth[decl.name] > MAX_TYPE_DEPTH:
            raise ParserError(
                f"type nesting deeper than {MAX_TYPE_DEPTH} levels", decl.span
            )


def _reuse_plan(
    index: ParseIndex, source: str, filename: str
) -> Optional[Tuple[int, int, int, int, int, int]]:
    """What :func:`_parse` may reuse of ``index`` for ``source``: how many
    units at the head and at the tail, and the region between them
    (start, stop, and the line and line start at start), or None when
    nothing is reusable."""
    old, bounds, count = index.source, index.bounds, len(index.units)
    if old is None or index.filename != filename:
        return None
    limit = min(len(old), len(source))
    changed = _common_prefix(old, source, limit)
    suffix = _common_prefix(old[::-1], source[::-1], limit - changed)
    # Units that end at or before the first changed character.
    changed_at = (old.count("\n", 0, changed) + 1, changed - old.rfind("\n", 0, changed))
    head = 0
    while head < count and (bounds[4 * head + 2], bounds[4 * head + 3]) <= changed_at:
        head += 1
    # Units that start after a newline in the common suffix keep their
    # line and column if the changed region keeps its line count.
    tail = count
    old_stop, new_stop = len(old) - suffix, len(source) - suffix
    newline = old.find("\n", old_stop)
    if newline >= 0 and old.count("\n", changed, old_stop) == source.count(
        "\n", changed, new_stop
    ):
        boundary = changed_at[0] + old.count("\n", changed, newline)
        while tail > head and bounds[4 * (tail - 1)] > boundary:
            tail -= 1
    if head == 0 and tail == count:
        return None
    start, line, line_start = 0, 1, 0
    if head:
        line = bounds[4 * head - 2]
        line_start = index.offset(line, 1)
        start = line_start + bounds[4 * head - 1] - 1
    stop = len(source)
    if tail < count:
        stop = index.offset(bounds[4 * tail], bounds[4 * tail + 1]) + len(source) - len(old)
    return head, count - tail, start, stop, line, line_start


def _common_prefix(a: str, b: str, limit: int) -> int:
    """Length of the longest common prefix of ``a`` and ``b``, at most ``limit``."""
    low, high = 0, limit
    while low < high:
        mid = (low + high + 1) // 2
        if a[low:mid] == b[low:mid]:
            low = mid
        else:
            high = mid - 1
    return low


def parse_expression(source: str, filename: str = "<expr>") -> Expression:
    """Parse a standalone expression (used by tests and builders)."""
    tokens = tokenize(source, filename)
    parser = Parser(tokens, filename)
    expr = parser.parse_expression()
    trailing = parser._peek()
    if trailing.kind is not TokenKind.EOF:
        raise ParserError(f"unexpected trailing token {trailing}", trailing.span)
    return expr
