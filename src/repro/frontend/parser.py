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

The parser reads the columns :func:`~repro.frontend.lexer.scan` returns,
and a token is a plain index into them: it compares ``texts[i]`` with
the punctuator or keyword it expects, and its error messages name a token
by its kind and text and locate it through the offsets.

Every span a unit's nodes carry is relative to the unit's
:class:`~repro.syntax.source.Anchor`: indices into the offsets of its
tokens.  Given a :class:`ParseIndex` of the previous revision,
:func:`parse_program` lexes and parses only the text around an edit and
hands back the other top-level units as the previous parse's node
objects, their anchors moved to where the units sit now.
"""

from __future__ import annotations

from array import array
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.frontend.errors import FrontendError, ParserError
from repro.frontend.lexer import TokenKind, scan
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
from repro.syntax.source import Anchor, LineTable, SourceSpan, span_at
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

_BASE_TYPES = {"bool": BoolType, "int": IntType, "void": UnitType}

_DIRECTIONS = {"in": Direction.IN, "out": Direction.OUT, "inout": Direction.INOUT}


def _cover(first: SourceSpan, last: SourceSpan) -> SourceSpan:
    """From the start of ``first`` to the end of ``last``, which follows it
    in the same unit."""
    return span_at(first.anchor, first.lo, last.hi)


class Parser:
    """Parses the columns of a lexed region into the Core P4 AST.

    A token is its index into the columns :func:`scan` returns.  No
    identifier, integer or EOF token spells a punctuator or a keyword, so
    a token is one exactly when its text is.
    """

    def __init__(self, lines: LineTable, texts: List[str], kinds: List[TokenKind],
                 offsets: "array[int]", values: Dict[str, Tuple[int, Optional[int]]]) -> None:
        self._texts = texts
        self._kinds = kinds
        self._values = values
        self._index = 0
        #: Depth of the innermost open statement or expression (MAX_DEPTH).
        self._depth = 0
        #: The anchor of the unit being parsed: its spans index the
        #: offsets from its first token on.
        self._anchor = Anchor(offsets, lines)

    # ------------------------------------------------------------------ spans

    def _between(self, first: int, last: int) -> SourceSpan:
        """The span from token ``first`` through token ``last``."""
        anchor = self._anchor
        base = anchor.base
        return span_at(anchor, 2 * first - base, 2 * last + 1 - base)

    def _from(self, first: int, last: SourceSpan) -> SourceSpan:
        """From token ``first`` to the end of ``last``."""
        anchor = self._anchor
        return span_at(anchor, 2 * first - anchor.base, last.hi)

    def _upto(self, first: SourceSpan, last: int) -> SourceSpan:
        """From the start of ``first`` through token ``last``."""
        anchor = self._anchor
        return span_at(anchor, first.lo, 2 * last + 1 - anchor.base)

    # ------------------------------------------------------------------ utils

    def _show(self, at: int) -> str:
        """How error messages name token ``at``."""
        return f"{self._kinds[at].value} {self._texts[at]!r}"

    def _error(self, at: int, message: str) -> ParserError:
        """``message``, located at token ``at``."""
        return ParserError(message, self._between(at, at))

    def _at_end(self) -> bool:
        return self._kinds[self._index] is TokenKind.EOF

    def _advance(self) -> int:
        at = self._index
        if self._kinds[at] is not TokenKind.EOF:
            self._index = at + 1
        return at

    def _check(self, text: str) -> bool:
        return self._texts[self._index] == text

    def _match(self, text: str) -> bool:
        if self._texts[self._index] == text:
            self._index += 1
            return True
        return False

    def _expect(self, text: str, context: str) -> int:
        at = self._index
        if self._texts[at] != text:
            raise self._error(at, f"expected {text!r} {context}, found {self._show(at)}")
        self._index = at + 1
        return at

    def _nest(self, at: int) -> None:
        """Open one nesting level at token ``at``; close it with ``_depth -= 1``."""
        self._depth += 1
        if self._depth > MAX_DEPTH:
            raise self._error(at, f"nesting deeper than {MAX_DEPTH} levels")

    def _expect_ident(self, context: str) -> int:
        at = self._index
        if self._kinds[at] is not TokenKind.IDENT:
            raise self._error(at, f"expected an identifier {context}, found {self._show(at)}")
        self._index = at + 1
        return at

    # ------------------------------------------------------------------ program

    def parse_units(self) -> List[Unit]:
        """Every top-level unit up to EOF, in source order.

        Each unit gets its own anchor, which spans every token the unit
        consumed: an ``@pc(...)`` prefix is part of its control, a
        trailing optional ``;`` part of its declaration.
        """
        units: List[Unit] = []
        texts, offsets, lines = self._texts, self._anchor.offsets, self._anchor.lines
        while not self._at_end():
            self._anchor = Anchor(offsets, lines, 2 * self._index)
            pc_label = self._parse_optional_pc_annotation()
            at = self._index
            text = texts[at]
            unit: Unit
            if text == "control":
                unit = self._parse_control(pc_label)
            elif pc_label is not None:
                raise self._error(at, "@pc(...) annotations may only precede a control block")
            elif text == "header":
                unit = self._parse_header_or_struct(header=True)
            elif text == "struct":
                unit = self._parse_header_or_struct(header=False)
            elif text == "typedef":
                unit = self._parse_typedef()
            elif text == "match_kind":
                unit = self._parse_match_kind()
            elif text == "const" or self._looks_like_type_start():
                unit = self._parse_var_decl(allow_const=True)
            else:
                raise self._error(at, f"unexpected token {self._show(at)} at top level")
            self._anchor.stop = 2 * self._index
            units.append(unit)
        return units

    def _parse_optional_pc_annotation(self) -> Optional[str]:
        at = self._index
        if not self._match("@"):
            return None
        name = self._texts[self._expect_ident("after '@'")]
        if name != "pc":
            raise self._error(at, f"unknown annotation @{name}; only @pc(label) is supported")
        self._expect("(", "after '@pc'")
        label = self._parse_label_text(")")
        self._expect(")", "to close '@pc('")
        return label

    # ------------------------------------------------------------------ type declarations

    def _parse_header_or_struct(self, *, header: bool) -> Declaration:
        keyword = self._texts[self._index]
        start = self._advance()
        name = self._texts[self._expect_ident("after 'header'/'struct'")]
        self._expect("{", f"to open {keyword} {name}")
        fields: List[Field] = []
        while not self._check("}"):
            field_type = self._parse_annotated_type()
            field_name = self._expect_ident("as a field name")
            self._expect(";", "after a field declaration")
            fields.append(Field(self._texts[field_name], field_type))
        close = self._expect("}", f"to close {keyword} {name}")
        self._match(";")
        span = self._between(start, close)
        if header:
            return HeaderDecl(name, tuple(fields), span=span)
        return StructDecl(name, tuple(fields), span=span)

    def _parse_typedef(self) -> TypedefDecl:
        start = self._advance()
        ty = self._parse_annotated_type()
        name = self._expect_ident("as the typedef name")
        semi = self._expect(";", "after a typedef")
        return TypedefDecl(ty, self._texts[name], span=self._between(start, semi))

    def _parse_match_kind(self) -> MatchKindDecl:
        start = self._advance()
        self._expect("{", "after 'match_kind'")
        members: List[str] = []
        while not self._check("}"):
            members.append(self._texts[self._expect_ident("as a match_kind member")])
            if not self._match(","):
                break
        close = self._expect("}", "to close match_kind")
        self._match(";")
        return MatchKindDecl(tuple(members), span=self._between(start, close))

    # ------------------------------------------------------------------ controls

    def _parse_control(self, pc_label: Optional[str]) -> ControlDecl:
        texts = self._texts
        start = self._advance()
        name = texts[self._expect_ident("as the control name")]
        self._expect("(", "after the control name")
        params = self._parse_param_list()
        self._expect(")", "to close the control parameter list")
        self._expect("{", "to open the control body")
        locals_: List[Declaration] = []
        apply_block: Optional[Block] = None
        while not self._check("}"):
            at = self._index
            text = texts[at]
            if text == "apply":
                self._index = at + 1
                apply_block = self._parse_block()
            elif text == "action" or text == "function":
                locals_.append(self._parse_function(action=text == "action"))
            elif text == "table":
                locals_.append(self._parse_table())
            elif self._looks_like_type_start() or text == "const":
                locals_.append(self._parse_var_decl(allow_const=True))
            else:
                raise self._error(at, f"unexpected token {self._show(at)} inside control {name!r}")
        close = self._expect("}", f"to close control {name!r}")
        if apply_block is None:
            apply_block = Block((), span=self._between(close, close))
        return ControlDecl(
            name,
            tuple(params),
            tuple(locals_),
            apply_block,
            pc_label=pc_label,
            span=self._between(start, close),
        )

    def _parse_param_list(self) -> List[Param]:
        params: List[Param] = []
        if self._check(")"):
            return params
        while True:
            params.append(self._parse_param())
            if not self._match(","):
                return params

    def _parse_param(self) -> Param:
        start = self._index
        direction = _DIRECTIONS.get(self._texts[start], Direction.NONE)
        if direction is not Direction.NONE:
            self._index += 1
        ty = self._parse_annotated_type()
        name = self._expect_ident("as a parameter name")
        return Param(direction, self._texts[name], ty, span=self._between(start, name))

    # ------------------------------------------------------------------ actions / functions

    def _parse_function(self, *, action: bool) -> FunctionDecl:
        start = self._advance()
        return_type: Optional[AnnotatedType] = None
        if not action and not self._match("void"):
            return_type = self._parse_annotated_type()
        what = "action" if action else "function"
        name = self._texts[self._expect_ident(f"as the {what} name")]
        self._expect("(", f"after the {what} name")
        params = self._parse_param_list()
        self._expect(")", f"to close the {what} parameter list")
        body = self._parse_block()
        return FunctionDecl(
            name,
            tuple(params),
            body,
            return_type=return_type,
            is_action=action,
            span=self._from(start, body.span),
        )

    # ------------------------------------------------------------------ tables

    def _parse_table(self) -> TableDecl:
        texts = self._texts
        start = self._advance()
        name = texts[self._expect_ident("as the table name")]
        self._expect("{", "to open the table body")
        keys: List[TableKey] = []
        actions: List[ActionRef] = []
        while not self._check("}"):
            at = self._index
            if texts[at] == "key":
                self._index = at + 1
                self._expect("=", "after 'key'")
                self._expect("{", "to open the key list")
                while not self._check("}"):
                    key_expr = self.parse_expression()
                    self._expect(":", "between a key expression and its match kind")
                    kind = self._expect_ident("as a match kind")
                    self._match(";")
                    keys.append(
                        TableKey(key_expr, texts[kind], span=self._upto(key_expr.span, kind))
                    )
                self._expect("}", "to close the key list")
                self._match(";")
            elif texts[at] == "actions":
                self._index = at + 1
                self._expect("=", "after 'actions'")
                self._expect("{", "to open the action list")
                while not self._check("}"):
                    actions.append(self._parse_action_ref())
                    if not (self._match(";") or self._match(",")):
                        break
                self._expect("}", "to close the action list")
                self._match(";")
            else:
                raise self._error(
                    at,
                    f"unexpected token {self._show(at)} inside table {name!r}; "
                    "expected 'key = {...}' or 'actions = {...}'",
                )
        close = self._expect("}", f"to close table {name!r}")
        self._match(";")
        return TableDecl(name, tuple(keys), tuple(actions), span=self._between(start, close))

    def _parse_action_ref(self) -> ActionRef:
        name = self._expect_ident("as an action reference")
        arguments: List[Expression] = []
        span = self._between(name, name)
        if self._match("("):
            if not self._check(")"):
                while True:
                    arguments.append(self.parse_expression())
                    if not self._match(","):
                        break
            close = self._expect(")", "to close action arguments")
            span = self._between(name, close)
        return ActionRef(self._texts[name], tuple(arguments), span=span)

    # ------------------------------------------------------------------ variable declarations

    def _parse_var_decl(self, *, allow_const: bool = False) -> VarDecl:
        start = self._index
        if allow_const:
            self._match("const")
        ty = self._parse_annotated_type()
        name = self._expect_ident("as a variable name")
        init: Optional[Expression] = None
        if self._match("="):
            init = self.parse_expression()
        semi = self._expect(";", "after a variable declaration")
        return VarDecl(ty, self._texts[name], init, span=self._between(start, semi))

    def _looks_like_type_start(self) -> bool:
        """Decide whether the upcoming tokens begin a (possibly annotated) type.

        Used to disambiguate variable declarations from expression statements
        without backtracking.  A statement starts a declaration when it
        begins with ``<`` (an annotated type), a type keyword, or an
        identifier immediately followed by another identifier (``ipv4_t x``)
        or by any number of ``[n]`` suffixes and then an identifier (a
        stack-typed variable, ``h_t[2][3] y``).  The type parser itself
        caps the suffix count (:data:`MAX_TYPE_DEPTH`).
        """
        texts, kinds = self._texts, self._kinds
        at = self._index
        if texts[at] == "<" or texts[at] in _TYPE_KEYWORDS:
            return True
        if kinds[at] is not TokenKind.IDENT:
            return False
        ahead = at + 1
        # Each lookahead follows a non-EOF token, so it stays in bounds.
        while texts[ahead] == "[" and kinds[ahead + 1] is TokenKind.INT and texts[ahead + 2] == "]":
            ahead += 3
        return kinds[ahead] is TokenKind.IDENT

    # ------------------------------------------------------------------ statements

    def _parse_block(self) -> Block:
        open_brace = self._expect("{", "to open a block")
        self._nest(open_brace)
        statements: List[Statement] = []
        while not self._check("}"):
            statements.append(self._parse_statement())
        self._depth -= 1
        close = self._expect("}", "to close a block")
        return Block(tuple(statements), span=self._between(open_brace, close))

    def _parse_statement(self) -> Statement:
        at = self._index
        text = self._texts[at]
        if text == "{":
            return self._parse_block()
        self._nest(at)
        try:
            if text == "if":
                return self._parse_if()
            if text == "exit":
                self._index = at + 1
                semi = self._expect(";", "after 'exit'")
                return Exit(span=self._between(at, semi))
            if text == "return":
                self._index = at + 1
                if self._check(";"):
                    semi = self._advance()
                    return Return(None, span=self._between(at, semi))
                value = self.parse_expression()
                semi = self._expect(";", "after a return value")
                return Return(value, span=self._between(at, semi))
            if self._looks_like_type_start() or text == "const":
                decl = self._parse_var_decl(allow_const=True)
                return VarDeclStmt(decl, span=decl.span)
            return self._parse_expression_statement()
        finally:
            self._depth -= 1

    def _parse_if(self) -> If:
        start = self._advance()
        self._expect("(", "after 'if'")
        condition = self.parse_expression()
        self._expect(")", "to close the if condition")
        then_branch = self._parse_block()
        else_branch = Block((), span=then_branch.span)
        if self._match("else"):
            if self._check("if"):
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
            span=self._from(start, else_branch.span),
        )

    def _parse_expression_statement(self) -> Statement:
        expr = self.parse_expression()
        if self._match("="):
            value = self.parse_expression()
            semi = self._expect(";", "after an assignment")
            return Assign(expr, value, span=self._upto(expr.span, semi))
        semi = self._expect(";", "after an expression statement")
        if isinstance(expr, Call):
            return CallStmt(expr, span=self._upto(expr.span, semi))
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
        texts = self._texts
        while True:
            at = self._index
            op = texts[at]
            # Only punctuation tokens can spell an operator.
            level = _BINARY_LEVEL.get(op)
            if level is None or level < min_level:
                return left, height
            self._index = at + 1
            self._nest(at)
            right, right_height = self._parse_binary(level + 1)
            self._depth -= 1
            left = BinaryOp(op, left, right, span=_cover(left.span, right.span))
            height = 1 + max(height, right_height)

    def _parse_operand(self) -> Tuple[Expression, int]:
        """Prefix operators, a primary, then field selectors, indices and calls."""
        texts, kinds = self._texts, self._kinds
        at = self._index
        prefix: List[int] = []
        while texts[at] in _UNARY_OPERATORS:
            self._nest(at)
            prefix.append(at)
            at += 1
        self._index = at + 1

        expr: Expression
        kind, text = kinds[at], texts[at]
        if kind is TokenKind.IDENT:
            expr, height = Var(text, span=self._between(at, at)), 1
        elif kind is TokenKind.INT:
            value, width = self._values[text]
            expr, height = IntLiteral(value, width, span=self._between(at, at)), 1
        elif text == "true" or text == "false":
            expr, height = BoolLiteral(text == "true", span=self._between(at, at)), 1
        elif text == "(":
            self._nest(at)
            expr, height = self._parse_binary(0)
            self._depth -= 1
            self._expect(")", "to close a parenthesised expression")
            height += 1
        elif text == "{":
            self._nest(at)
            fields: List[Tuple[str, Expression]] = []
            height = 0
            while not self._check("}"):
                name = self._expect_ident("as a record field name")
                self._expect("=", "after a record field name")
                value, value_height = self._parse_binary(0)
                fields.append((texts[name], value))
                height = max(height, value_height)
                if not self._match(","):
                    break
            self._depth -= 1
            close = self._expect("}", "to close a record literal")
            expr, height = RecordLiteral(tuple(fields), span=self._between(at, close)), height + 1
        else:
            raise self._error(at, f"expected an expression, found {self._show(at)}")

        while True:
            at = self._index
            text = texts[at]
            if text == "." and texts[at + 1] == "apply":
                # table application t.apply(...) desugars to t(...)
                self._index = at = at + 2
                text = texts[at]
                if text != "(":
                    raise self._error(at, f"expected '(' after '.apply', found {self._show(at)}")
            if text == "(":
                self._index = at + 1
                self._nest(at)
                arguments: List[Expression] = []
                inner = 0
                if not self._check(")"):
                    while True:
                        argument, argument_height = self._parse_binary(0)
                        arguments.append(argument)
                        inner = max(inner, argument_height)
                        if not self._match(","):
                            break
                self._depth -= 1
                close = self._expect(")", "to close a call")
                expr = Call(expr, tuple(arguments), span=self._upto(expr.span, close))
                height = 1 + max(height, inner)
            elif text == ".":
                field = at + 1
                if kinds[field] is not TokenKind.IDENT:
                    raise self._error(
                        field, f"expected a field name after '.', found {self._show(field)}"
                    )
                self._index = at + 2
                expr = FieldAccess(expr, texts[field], span=self._upto(expr.span, field))
                height += 1
            elif text == "[":
                self._index = at + 1
                self._nest(at)
                index, index_height = self._parse_binary(0)
                self._depth -= 1
                close = self._expect("]", "to close an index expression")
                expr = Index(expr, index, span=self._upto(expr.span, close))
                height = 1 + max(height, index_height)
            else:
                break

        for at in reversed(prefix):
            expr = UnaryOp(texts[at], expr, span=self._from(at, expr.span))
        self._depth -= len(prefix)
        return expr, height + len(prefix)

    # ------------------------------------------------------------------ types

    def _parse_annotated_type(self) -> AnnotatedType:
        start = self._index
        if self._match("<"):
            inner = self._parse_type()
            self._expect(",", "between a type and its security label")
            label = self._parse_label_text(">")
            close = self._expect(">", "to close a security annotation")
            return AnnotatedType(inner, label, span=self._between(start, close))
        ty = self._parse_type()
        # Span the whole type, not just its first token: ``bit<8>`` and
        # ``ipv4_t[4]`` span through the last consumed token, so SARIF
        # regions cover the full type expression.
        return AnnotatedType(ty, None, span=self._between(start, self._index - 1))

    def _parse_type(self) -> Type:
        texts, kinds = self._texts, self._kinds
        at = self._index
        text = texts[at]
        base: Type
        if text == "bit":
            self._index = at + 1
            self._expect("<", "after 'bit'")
            width = self._index
            if kinds[width] is not TokenKind.INT:
                raise self._error(width, "expected a bit width")
            self._index = width + 1
            self._expect(">", "to close 'bit<...>'")
            base = BitType(self._values[texts[width]][0])
        elif text in _BASE_TYPES:
            self._index = at + 1
            base = _BASE_TYPES[text]()
        elif kinds[at] is TokenKind.IDENT:
            self._index = at + 1
            base = TypeName(text)
        else:
            raise self._error(at, f"expected a type, found {self._show(at)}")
        # header stacks / arrays: τ[n]
        stacks = 0
        while texts[self._index] == "[" and kinds[self._index + 1] is TokenKind.INT:
            bracket = self._index
            stacks += 1
            if stacks > MAX_TYPE_DEPTH:
                raise self._error(bracket, f"type nesting deeper than {MAX_TYPE_DEPTH} levels")
            self._index = bracket + 2
            self._expect("]", "to close a stack type")
            base = StackType(AnnotatedType(base, None), self._values[texts[bracket + 1]][0])
        return base

    def _parse_label_text(self, closing: str) -> str:
        """Collect the raw spelling of a security label up to ``closing``.

        Labels are usually a single identifier (``high``, ``A``) but may be
        a brace-enclosed principal set (``{alice, bob}``) or a parenthesised
        pair for product lattices.
        """
        texts, kinds = self._texts, self._kinds
        at = self._index
        depth = 0
        while True:
            if kinds[at] is TokenKind.EOF:
                raise self._error(at, "unterminated security label")
            text = texts[at]
            if depth == 0 and text == closing:
                break
            if text == "(" or text == "{":
                depth += 1
            elif text == ")" or text == "}":
                depth -= 1
            at += 1
        parts = texts[self._index : at]
        self._index = at
        label = "".join(
            part if part in ",(){}" else (" " + part) for part in parts
        ).replace("( ", "(").replace("{ ", "{").strip()
        if not label:
            raise self._error(at, "empty security label")
        return label


class ParseIndex:
    """The top-level units of the last successful parse of one file.

    Pass the same index to every :func:`parse_program` call over
    successive revisions of a file: each successful parse records its
    source and units here, and the next one hands back the units the
    edit cannot have touched.  A failed parse leaves the index as it
    was.  A caller that swaps a parsed unit for an equal one re-based
    onto its anchor (a workspace keeps its cached nodes) records the
    swap with :meth:`relink`, so the next parse hands back the kept node.
    """

    def __init__(self) -> None:
        self.source: Optional[str] = None
        self.filename: Optional[str] = None
        #: The units of the last parse, in source order.
        self.units: List[Unit] = []
        #: Per unit, its :func:`_type_shape`.
        self.shapes: List[Optional[TypeShape]] = []
        #: How many units the last parse reused and how many it parsed.
        self.reused = 0
        self.reparsed = 0

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
    it are the earlier parse's node objects, whose anchors are moved to
    where the units sit now, so their spans render exactly as a full
    parse's would:

    * every unit that ends at or before the first changed character;
    * every unit that lies in the common suffix, wherever it moved.

    Between them the text is parsed as top-level units.  If that fails,
    or does not end exactly at the first reused suffix unit, the whole
    source is parsed, so errors are always the full parse's.  Anchors
    move only once the parse has succeeded.  The lex and parse run in
    the ``parse.lex`` and ``parse.descend`` spans of the ambient
    telemetry recorder.
    """
    plan = _reuse_plan(index, source, filename) if index is not None else None
    if plan is not None:
        try:
            return _parse(source, filename, name, index, *plan)
        except FrontendError:
            pass  # the edit reaches into a reused unit
    return _parse(source, filename, name, index, 0, 0, 0, len(source))


def _parse(
    source: str,
    filename: str,
    name: Optional[str],
    index: Optional[ParseIndex],
    head: int,
    tail: int,
    start: int,
    stop: int,
) -> Program:
    """Parse ``source[start:stop]`` between the first ``head`` and the
    last ``tail`` units of ``index``, which are reused."""
    recorder = current_recorder()
    lines = LineTable(source, filename)
    with recorder.span("parse.lex"):
        columns = scan(lines, start, stop)
    with recorder.span("parse.descend"):
        units = Parser(lines, *columns).parse_units()
    reparsed = len(units)
    shapes = [_type_shape(unit) for unit in units]
    if head or tail:
        kept = len(index.units) - tail
        delta = len(source) - len(index.source)
        units = index.units[:head] + units + index.units[kept:]
        shapes = index.shapes[:head] + shapes + index.shapes[kept:]
    _check_type_depth(units, shapes)
    if head or tail:
        for unit in units[:head]:
            unit.span.anchor.move(lines, 0)
        for unit in units[len(units) - tail :]:
            unit.span.anchor.move(lines, delta)
    if index is not None:
        index.source, index.filename = source, filename
        index.units, index.shapes = units, shapes
        index.reused, index.reparsed = len(units) - reparsed, reparsed
    # The program runs from its first unit to the end of the source.
    ends = array("l", (units[0].span.anchor.start if units else len(source), len(source)))
    return Program(
        tuple(unit for unit in units if not isinstance(unit, ControlDecl)),
        tuple(unit for unit in units if isinstance(unit, ControlDecl)),
        span=span_at(Anchor(ends, lines), 0, 1),
        name=name or filename,
    )


#: A type declaration's own nesting level (1 plus its deepest stack
#: suffix) and the type names its fields refer to.
TypeShape = Tuple[int, FrozenSet[str]]


def _type_shape(unit: Unit) -> Optional[TypeShape]:
    """The :data:`TypeShape` of a type declaration; None for other units.
    A function of the unit's tokens, so a reused unit keeps its shape."""
    if isinstance(unit, TypedefDecl):
        fields = [unit.ty]
    elif isinstance(unit, (HeaderDecl, StructDecl)):
        fields = [f.ty for f in unit.fields]
    else:
        return None
    levels, names = 1, set()
    for annotated in fields:
        ty, stacks = annotated.ty, 0
        while isinstance(ty, StackType):
            ty, stacks = ty.element.ty, stacks + 1
        levels = max(levels, 1 + stacks)
        if isinstance(ty, TypeName):
            names.add(ty.name)
    return levels, frozenset(names)


def _check_type_depth(units: List[Unit], shapes: List[Optional[TypeShape]]) -> None:
    """Refuse a type declaration nested deeper than :data:`MAX_TYPE_DEPTH`.

    A declaration's depth is its own level plus its stack suffixes plus
    the depth of the deepest named type it refers to.  Names may refer
    forward, and in cycles, which the checkers report; every declaration
    a cycle reaches gets the levels of the whole unresolved region, an
    upper bound on any chain a walker can follow before it finds the
    cycle.  Iterative, so the check itself cannot overflow.  ``shapes``
    are the units' :func:`_type_shape`, in order.
    """
    decls = [(u, shape) for u, shape in zip(units, shapes) if shape is not None]
    if not decls:
        return
    own: Dict[str, int] = {}
    refs: Dict[str, Set[str]] = {}
    for decl, (levels, names) in decls:
        refs.setdefault(decl.name, set()).update(names)
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
    for decl, _shape in decls:
        if depth[decl.name] > MAX_TYPE_DEPTH:
            raise ParserError(
                f"type nesting deeper than {MAX_TYPE_DEPTH} levels", decl.span
            )


def _reuse_plan(
    index: ParseIndex, source: str, filename: str
) -> Optional[Tuple[int, int, int, int]]:
    """What :func:`_parse` may reuse of ``index`` for ``source``: how many
    units at the head and at the tail, and the region between them
    (start and stop offsets), or None when nothing is reusable."""
    old, count = index.source, len(index.units)
    if old is None or index.filename != filename:
        return None
    anchors = [unit.span.anchor for unit in index.units]
    if any(anchor.lines.source is not old for anchor in anchors):
        return None  # another parse re-based a unit this index shares
    limit = min(len(old), len(source))
    changed = _common_prefix(old, source, limit)
    suffix = _common_prefix(old[::-1], source[::-1], limit - changed)
    head = 0
    while head < count and anchors[head].end <= changed:
        head += 1
    tail, old_stop = count, len(old) - suffix
    while tail > head and anchors[tail - 1].start >= old_stop:
        tail -= 1
    if head == 0 and tail == count:
        return None
    start = anchors[head - 1].end if head else 0
    stop = anchors[tail].start + len(source) - len(old) if tail < count else len(source)
    return head, count - tail, start, stop


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
    lines = LineTable(source, filename)
    parser = Parser(lines, *scan(lines, 0, len(source)))
    expr = parser.parse_expression()
    if not parser._at_end():
        at = parser._index
        raise parser._error(at, f"unexpected trailing token {parser._show(at)}")
    return expr
