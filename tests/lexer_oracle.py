"""The seed front end, kept as a test oracle.

The production lexer (:mod:`repro.frontend.lexer`) is one compiled master
pattern and the production expression parser climbs precedence levels.
This module keeps the original character-at-a-time :class:`Lexer` and the
original one-function-per-level recursive expression parser, so the
differential tests in ``tests/test_frontend_oracle.py`` can require the
fast front end to produce the same tokens, errors and ASTs, spans
included.  Not collected by pytest (no ``test_`` prefix).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.frontend.errors import LexerError, ParserError
from repro.frontend.lexer import KEYWORDS, TokenKind
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
from repro.syntax.source import Position, SourceSpan

_MULTI_CHAR_OPERATORS = ("<<", ">>", "==", "!=", "<=", ">=", "&&", "||")
_SINGLE_CHAR_TOKENS = frozenset("{}()[]<>,;:.=+-*/%&|^~!@?")

#: The seed's binary precedence table, lowest binding first.
BINARY_PRECEDENCE: Tuple[Tuple[str, ...], ...] = (
    ("||",),
    ("&&",),
    ("==", "!="),
    ("<", ">", "<=", ">="),
    ("|",),
    ("^",),
    ("&",),
    ("<<", ">>"),
    ("+", "-"),
    ("*", "/", "%"),
)


@dataclass(frozen=True, slots=True)
class OracleToken:
    """A single token: its kind, source text, value, and span."""

    kind: TokenKind
    text: str
    span: SourceSpan
    value: int | None = None
    width: int | None = None

    def is_punct(self, text: str) -> bool:
        return self.kind is TokenKind.PUNCT and self.text == text

    def is_keyword(self, text: str) -> bool:
        return self.kind is TokenKind.KEYWORD and self.text == text

    def __str__(self) -> str:
        return f"{self.kind.value} {self.text!r}"


class Lexer:
    """Single-pass lexer over a source string."""

    def __init__(self, source: str, filename: str = "<input>") -> None:
        self._source = source
        self._filename = filename
        self._offset = 0
        self._line = 1
        self._column = 1

    # -- public API ----------------------------------------------------------

    def tokenize(self) -> List[OracleToken]:
        """Lex the whole input, appending a trailing EOF token."""
        tokens: List[OracleToken] = []
        while True:
            self._skip_trivia()
            if self._at_end():
                tokens.append(
                    OracleToken(TokenKind.EOF, "", self._point_span(), None)
                )
                return tokens
            tokens.append(self._next_token())

    # -- character helpers ----------------------------------------------------

    def _at_end(self) -> bool:
        return self._offset >= len(self._source)

    def _peek(self, ahead: int = 0) -> str:
        index = self._offset + ahead
        if index >= len(self._source):
            return "\0"
        return self._source[index]

    def _advance(self) -> str:
        char = self._source[self._offset]
        self._offset += 1
        if char == "\n":
            self._line += 1
            self._column = 1
        else:
            self._column += 1
        return char

    def _position(self) -> Position:
        return Position(self._line, self._column)

    def _point_span(self) -> SourceSpan:
        pos = self._position()
        return SourceSpan(pos, pos, self._filename)

    def _span_from(self, start: Position) -> SourceSpan:
        return SourceSpan(start, self._position(), self._filename)

    # -- trivia -----------------------------------------------------------------

    def _skip_trivia(self) -> None:
        while not self._at_end():
            char = self._peek()
            if char in " \t\r\n":
                self._advance()
            elif char == "/" and self._peek(1) == "/":
                while not self._at_end() and self._peek() != "\n":
                    self._advance()
            elif char == "/" and self._peek(1) == "*":
                self._skip_block_comment()
            else:
                return

    def _skip_block_comment(self) -> None:
        start = self._position()
        self._advance()
        self._advance()
        while True:
            if self._at_end():
                raise LexerError(
                    "unterminated block comment", SourceSpan(start, self._position(), self._filename)
                )
            if self._peek() == "*" and self._peek(1) == "/":
                self._advance()
                self._advance()
                return
            self._advance()

    # -- token scanning -----------------------------------------------------------

    def _next_token(self) -> OracleToken:
        start = self._position()
        char = self._peek()
        if char.isalpha() or char == "_":
            return self._lex_word(start)
        if char.isdigit():
            return self._lex_number(start)
        return self._lex_punct(start)

    def _lex_word(self, start: Position) -> OracleToken:
        chars: List[str] = []
        while not self._at_end() and (self._peek().isalnum() or self._peek() == "_"):
            chars.append(self._advance())
        text = "".join(chars)
        kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT
        return OracleToken(kind, text, self._span_from(start))

    def _lex_number(self, start: Position) -> OracleToken:
        chars: List[str] = []
        while not self._at_end() and (self._peek().isalnum() or self._peek() == "_"):
            chars.append(self._advance())
        text = "".join(chars)
        span = self._span_from(start)
        value, width = self._parse_number(text, span)
        return OracleToken(TokenKind.INT, text, span, value=value, width=width)

    @staticmethod
    def _parse_number(text: str, span: SourceSpan) -> tuple[int, int | None]:
        cleaned = text.replace("_", "")
        # width-annotated literals such as 8w255 or 32w0xFF
        if "w" in cleaned and not cleaned.lower().startswith("0x"):
            width_text, _, value_text = cleaned.partition("w")
            if width_text.isdigit() and value_text:
                try:
                    return int(value_text, 0), int(width_text)
                except ValueError as exc:
                    raise LexerError(f"malformed literal {text!r}", span) from exc
        try:
            return int(cleaned, 0), None
        except ValueError as exc:
            raise LexerError(f"malformed literal {text!r}", span) from exc

    def _lex_punct(self, start: Position) -> OracleToken:
        for op in _MULTI_CHAR_OPERATORS:
            if self._source.startswith(op, self._offset):
                for _ in op:
                    self._advance()
                return OracleToken(TokenKind.PUNCT, op, self._span_from(start))
        char = self._peek()
        if char in _SINGLE_CHAR_TOKENS:
            self._advance()
            return OracleToken(TokenKind.PUNCT, char, self._span_from(start))
        raise LexerError(f"unexpected character {char!r}", self._point_span())


def oracle_tokenize(source: str, filename: str = "<input>") -> List[OracleToken]:
    """The seed character-at-a-time lexer."""
    return Lexer(source, filename).tokenize()


class OracleExpressionParser:
    """The seed's expression parser: one recursive call per precedence level."""

    def __init__(self, tokens: List[OracleToken]) -> None:
        self._tokens = tokens
        self._index = 0

    def _peek(self, ahead: int = 0) -> OracleToken:
        index = min(self._index + ahead, len(self._tokens) - 1)
        return self._tokens[index]

    def _advance(self) -> OracleToken:
        token = self._tokens[self._index]
        if token.kind is not TokenKind.EOF:
            self._index += 1
        return token

    def _check_punct(self, text: str) -> bool:
        return self._peek().is_punct(text)

    def _match_punct(self, text: str) -> Optional[OracleToken]:
        if self._check_punct(text):
            return self._advance()
        return None

    def _expect_punct(self, text: str, context: str) -> OracleToken:
        token = self._peek()
        if not token.is_punct(text):
            raise ParserError(f"expected {text!r} {context}, found {token}", token.span)
        return self._advance()

    def _expect_ident(self, context: str) -> OracleToken:
        token = self._peek()
        if token.kind is not TokenKind.IDENT:
            raise ParserError(f"expected an identifier {context}, found {token}", token.span)
        return self._advance()

    def parse_expression(self) -> Expression:
        return self._parse_binary(0)

    def _parse_binary(self, level: int) -> Expression:
        if level >= len(BINARY_PRECEDENCE):
            return self._parse_unary()
        operators = BINARY_PRECEDENCE[level]
        left = self._parse_binary(level + 1)
        while self._peek().kind is TokenKind.PUNCT and self._peek().text in operators:
            op = self._advance()
            right = self._parse_binary(level + 1)
            left = BinaryOp(op.text, left, right, span=left.span.merge(right.span))
        return left

    def _parse_unary(self) -> Expression:
        token = self._peek()
        if token.kind is TokenKind.PUNCT and token.text in ("!", "-", "~"):
            self._advance()
            operand = self._parse_unary()
            return UnaryOp(token.text, operand, span=token.span.merge(operand.span))
        return self._parse_postfix()

    def _parse_postfix(self) -> Expression:
        expr = self._parse_primary()
        while True:
            if self._check_punct("."):
                self._advance()
                field = self._peek()
                if field.is_keyword("apply"):
                    # table application t.apply(...) desugars to t(...)
                    self._advance()
                    self._expect_punct("(", "after '.apply'")
                    arguments = self._parse_call_arguments()
                    close_span = self._tokens[self._index - 1].span
                    expr = Call(expr, tuple(arguments), span=expr.span.merge(close_span))
                    continue
                if field.kind is not TokenKind.IDENT:
                    raise ParserError(
                        f"expected a field name after '.', found {field}", field.span
                    )
                self._advance()
                expr = FieldAccess(expr, field.text, span=expr.span.merge(field.span))
            elif self._check_punct("["):
                self._advance()
                index = self.parse_expression()
                close = self._expect_punct("]", "to close an index expression")
                expr = Index(expr, index, span=expr.span.merge(close.span))
            elif self._check_punct("("):
                self._advance()
                arguments = self._parse_call_arguments()
                close_span = self._tokens[self._index - 1].span
                expr = Call(expr, tuple(arguments), span=expr.span.merge(close_span))
            else:
                return expr

    def _parse_call_arguments(self) -> List[Expression]:
        arguments: List[Expression] = []
        if not self._check_punct(")"):
            while True:
                arguments.append(self.parse_expression())
                if not self._match_punct(","):
                    break
        self._expect_punct(")", "to close a call")
        return arguments

    def _parse_primary(self) -> Expression:
        token = self._peek()
        if token.kind is TokenKind.INT:
            self._advance()
            return IntLiteral(token.value or 0, token.width, span=token.span)
        if token.is_keyword("true") or token.is_keyword("false"):
            self._advance()
            return BoolLiteral(token.text == "true", span=token.span)
        if token.kind is TokenKind.IDENT:
            self._advance()
            return Var(token.text, span=token.span)
        if token.is_punct("("):
            self._advance()
            inner = self.parse_expression()
            self._expect_punct(")", "to close a parenthesised expression")
            return inner
        if token.is_punct("{"):
            return self._parse_record_literal()
        raise ParserError(f"expected an expression, found {token}", token.span)

    def _parse_record_literal(self) -> RecordLiteral:
        open_brace = self._advance()
        fields: List[Tuple[str, Expression]] = []
        while not self._check_punct("}"):
            name = self._expect_ident("as a record field name")
            self._expect_punct("=", "after a record field name")
            value = self.parse_expression()
            fields.append((name.text, value))
            if not self._match_punct(","):
                break
        close = self._expect_punct("}", "to close a record literal")
        return RecordLiteral(tuple(fields), span=open_brace.span.merge(close.span))


def oracle_parse_expression(source: str, filename: str = "<expr>") -> Expression:
    """What the seed's ``parse_expression`` returned for ``source``."""
    parser = OracleExpressionParser(oracle_tokenize(source, filename))
    expr = parser.parse_expression()
    trailing = parser._peek()
    if trailing.kind is not TokenKind.EOF:
        raise ParserError(f"unexpected trailing token {trailing}", trailing.span)
    return expr
