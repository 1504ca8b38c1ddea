"""Front end for the annotated P4 dialect.

The dialect is the concrete syntax for the Core P4 fragment of Figure 1,
extended with security annotations ``<type, label>`` on any type position
and an optional ``@pc(label)`` annotation on control blocks (used by the
isolation case study of Section 5.4).
"""

from repro.frontend.errors import FrontendError, LexerError, ParserError
from repro.frontend.lexer import Token, TokenKind, tokenize
from repro.frontend.parser import Parser, parse_program, parse_expression

__all__ = [
    "FrontendError",
    "LexerError",
    "ParserError",
    "Token",
    "TokenKind",
    "tokenize",
    "Parser",
    "parse_program",
    "parse_expression",
]
