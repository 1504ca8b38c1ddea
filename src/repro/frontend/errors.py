"""Front-end error types, all carrying a source span."""

from __future__ import annotations

from repro.syntax.source import SourceSpan


class FrontendError(Exception):
    """Base class for lexing and parsing failures, located for good."""

    def __init__(self, message: str, span: SourceSpan | None = None) -> None:
        self.span = SourceSpan(span.start, span.end, span.filename) if span else SourceSpan.unknown()
        super().__init__(f"{self.span}: {message}")
        self.message = message


class LexerError(FrontendError):
    """An unrecognised character or malformed literal."""


class ParserError(FrontendError):
    """The token stream does not form a well-formed program."""
