"""Diagnostics shared by all parsers and the static validator.

A diagnostic never raises; parsers and validators collect them and hand
the list back to the caller.  Every diagnostic carries a source span
(1-based line/column, end exclusive) and a stable machine-readable code
so tests and tools can match on it without parsing message text.

A violation is what a rule check over a well-formed input finds (a
contract's interface, a configuration): a code and a message, no span.
"""
from __future__ import annotations

from typing import NamedTuple

from ..record import Record

# Stable diagnostic codes.  Keep these in sync with README.md.
LEX_ERROR = "lex-error"
SYNTAX_ERROR = "syntax-error"
DUPLICATE_DEFINITION = "duplicate-definition"
UNKNOWN_PROCESS = "unknown-process"
UNKNOWN_SORT = "unknown-sort"
UNKNOWN_GATE = "unknown-gate"
GATE_ARITY_MISMATCH = "gate-arity-mismatch"
UNBOUND_VARIABLE = "unbound-variable"
SHADOWS_VALUE = "shadows-value"
LIBRARY_NOT_SUPPORTED = "library-not-supported"
INTERNAL_ACTION_OFFERS = "internal-action-offers"
RESERVED_NAME = "reserved-name"
UNKNOWN_PREDICATE = "unknown-predicate"
BAD_ARITY = "bad-arity"
MALFORMED_IC = "malformed-ic"
UNKNOWN_QUERY_VARIABLE = "unknown-query-variable"


class Span(NamedTuple):
    """Half-open source span; columns count characters, tabs included.
    Only a diagnostic, or a caller of lexer.locate, has one: a syntax
    node keeps just its token's index."""

    line: int
    col: int
    end_line: int
    end_col: int

    @classmethod
    def point(cls, line: int, col: int) -> "Span":
        return cls(line, col, line, col + 1)

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


class Diagnostic(Record):
    """An error found in an input text; every reader and check reports
    errors only, so a reader's value is None exactly when it reports any."""

    __slots__ = ("span", "message", "code")
    span: Span
    message: str
    code: str

    def __str__(self) -> str:
        return f"{self.span}: error[{self.code}]: {self.message}"


def error(message: str, span: Span | None, code: str) -> Diagnostic:
    return Diagnostic(span or Span.point(1, 1), message, code)


class Violation(Record):
    """A rule a contract's interface or a configuration breaks."""

    __slots__ = ("code", "message")
    code: str
    message: str

    def __str__(self) -> str:
        return f"[{self.code}] {self.message}"
