"""Text formats: behaviour specifications plus the contract and
architecture description files that reference them.

The contract (.asc) and architecture (.adl) parsers live in the asc and
adlparse submodules; importing them here would create an import cycle
with the modules that define their target types.
"""
from . import ast
from .diagnostics import Diagnostic, Span, error
from .lexer import locate
from .parser import parse_behavior, parse_spec
from .printer import pretty_behavior, pretty_spec
from .validator import validate_spec

__all__ = [
    "Diagnostic",
    "Span",
    "ast",
    "error",
    "locate",
    "parse_behavior",
    "parse_spec",
    "pretty_behavior",
    "pretty_spec",
    "validate_spec",
]
