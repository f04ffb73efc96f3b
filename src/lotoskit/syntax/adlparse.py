"""Parser for architecture configuration files.

Layout::

    configuration NAME
      use "client_server.lot"
      components  { client = Client [invClt, terClt],
                    server = Server [invSrv, terSrv] }
      connectors  { conn = Connector [invClt, terClt, invSrv, terSrv] }
      composition { ( client ||| server ) |[invClt, terClt, invSrv, terSrv]| conn }
    end

"use" may repeat; the other sections appear at most once.  The
composition is an ordinary behaviour expression whose instantiations
name the declared instances (bare, since each instance already carries
its gates).
"""
from __future__ import annotations

from ..adl import COMPONENT, CONNECTOR, ArchConfig, ArchElement
from . import ast
from .diagnostics import Diagnostic
from .lexer import IDENT, ParseFailure, TokenStream, parse_or_bail
from .parser import _Parser


class _AdlParser:
    def __init__(self, stream: TokenStream):
        self.ts = stream

    # ------------------------------------------------------------------

    def configuration(self) -> ArchConfig:
        self.ts.expect_kw("configuration")
        name = self.ts.expect_ident("a configuration name")
        uses: list[str] = []
        elements: list[ArchElement] = []
        parts, end = self.ts.sections("configuration", {
            "use": lambda: uses.append(self.ts.expect_file_name()),
            "components": lambda: elements.extend(self._bindings(COMPONENT)),
            "connectors": lambda: elements.extend(self._bindings(CONNECTOR)),
            "composition": self._composition,
        }, repeatable=frozenset({"use"}))
        if "composition" not in parts:
            raise ParseFailure(self.ts.span(end), "configuration has no composition section")
        return ArchConfig(name, tuple(uses), tuple(elements), parts["composition"],
                          self.ts.source)

    def _composition(self) -> ast.Behavior:
        self.ts.expect_punct("{")
        composition = _Parser(self.ts).behaviour()
        self.ts.expect_punct("}")
        return composition

    def _bindings(self, role: str) -> list[ArchElement]:
        self.ts.expect_punct("{")
        out: list[ArchElement] = []
        while self.ts.kind == IDENT:
            name = self.ts.expect_ident("an instance name")
            self.ts.expect_punct("=")
            process = self.ts.expect_ident("a process name")
            gates: tuple[str, ...] = ()
            if self.ts.accept_punct("["):
                gates = tuple(self.ts.expect_idents("a gate name"))
                self.ts.expect_punct("]")
            out.append(ArchElement(name, role, process, gates))
            if not self.ts.accept_punct(","):
                break
        self.ts.expect_punct("}")
        return out


def parse_adl(text: str) -> tuple[ArchConfig | None, list[Diagnostic]]:
    """Parse a configuration file.  Returns (config, diagnostics); the
    config is None exactly when there is a diagnostic."""
    return parse_or_bail(_AdlParser(TokenStream(text)).configuration, [])
