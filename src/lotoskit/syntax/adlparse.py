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
from .diagnostics import Diagnostic, error, has_errors
from .lexer import EOF, IDENT, STRING, ParseFailure, TokenStream
from .parser import _Parser


class _AdlParser:
    def __init__(self, stream: TokenStream):
        self.ts = stream
        self.diags: list[Diagnostic] = []

    # ------------------------------------------------------------------

    def configuration(self) -> ArchConfig:
        self.ts.expect_kw("configuration")
        name = self.ts.expect_ident("a configuration name")

        uses: list[str] = []
        elements: list[ArchElement] = []
        composition = None
        seen: set[str] = set()

        while not self.ts.at_kw("end"):
            tok = self.ts.peek()
            if tok.kind == EOF:
                raise ParseFailure(tok.span, "missing 'end'")
            part = tok.text.lower()
            if part != "use" and part in seen:
                raise ParseFailure(tok.span, f"section '{part}' appears twice")

            if self.ts.accept_kw("use"):
                path = self.ts.peek()
                if path.kind != STRING:
                    raise ParseFailure(path.span, f"expected a quoted file name, found '{path.text}'")
                self.ts.next()
                uses.append(path.text)
            elif self.ts.accept_kw("components"):
                elements.extend(self._bindings(COMPONENT))
            elif self.ts.accept_kw("connectors"):
                elements.extend(self._bindings(CONNECTOR))
            elif self.ts.accept_kw("composition"):
                self.ts.expect_punct("{")
                inner = _Parser(self.ts)
                composition = inner.behaviour()
                self.diags.extend(inner.diagnostics)
                self.ts.expect_punct("}")
            else:
                raise ParseFailure(tok.span, f"expected a configuration section, found '{tok.text}'")
            seen.add(part)

        end_tok = self.ts.expect_kw("end")
        tail = self.ts.peek()
        if tail.kind != EOF:
            raise ParseFailure(tail.span, f"unexpected '{tail.text}' after end")
        if composition is None:
            raise ParseFailure(end_tok.span, "configuration has no composition section")
        return ArchConfig(
            name=name.text,
            uses=tuple(uses),
            elements=tuple(elements),
            composition=composition,
        )

    def _bindings(self, role: str) -> list[ArchElement]:
        self.ts.expect_punct("{")
        out: list[ArchElement] = []
        while self.ts.peek().kind == IDENT:
            name = self.ts.next()
            self.ts.expect_punct("=")
            process = self.ts.expect_ident("a process name")
            gates: tuple[str, ...] = ()
            if self.ts.accept_punct("["):
                gates = tuple(self.ts.expect_idents("a gate name"))
                self.ts.expect_punct("]")
            out.append(ArchElement(name.text, role, process.text, gates))
            if not self.ts.accept_punct(","):
                break
        self.ts.expect_punct("}")
        return out


def parse_adl(text: str, filename: str = "<configuration>") -> tuple[ArchConfig | None, list[Diagnostic]]:
    """Parse a configuration file.  Returns (config, diagnostics); the
    config is None whenever an error is reported."""
    try:
        parser = _AdlParser(TokenStream(text))
        config = parser.configuration()
        if has_errors(parser.diags):
            return None, parser.diags
        return config, parser.diags
    except ParseFailure as exc:
        return None, [error(exc.message, exc.span, exc.code)]
