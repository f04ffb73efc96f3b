"""Parser for component contract files.

Layout::

    component NAME where
      assert { free text, kept verbatim }
      sc { exists x, y . pred(x, y) and pred(y, Const) }
      ic {
        processes   { A, B }
        in_ports    { p: A, q: B }
        out_ports   { r: A }
        in_msgs     { m -> p, n -> q }
        out_msgs    { m -> r }
        external_in { n }
        flows       { m: r -> p }
      }
      bc NAME from "file.lot"      (or: bc none)
    end

Sections may appear in any order, each at most once.  Query predicates
come from the fixed vocabulary; names declared after "exists" are the
variables, everything else is a constant.
"""
from __future__ import annotations

from ..contracts import (
    Atom,
    AscContract,
    BcRef,
    Const,
    InterfaceContract,
    PREDICATES,
    Query,
    Term,
    Var,
)
from .diagnostics import (
    BAD_ARITY,
    DUPLICATE_DEFINITION,
    Diagnostic,
    MALFORMED_IC,
    UNKNOWN_PREDICATE,
    UNKNOWN_QUERY_VARIABLE,
    error,
)
from .lexer import IDENT, TokenStream, parse_or_bail


_IC_SECTIONS = (
    "processes",
    "in_ports",
    "out_ports",
    "in_msgs",
    "out_msgs",
    "external_in",
    "flows",
)


class _AscParser:
    def __init__(self, stream: TokenStream):
        self.ts = stream
        self.diagnostics: list[Diagnostic] = []

    # ------------------------------------------------------------------

    def contract(self) -> AscContract:
        self.ts.expect_kw("component")
        name = self.ts.expect_ident("a contract name")
        self.ts.expect_kw("where")
        parts, _ = self.ts.sections("contract", {
            "assert": self.ts.raw_brace_block,
            "sc": self._sc,
            "ic": self._interface,
            "bc": self._bc,
        })
        return AscContract(name, parts.get("assert"), parts.get("sc"),
                           parts.get("ic"), parts.get("bc"))

    # ------------------------------------------------------------------

    def _sc(self) -> Query:
        self.ts.expect_punct("{")
        sc = self._query()
        self.ts.expect_punct("}")
        return sc

    def _query(self) -> Query:
        variables: list[str] = []
        if self.ts.accept_kw("exists"):
            first = self.ts.i  # variable k is token first + 2k, between commas
            variables = self.ts.expect_idents("a variable name")
            self.ts.expect_punct(".")
        declared = set()
        for k, v in enumerate(variables):
            if v in declared:
                self.diagnostics.append(
                    error(f"variable '{v}' is declared twice", self.ts.span(first + 2 * k), DUPLICATE_DEFINITION)
                )
            declared.add(v)

        atoms = [self._atom(declared)]
        while self.ts.accept_kw("and"):
            atoms.append(self._atom(declared))

        used = {t.name for a in atoms for t in a.args if isinstance(t, Var)}
        for k, v in enumerate(variables):
            if v not in used:
                self.diagnostics.append(
                    error(
                        f"variable '{v}' does not occur in the query",
                        self.ts.span(first + 2 * k),
                        UNKNOWN_QUERY_VARIABLE,
                    )
                )
        return Query(tuple(variables), tuple(atoms))

    def _atom(self, variables: set[str]) -> Atom:
        at = self.ts.i
        pred = self.ts.expect_ident("a predicate name")
        self.ts.expect_punct("(")
        terms: list[Term] = []
        if not self.ts.at_punct(")"):
            terms.append(self._term(variables))
            while self.ts.accept_punct(","):
                terms.append(self._term(variables))
        self.ts.expect_punct(")")

        arity = PREDICATES.get(pred)
        if arity is None:
            self.diagnostics.append(error(f"unknown predicate '{pred}'", self.ts.span(at), UNKNOWN_PREDICATE))
        elif arity != len(terms):
            self.diagnostics.append(
                error(f"'{pred}' takes {arity} argument(s), got {len(terms)}", self.ts.span(at), BAD_ARITY)
            )
        return Atom(pred, tuple(terms))

    def _term(self, variables: set[str]) -> Term:
        name = self.ts.expect_ident("a term")
        return Var(name) if name in variables else Const(name)

    # ------------------------------------------------------------------

    def _interface(self) -> InterfaceContract:
        self.ts.expect_punct("{")
        parts: dict[str, tuple] = {}
        while not self.ts.at_punct("}"):
            section = self.ts.text.lower()
            if self.ts.kind != IDENT or section not in _IC_SECTIONS:
                raise self.ts.expected(f"one of {', '.join(_IC_SECTIONS)}")
            at = self.ts.advance()
            if section in parts:
                self.diagnostics.append(error(f"'{section}' appears twice", self.ts.span(at), MALFORMED_IC))
            self.ts.expect_punct("{")
            if section in ("processes", "external_in"):
                parts[section] = self._name_list()
            elif section in ("in_ports", "out_ports"):
                parts[section] = self._pair_list(":")
            elif section in ("in_msgs", "out_msgs"):
                parts[section] = self._pair_list("->")
            else:
                parts[section] = self._flow_list()
            self.ts.expect_punct("}")
        self.ts.expect_punct("}")
        return InterfaceContract(
            participants=parts.get("processes", ()),
            in_ports=parts.get("in_ports", ()),
            out_ports=parts.get("out_ports", ()),
            in_msgs=parts.get("in_msgs", ()),
            out_msgs=parts.get("out_msgs", ()),
            external_in=parts.get("external_in", ()),
            flows=parts.get("flows", ()),
        )

    def _name_list(self) -> tuple[str, ...]:
        if self.ts.kind != IDENT:
            return ()
        return tuple(self.ts.expect_idents("a name"))

    def _pair_list(self, sep: str) -> tuple[tuple[str, str], ...]:
        pairs: list[tuple[str, str]] = []
        if self.ts.kind == IDENT:
            pairs.append(self._pair(sep))
            while self.ts.accept_punct(","):
                pairs.append(self._pair(sep))
        return tuple(pairs)

    def _pair(self, sep: str) -> tuple[str, str]:
        a = self.ts.expect_ident("a name")
        self.ts.expect_punct(sep)
        b = self.ts.expect_ident("a name")
        return (a, b)

    def _flow_list(self) -> tuple[tuple[str, str, str], ...]:
        flows: list[tuple[str, str, str]] = []
        while self.ts.kind == IDENT:
            msg = self.ts.expect_ident("a message name")
            self.ts.expect_punct(":")
            src = self.ts.expect_ident("an output port")
            self.ts.expect_punct("->")
            dst = self.ts.expect_ident("an input port")
            flows.append((msg, src, dst))
            if not self.ts.accept_punct(","):
                break
        return tuple(flows)

    # ------------------------------------------------------------------

    def _bc(self) -> BcRef | None:
        if self.ts.accept_kw("none"):
            return None
        name = self.ts.expect_ident("a behaviour name")
        self.ts.expect_kw("from")
        return BcRef(name, self.ts.expect_file_name())


def parse_asc(text: str) -> tuple[AscContract | None, list[Diagnostic]]:
    """Parse a contract file.  Returns (contract, diagnostics); the
    contract is None exactly when there is a diagnostic."""
    parser = _AscParser(TokenStream(text))
    return parse_or_bail(parser.contract, parser.diagnostics)
