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

Sections may appear in any order, each at most once.  Every ic list
is read by one rule, ``TokenStream.items``: entries separated by
commas, possibly none, and no trailing comma.  Query predicates
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
)
from .lexer import TokenStream, parse_or_bail


# each ic section, in the order of InterfaceContract's fields -> the
# shape of its entries: what each name names, as a diagnostic says it,
# and the token after the name ("" after the last)
_NAME = (("a name", ""),)
_PORT = (("a name", ":"), ("a name", ""))
_MESSAGE = (("a name", "->"), ("a name", ""))
_IC_SECTIONS = {
    "processes": _NAME,
    "in_ports": _PORT,
    "out_ports": _PORT,
    "in_msgs": _MESSAGE,
    "out_msgs": _MESSAGE,
    "external_in": _NAME,
    "flows": (("a message name", ":"), ("an output port", "->"), ("an input port", "")),
}


class _AscParser:
    def __init__(self, stream: TokenStream):
        self.ts = stream
        # (message, token index, code) per diagnostic, located after the parse
        self.found: list[tuple[str, int, str]] = []

    # ------------------------------------------------------------------

    def contract(self) -> AscContract:
        self.ts.expect("component")
        name = self.ts.expect_ident("a contract name")
        self.ts.expect("where")
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
        self.ts.expect("{")
        sc = self._query()
        self.ts.expect("}")
        return sc

    def _query(self) -> Query:
        variables: list[str] = []
        if self.ts.accept("exists"):
            first = self.ts.i  # variable k is token first + 2k, between commas
            variables = self.ts.expect_idents("a variable name")
            self.ts.expect(".")
        declared = set()
        for k, v in enumerate(variables):
            if v in declared:
                self.found.append((f"variable '{v}' is declared twice", first + 2 * k, DUPLICATE_DEFINITION))
            declared.add(v)

        atoms = [self._atom(declared)]
        while self.ts.accept("and"):
            atoms.append(self._atom(declared))

        used = {t.name for a in atoms for t in a.args if isinstance(t, Var)}
        for k, v in enumerate(variables):
            if v not in used:
                self.found.append(
                    (f"variable '{v}' does not occur in the query", first + 2 * k, UNKNOWN_QUERY_VARIABLE)
                )
        return Query(tuple(variables), tuple(atoms))

    def _atom(self, variables: set[str]) -> Atom:
        at = self.ts.i
        pred = self.ts.expect_ident("a predicate name")
        self.ts.expect("(")
        terms: list[Term] = []
        if not self.ts.at(")"):
            terms.append(self._term(variables))
            while self.ts.accept(","):
                terms.append(self._term(variables))
        self.ts.expect(")")

        arity = PREDICATES.get(pred)
        if arity is None:
            self.found.append((f"unknown predicate '{pred}'", at, UNKNOWN_PREDICATE))
        elif arity != len(terms):
            self.found.append((f"'{pred}' takes {arity} argument(s), got {len(terms)}", at, BAD_ARITY))
        return Atom(pred, tuple(terms))

    def _term(self, variables: set[str]) -> Term:
        name = self.ts.expect_ident("a term")
        return Var(name) if name in variables else Const(name)

    # ------------------------------------------------------------------

    def _interface(self) -> InterfaceContract:
        self.ts.expect("{")
        parts: dict[str, tuple] = {}
        while not self.ts.at("}"):
            section = self.ts.text.lower()
            if section not in _IC_SECTIONS:
                raise self.ts.expected(f"one of {', '.join(_IC_SECTIONS)}")
            at = self.ts.advance()
            if section in parts:
                self.found.append((f"'{section}' appears twice", at, MALFORMED_IC))
            self.ts.expect("{")
            shape = _IC_SECTIONS[section]
            parts[section] = tuple(self.ts.items(lambda: self._entry(shape)))
            self.ts.expect("}")
        self.ts.expect("}")
        return InterfaceContract(*(parts.get(section, ()) for section in _IC_SECTIONS))

    def _entry(self, shape: tuple[tuple[str, str], ...]) -> str | tuple[str, ...]:
        """One entry of an ic list: a bare name, or a tuple of names."""
        names = []
        for what, after in shape:
            names.append(self.ts.expect_ident(what))
            if after:
                self.ts.expect(after)
        return tuple(names) if len(names) > 1 else names[0]

    # ------------------------------------------------------------------

    def _bc(self) -> BcRef | None:
        if self.ts.accept("none"):
            return None
        name = self.ts.expect_ident("a behaviour name")
        self.ts.expect("from")
        return BcRef(name, self.ts.expect_file_name())


def parse_asc(text: str) -> tuple[AscContract | None, list[Diagnostic]]:
    """Parse a contract file.  Returns (contract, diagnostics); the
    contract is None exactly when there is a diagnostic."""
    parser = _AscParser(TokenStream(text))
    return parse_or_bail(parser.contract, parser.ts, parser.found)
