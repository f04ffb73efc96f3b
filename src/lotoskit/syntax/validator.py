"""Static checks that run after parsing.

The parser only enforces shape; everything name-related lives here:
declaration uniqueness, gate scoping, process instantiation arity,
variable binding, and the reserved names: "i" everywhere, and "exit" as
a gate name.  Transition labels are text whose first word is the gate,
"i" or "exit", so a gate with either name would read as the internal
action or as successful termination.

The checks pass nodes around and record a diagnostic with its node's
token index and the text of the definition that holds it; the locations
are worked out at the end, in one pass over each text.  A node built in
code, or one whose definition keeps no text, is reported at 1:1.  Each
diagnostic keeps that text, so a caller can name the file it is in.
"""
from __future__ import annotations

from . import ast
from .diagnostics import (
    DUPLICATE_DEFINITION,
    Diagnostic,
    GATE_ARITY_MISMATCH,
    INTERNAL_ACTION_OFFERS,
    RESERVED_NAME,
    SHADOWS_VALUE,
    UNBOUND_VARIABLE,
    UNKNOWN_GATE,
    UNKNOWN_PROCESS,
    UNKNOWN_SORT,
    error,
)
from .lexer import locate_all


_RESERVED = {
    "i": "'i' is reserved for the internal action",
    "exit": "'exit' is reserved for successful termination",
}


def validate_spec(spec: ast.Specification) -> list[Diagnostic]:
    return _Validator(spec).run()


class _Validator:
    def __init__(self, spec: ast.Specification):
        self.spec = spec
        # (message, token index, the text it indexes into, code) per diagnostic
        self.found: list[tuple[str, int | None, str | None, str]] = []
        self.values = spec.value_sorts()
        # the text the token indices of the definition being checked index into
        self.source: str | None = None

    def _err(self, message: str, node: ast.Node, code: str) -> None:
        self.found.append((message, node.loc, self.source, code))

    def _reserved(self, name: str, node: ast.Node, gate: bool = False) -> bool:
        """Report name if it is reserved: "i" always, "exit" as a gate."""
        if name == "i" or (gate and name == "exit"):
            self._err(_RESERVED[name], node, RESERVED_NAME)
            return True
        return False

    # ------------------------------------------------------------------

    def run(self) -> list[Diagnostic]:
        self._check_declarations()
        self.source = self.spec._source
        self._check_behavior(self.spec.top_behavior, frozenset(self.spec.top_gates), {})
        for p in self.spec.processes:
            self.source = p._source
            self._check_behavior(p.body, frozenset(p.formal_gates), {})

        indices: dict[str, list[int]] = {}
        for _, loc, source, _ in self.found:
            if loc is not None and source is not None:
                indices.setdefault(source, []).append(loc)
        spans = {source: locate_all(source, locs) for source, locs in indices.items()}
        return [error(message, spans.get(source, {}).get(loc), code, source)
                for message, loc, source, code in self.found]

    def _check_declarations(self) -> None:
        spec = self.spec

        seen_sorts: set[str] = set()
        seen_values: set[str] = set()
        for s in spec.sorts:
            self.source = s._source
            self._reserved(s.name, s)
            if s.name in seen_sorts:
                self._err(f"sort '{s.name}' is declared twice", s, DUPLICATE_DEFINITION)
            seen_sorts.add(s.name)
            for v in s.values:
                self._reserved(v, s)
                # values are globally unique so "!v" resolves without a sort annotation
                if v in seen_values:
                    self._err(f"value '{v}' is declared twice", s, DUPLICATE_DEFINITION)
                seen_values.add(v)

        self.source = spec._source
        self._check_gate_decls(spec.top_gates, spec)

        seen_procs: set[str] = set()
        for p in spec.processes:
            self.source = p._source
            self._reserved(p.name, p)
            if p.name in seen_procs:
                self._err(f"process '{p.name}' is defined twice", p, DUPLICATE_DEFINITION)
            seen_procs.add(p.name)
            self._check_gate_decls(p.formal_gates, p)

    def _check_gate_decls(self, gates: tuple[str, ...], node: ast.Node) -> None:
        seen: set[str] = set()
        for g in gates:
            self._reserved(g, node, gate=True)
            if g in seen:
                self._err(f"gate '{g}' is listed twice", node, DUPLICATE_DEFINITION)
            seen.add(g)

    # ------------------------------------------------------------------

    def _check_behavior(self, top: ast.Behavior, gates: frozenset[str], vars_: dict[str, str]) -> None:
        # an explicit stack, so a long prefix chain needs no recursion;
        # pushing the right operand first keeps the pre-order, and with it
        # the order of the diagnostics
        stack = [(top, gates, vars_)]
        while stack:
            b, gates, vars_ = stack.pop()
            if isinstance(b, ast.Prefix):
                stack.append((b.rest, gates, self._check_action(b.action, gates, vars_)))
            elif isinstance(b, (ast.Choice, ast.Seq, ast.Disrupt, ast.Par)):
                if isinstance(b, ast.Par):
                    self._check_gate_uses(sorted(b.gates), gates, b)
                stack.append((b.right, gates, vars_))
                stack.append((b.left, gates, vars_))
            elif isinstance(b, ast.Hide):
                for g in sorted(b.gates):
                    self._reserved(g, b, gate=True)
                stack.append((b.body, gates | b.gates, vars_))
            elif isinstance(b, ast.Inst):
                target = self.spec.process(b.process)
                if target is None:
                    self._err(f"process '{b.process}' is not defined", b, UNKNOWN_PROCESS)
                elif len(b.gates) != len(target.formal_gates):
                    self._err(
                        f"process '{b.process}' takes {len(target.formal_gates)} gate(s), got {len(b.gates)}",
                        b,
                        GATE_ARITY_MISMATCH,
                    )
                self._check_gate_uses(b.gates, gates, b)
            elif not isinstance(b, (ast.Stop, ast.Exit)):
                raise TypeError(f"unknown behaviour node {b!r}")

    def _check_gate_uses(self, used, gates: frozenset[str], node: ast.Node) -> None:
        for g in used:
            if not self._reserved(g, node, gate=True) and g not in gates:
                self._err(f"gate '{g}' is not in scope", node, UNKNOWN_GATE)

    def _check_action(
        self, a: ast.ActionExpr, gates: frozenset[str], vars_: dict[str, str]
    ) -> dict[str, str]:
        if isinstance(a, ast.InternalAction):
            return vars_

        if a.gate == "i":
            self._err("the internal action cannot carry offers", a, INTERNAL_ACTION_OFFERS)
            return vars_
        if a.gate not in gates:
            self._err(f"gate '{a.gate}' is not in scope", a, UNKNOWN_GATE)

        out = vars_
        for offer in a.offers:
            if isinstance(offer, ast.Send):
                e = offer.expr
                if isinstance(e, ast.VarRef) and e.name not in out:
                    self._err(f"variable '{e.name}' is not bound", e, UNBOUND_VARIABLE)
            else:
                if self.spec.sort(offer.sort) is None:
                    self._err(f"sort '{offer.sort}' is not declared", offer, UNKNOWN_SORT)
                if not self._reserved(offer.var, offer) and offer.var in self.values:
                    self._err(f"variable '{offer.var}' shadows a declared value", offer, SHADOWS_VALUE)
                if out is vars_:
                    out = dict(vars_)
                out[offer.var] = offer.sort
        return out
