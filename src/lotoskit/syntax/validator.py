"""Static checks that run after parsing.

The parser only enforces shape; everything name-related lives here:
declaration uniqueness, gate scoping, process instantiation arity,
variable binding, and the reserved names: "i" everywhere, and "exit" as
a gate name.  Transition labels are text whose first word is the gate,
"i" or "exit", so a gate with either name would read as the internal
action or as successful termination.
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


_RESERVED = {
    "i": "'i' is reserved for the internal action",
    "exit": "'exit' is reserved for successful termination",
}


def validate_spec(spec: ast.Specification) -> list[Diagnostic]:
    return _Validator(spec).run()


class _Validator:
    def __init__(self, spec: ast.Specification):
        self.spec = spec
        self.out: list[Diagnostic] = []
        self.values = spec.value_sorts()

    def _err(self, message: str, loc, code: str) -> None:
        self.out.append(error(message, loc, code))

    def _reserved(self, name: str, loc, gate: bool = False) -> bool:
        """Report name if it is reserved: "i" always, "exit" as a gate."""
        if name == "i" or (gate and name == "exit"):
            self._err(_RESERVED[name], loc, RESERVED_NAME)
            return True
        return False

    # ------------------------------------------------------------------

    def run(self) -> list[Diagnostic]:
        self._check_declarations()
        self._check_behavior(self.spec.top_behavior, frozenset(self.spec.top_gates), {})
        for p in self.spec.processes:
            self._check_behavior(p.body, frozenset(p.formal_gates), {})
        return self.out

    def _check_declarations(self) -> None:
        spec = self.spec

        seen_sorts: set[str] = set()
        seen_values: set[str] = set()
        for s in spec.sorts:
            self._reserved(s.name, s.loc)
            if s.name in seen_sorts:
                self._err(f"sort '{s.name}' is declared twice", s.loc, DUPLICATE_DEFINITION)
            seen_sorts.add(s.name)
            for v in s.values:
                self._reserved(v, s.loc)
                # values are globally unique so "!v" resolves without a sort annotation
                if v in seen_values:
                    self._err(f"value '{v}' is declared twice", s.loc, DUPLICATE_DEFINITION)
                seen_values.add(v)

        self._check_gate_decls(spec.top_gates, spec.loc)

        seen_procs: set[str] = set()
        for p in spec.processes:
            self._reserved(p.name, p.loc)
            if p.name in seen_procs:
                self._err(f"process '{p.name}' is defined twice", p.loc, DUPLICATE_DEFINITION)
            seen_procs.add(p.name)
            self._check_gate_decls(p.formal_gates, p.loc)

    def _check_gate_decls(self, gates: tuple[str, ...], loc) -> None:
        seen: set[str] = set()
        for g in gates:
            self._reserved(g, loc, gate=True)
            if g in seen:
                self._err(f"gate '{g}' is listed twice", loc, DUPLICATE_DEFINITION)
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
                    self._check_gate_uses(sorted(b.gates), gates, b.loc)
                stack.append((b.right, gates, vars_))
                stack.append((b.left, gates, vars_))
            elif isinstance(b, ast.Hide):
                for g in sorted(b.gates):
                    self._reserved(g, b.loc, gate=True)
                stack.append((b.body, gates | b.gates, vars_))
            elif isinstance(b, ast.Inst):
                target = self.spec.process(b.process)
                if target is None:
                    self._err(f"process '{b.process}' is not defined", b.loc, UNKNOWN_PROCESS)
                elif len(b.gates) != len(target.formal_gates):
                    self._err(
                        f"process '{b.process}' takes {len(target.formal_gates)} gate(s), got {len(b.gates)}",
                        b.loc,
                        GATE_ARITY_MISMATCH,
                    )
                self._check_gate_uses(b.gates, gates, b.loc)
            elif not isinstance(b, (ast.Stop, ast.Exit)):
                raise TypeError(f"unknown behaviour node {b!r}")

    def _check_gate_uses(self, used, gates: frozenset[str], loc) -> None:
        for g in used:
            if not self._reserved(g, loc, gate=True) and g not in gates:
                self._err(f"gate '{g}' is not in scope", loc, UNKNOWN_GATE)

    def _check_action(
        self, a: ast.ActionExpr, gates: frozenset[str], vars_: dict[str, str]
    ) -> dict[str, str]:
        if isinstance(a, ast.InternalAction):
            return vars_

        if a.gate == "i":
            self._err("the internal action cannot carry offers", a.loc, INTERNAL_ACTION_OFFERS)
            return vars_
        if a.gate not in gates:
            self._err(f"gate '{a.gate}' is not in scope", a.loc, UNKNOWN_GATE)

        out = vars_
        for offer in a.offers:
            if isinstance(offer, ast.Send):
                e = offer.expr
                if isinstance(e, ast.VarRef) and e.name not in out:
                    self._err(f"variable '{e.name}' is not bound", e.loc, UNBOUND_VARIABLE)
            else:
                if self.spec.sort(offer.sort) is None:
                    self._err(f"sort '{offer.sort}' is not declared", offer.loc, UNKNOWN_SORT)
                if not self._reserved(offer.var, offer.loc) and offer.var in self.values:
                    self._err(
                        f"variable '{offer.var}' shadows a declared value", offer.loc, SHADOWS_VALUE
                    )
                if out is vars_:
                    out = dict(vars_)
                out[offer.var] = offer.sort
        return out
