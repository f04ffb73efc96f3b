"""Canonical pretty-printer.

The printer is the inverse of the parser: for every valid tree,
``parse(pretty(t))`` is structurally identical to ``t``.  Parenthesization
follows the precedence levels of ``ast.OPERATORS``, the parser's table
(tightest to loosest):

    action-prefix ;   >   choice []   >   parallel ||| || |[...]|
    >   disrupt [>    >   enable >>

Binary operators are printed left-associatively; ``hide ... in`` extends
maximally to the right and is therefore parenthesized whenever anything
could follow it.  Gate sets print in sorted order so output is canonical;
a gate set's text is composed once and then looked up.
"""
from __future__ import annotations

import functools

from . import ast

# (node class, or the id of a parallel node's ParKind) -> (level, operator
# token).  ParKind members live as long as the program, so their ids are
# stable, and an int hashes in C where an enum member hashes in Python.
_BINARY = {
    node if kind is None else id(kind): (level, token)
    for token, (level, node, kind) in ast.OPERATORS.items()
}
# How tightly each node binds as an operand.  A hide extends as far right
# as it can, so it is protected under any parent; the other nodes that
# are not binary bind as tightly as the action prefix.
_LEVELS = {node: level for level, node, _ in ast.OPERATORS.values()} | {ast.Hide: -1}


def pretty_value(e: ast.ValueExpr) -> str:
    return e.value if isinstance(e, ast.ValueLit) else e.name


def pretty_offer(o: ast.Offer) -> str:
    if isinstance(o, ast.Send):
        return f"!{pretty_value(o.expr)}"
    return f"?{o.var}: {o.sort}"


def pretty_action(a: ast.ActionExpr) -> str:
    if isinstance(a, ast.InternalAction):
        return "i"
    parts = [a.gate] + [pretty_offer(o) for o in a.offers]
    return " ".join(parts)


# A specification has few gate sets, met again at every node an exploration
# prints, so each one's text is composed once; the cache is bounded, as
# re bounds its pattern cache.
@functools.lru_cache(maxsize=512)
def _gate_set(gates: frozenset[str]) -> str:
    return ", ".join(sorted(gates))


def pretty_behavior(b: ast.Behavior) -> str:
    """The canonical text of b, composed bottom-up without recursion, so
    that a deep tree prints too."""
    text: dict[int, str] = {}
    # in reverse preorder every node comes after all of its descendants
    for node in reversed(list(ast.walk(b))):
        text[id(node)] = pretty_node(node, text)
    return text[id(b)]


def pretty_node(b: ast.Behavior, text: dict[int, str]) -> str:
    """The printed form of one node, composed from its children's printed
    forms: ``text[id(child)]`` must be ``pretty_behavior(child)``.  Lets a
    caller that keeps each subterm's text print a new node without
    walking the subterms again."""
    op = _BINARY.get(id(b.kind) if type(b) is ast.Par else type(b))
    if op is None:
        if isinstance(b, ast.Prefix):
            rest = text[id(b.rest)]
            if _LEVELS.get(type(b.rest), ast.PREFIX_LEVEL) < ast.PREFIX_LEVEL:
                rest = f"({rest})"
            return f"{pretty_action(b.action)}; {rest}"
        if isinstance(b, ast.Hide):
            return f"hide {_gate_set(b.gates)} in {text[id(b.body)]}"
        if isinstance(b, ast.Stop):
            return "stop"
        if isinstance(b, ast.Exit):
            return "exit"
        if isinstance(b, ast.Inst):
            if b.gates:
                return f"{b.process} [{', '.join(b.gates)}]"
            return b.process
        raise TypeError(f"unknown behaviour node {b!r}")

    level, token = op
    if type(b) is ast.Par and b.kind is ast.ParKind.GATES:
        token = f"{token}{_gate_set(b.gates)}]|"
    left, right = text[id(b.left)], text[id(b.right)]
    if _LEVELS.get(type(b.left), ast.PREFIX_LEVEL) < level:
        left = f"({left})"
    if _LEVELS.get(type(b.right), ast.PREFIX_LEVEL) <= level:
        right = f"({right})"
    return f"{left} {token} {right}"


def pretty_spec(spec: ast.Specification) -> str:
    lines: list[str] = []
    gates = ", ".join(spec.top_gates)
    lines.append(f"specification {spec.name} [{gates}] : noexit :=")
    if spec.sorts:
        lines.append("  sorts")
        for s in spec.sorts:
            lines.append(f"    {s.name} = {{ {', '.join(s.values)} }}")
    lines.append("  behaviour")
    lines.append(f"    {pretty_behavior(spec.top_behavior)}")
    if spec.processes:
        lines.append("  where")
        for p in spec.processes:
            formals = ", ".join(p.formal_gates)
            lines.append(f"    process {p.name} [{formals}] : {p.functionality} :=")
            lines.append(f"      {pretty_behavior(p.body)}")
            lines.append("    endproc")
    lines.append("endspec")
    return "\n".join(lines) + "\n"
