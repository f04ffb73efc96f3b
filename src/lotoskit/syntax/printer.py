"""Canonical pretty-printer.

The printer is the inverse of the parser: for every valid tree,
``parse(pretty(t))`` is structurally identical to ``t``.  Parenthesization
follows the documented precedence (tightest to loosest):

    action-prefix ;   >   choice []   >   parallel ||| || |[...]|
    >   disrupt [>    >   enable >>

Binary operators are printed left-associatively; ``hide ... in`` extends
maximally to the right and is therefore parenthesized whenever anything
could follow it.  Gate sets print in sorted order so output is canonical.
"""
from __future__ import annotations

from . import ast

_LEVEL_SEQ = 0
_LEVEL_DISRUPT = 1
_LEVEL_PAR = 2
_LEVEL_CHOICE = 3
_LEVEL_PREFIX = 4
_LEVEL_ATOM = 5


def _level(b: ast.Behavior) -> int:
    if isinstance(b, ast.Seq):
        return _LEVEL_SEQ
    if isinstance(b, ast.Disrupt):
        return _LEVEL_DISRUPT
    if isinstance(b, ast.Par):
        return _LEVEL_PAR
    if isinstance(b, ast.Choice):
        return _LEVEL_CHOICE
    if isinstance(b, ast.Prefix):
        return _LEVEL_PREFIX
    return _LEVEL_ATOM  # Stop, Exit, Inst, Hide (hide handled separately)


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


def _gate_set(gates: frozenset[str]) -> str:
    return ", ".join(sorted(gates))


def _par_op(b: ast.Par) -> str:
    if b.kind is ast.ParKind.INTERLEAVE:
        return "|||"
    if b.kind is ast.ParKind.FULL:
        return "||"
    return f"|[{_gate_set(b.gates)}]|"


def pretty_behavior(b: ast.Behavior) -> str:
    return pretty_node(b, pretty_behavior)


def pretty_node(b: ast.Behavior, text_of) -> str:
    """The printed form of one node, composed from its children's printed
    forms: ``text_of(child)`` must return ``pretty_behavior(child)``.
    Lets a caller that caches each subterm's text print a new node without
    walking the subterms again."""
    if isinstance(b, ast.Hide):
        return f"hide {_gate_set(b.gates)} in {text_of(b.body)}"
    if isinstance(b, ast.Stop):
        return "stop"
    if isinstance(b, ast.Exit):
        return "exit"
    if isinstance(b, ast.Inst):
        if b.gates:
            return f"{b.process} [{', '.join(b.gates)}]"
        return b.process
    if isinstance(b, ast.Prefix):
        rest = _operand(b.rest, text_of, _level(b.rest) < _LEVEL_PREFIX)
        return f"{pretty_action(b.action)}; {rest}"

    if isinstance(b, ast.Choice):
        op, level = "[]", _LEVEL_CHOICE
    elif isinstance(b, ast.Par):
        op, level = _par_op(b), _LEVEL_PAR
    elif isinstance(b, ast.Disrupt):
        op, level = "[>", _LEVEL_DISRUPT
    elif isinstance(b, ast.Seq):
        op, level = ">>", _LEVEL_SEQ
    else:
        raise TypeError(f"unknown behaviour node {b!r}")

    left = _operand(b.left, text_of, _level(b.left) < level)
    right = _operand(b.right, text_of, _level(b.right) <= level)
    return f"{left} {op} {right}"


def _operand(b: ast.Behavior, text_of, looser: bool) -> str:
    # hide grabs everything to its right, so it is protected under any
    # parent; other operands only when they bind looser than the parent
    text = text_of(b)
    return f"({text})" if looser or isinstance(b, ast.Hide) else text


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
