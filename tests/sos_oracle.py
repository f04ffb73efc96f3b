"""Reference stepper used to cross-check the exploration engine.

Deliberately written the slow, obvious way: labels are plain strings,
offers expand by list accumulation, substitution handles one name at a
time, and states are keyed by their printed form.  Nothing is shared
with lotoskit.semantics beyond the tree types and the printer.

Gate substitution here is naive (no capture avoidance).  That is sound
for everything the tests feed this module: terms without process
instantiation, and corpus files where no hidden gate name collides with
an actual gate.  The engine's capture handling is tested separately.
"""
from __future__ import annotations

from lotoskit.syntax import ast
from lotoskit.syntax.printer import pretty_behavior


def subst_gate(b: ast.Behavior, old: str, new: str) -> ast.Behavior:
    if old == new:
        return b
    if isinstance(b, (ast.Stop, ast.Exit)):
        return b
    if isinstance(b, ast.Prefix):
        action = b.action
        if isinstance(action, ast.Comm) and action.gate == old:
            action = ast.Comm(new, action.offers)
        return ast.Prefix(action, subst_gate(b.rest, old, new))
    if isinstance(b, ast.Choice):
        return ast.Choice(subst_gate(b.left, old, new), subst_gate(b.right, old, new))
    if isinstance(b, ast.Seq):
        return ast.Seq(subst_gate(b.left, old, new), subst_gate(b.right, old, new))
    if isinstance(b, ast.Disrupt):
        return ast.Disrupt(subst_gate(b.left, old, new), subst_gate(b.right, old, new))
    if isinstance(b, ast.Par):
        gates = frozenset(new if g == old else g for g in b.gates)
        return ast.Par(subst_gate(b.left, old, new), b.kind, gates, subst_gate(b.right, old, new))
    if isinstance(b, ast.Hide):
        if old in b.gates:
            return b  # bound here, the free name does not reach inside
        return ast.Hide(b.gates, subst_gate(b.body, old, new))
    if isinstance(b, ast.Inst):
        return ast.Inst(b.process, tuple(new if g == old else g for g in b.gates))
    raise TypeError(b)


def subst_val(b: ast.Behavior, name: str, value: ast.ValueLit) -> ast.Behavior:
    if isinstance(b, (ast.Stop, ast.Exit, ast.Inst)):
        return b
    if isinstance(b, ast.Prefix):
        action = b.action
        rebound = False
        if isinstance(action, ast.Comm):
            offers = []
            for o in action.offers:
                if isinstance(o, ast.Send):
                    # a receive of name earlier in the action binds it
                    e = o.expr
                    if isinstance(e, ast.VarRef) and e.name == name and not rebound:
                        o = ast.Send(value)
                    offers.append(o)
                else:
                    if o.var == name:
                        rebound = True
                    offers.append(o)
            action = ast.Comm(action.gate, tuple(offers))
        rest = b.rest if rebound else subst_val(b.rest, name, value)
        return ast.Prefix(action, rest)
    if isinstance(b, ast.Choice):
        return ast.Choice(subst_val(b.left, name, value), subst_val(b.right, name, value))
    if isinstance(b, ast.Seq):
        return ast.Seq(subst_val(b.left, name, value), subst_val(b.right, name, value))
    if isinstance(b, ast.Disrupt):
        return ast.Disrupt(subst_val(b.left, name, value), subst_val(b.right, name, value))
    if isinstance(b, ast.Par):
        return ast.Par(subst_val(b.left, name, value), b.kind, b.gates, subst_val(b.right, name, value))
    if isinstance(b, ast.Hide):
        return ast.Hide(b.gates, subst_val(b.body, name, value))
    raise TypeError(b)


def _offer_choices(offers, sorts):
    """Every way of filling the offers: (ground values, receive bindings).
    Offers bind left to right, so a send may mention an earlier receive."""
    results: list[tuple[list[str], dict[str, ast.ValueLit]]] = [([], {})]
    for o in offers:
        grown = []
        if isinstance(o, ast.Send):
            for values, binds in results:
                e = o.expr
                if isinstance(e, ast.VarRef):
                    if e.name not in binds:
                        raise RuntimeError(f"unbound '{e.name}'")
                    v = binds[e.name].value
                else:
                    v = e.value
                grown.append((values + [v], binds))
        else:
            for v in sorts[o.sort].values:
                for values, binds in results:
                    binds = dict(binds)
                    binds[o.var] = ast.ValueLit(v, o.sort)
                    grown.append((values + [v], binds))
        results = grown
    return results


def steps(b, procs, sorts, fuel=300):
    """All (label, successor) pairs, labels as rendered text."""
    if isinstance(b, ast.Inst):
        if fuel <= 0:
            raise RuntimeError(f"'{b.process}' never reaches an action")
        pdef = procs[b.process]
        body = pdef.body
        # two phases so swapped gate lists do not collide
        for idx, formal in enumerate(pdef.formal_gates):
            body = subst_gate(body, formal, f"\0{idx}")
        for idx, actual in enumerate(b.gates):
            body = subst_gate(body, f"\0{idx}", actual)
        return steps(body, procs, sorts, fuel - 1)

    if isinstance(b, ast.Stop):
        return []
    if isinstance(b, ast.Exit):
        return [("exit", ast.Stop())]

    if isinstance(b, ast.Prefix):
        if isinstance(b.action, ast.InternalAction):
            return [("i", b.rest)]
        gate = b.action.gate
        out = []
        for values, binds in _offer_choices(b.action.offers, sorts):
            rest = b.rest
            for name, lit in binds.items():
                rest = subst_val(rest, name, lit)
            label = " ".join([gate] + [f"!{v}" for v in values])
            out.append((label, rest))
        return out

    if isinstance(b, ast.Choice):
        return steps(b.left, procs, sorts, fuel) + steps(b.right, procs, sorts, fuel)

    if isinstance(b, ast.Seq):
        out = []
        for label, nxt in steps(b.left, procs, sorts, fuel):
            if label == "exit":
                out.append(("i", b.right))
            else:
                out.append((label, ast.Seq(nxt, b.right)))
        return out

    if isinstance(b, ast.Disrupt):
        out = []
        for label, nxt in steps(b.left, procs, sorts, fuel):
            if label == "exit":
                out.append((label, nxt))
            else:
                out.append((label, ast.Disrupt(nxt, b.right)))
        return out + steps(b.right, procs, sorts, fuel)

    if isinstance(b, ast.Hide):
        out = []
        for label, nxt in steps(b.body, procs, sorts, fuel):
            if label not in ("i", "exit") and label.split()[0] in b.gates:
                label = "i"
            out.append((label, ast.Hide(b.gates, nxt)))
        return out

    if isinstance(b, ast.Par):
        if b.kind is ast.ParKind.INTERLEAVE:
            def shared(label):
                return label == "exit"
        elif b.kind is ast.ParKind.FULL:
            def shared(label):
                return label != "i"
        else:
            def shared(label):
                return label == "exit" or (label != "i" and label.split()[0] in b.gates)

        lsteps = steps(b.left, procs, sorts, fuel)
        rsteps = steps(b.right, procs, sorts, fuel)
        out = []
        for label, nxt in lsteps:
            if not shared(label):
                out.append((label, ast.Par(nxt, b.kind, b.gates, b.right)))
        for label, nxt in rsteps:
            if not shared(label):
                out.append((label, ast.Par(b.left, b.kind, b.gates, nxt)))
        for llabel, lnxt in lsteps:
            if shared(llabel):
                for rlabel, rnxt in rsteps:
                    if rlabel == llabel:
                        out.append((llabel, ast.Par(lnxt, b.kind, b.gates, rnxt)))
        return out

    raise TypeError(b)


def explore(spec: ast.Specification, max_states: int = 20000):
    """Breadth-first reachable graph keyed by printed state form.
    Returns (forms in discovery order, edge set of (src, label, dst))."""
    procs = {p.name: p for p in spec.processes}
    sorts = {s.name: s for s in spec.sorts}
    init = spec.top_behavior
    key = pretty_behavior(init)
    terms = {key: init}
    order = [key]
    edges: set[tuple[str, str, str]] = set()
    queue = [key]
    while queue:
        src = queue.pop(0)
        for label, nxt in steps(terms[src], procs, sorts):
            dst = pretty_behavior(nxt)
            if dst not in terms:
                if len(terms) >= max_states:
                    raise RuntimeError("state space larger than the oracle bound")
                terms[dst] = nxt
                order.append(dst)
                queue.append(dst)
            edges.add((src, label, dst))
    return order, edges


def graph_of_lts(lts):
    """The same (forms, edges) view of an engine-produced system."""
    forms = [lts.form_text(s) for s in range(lts.num_states)]
    edges = {(forms[s], label, forms[d]) for s, label, d in lts.transitions}
    return forms, edges
