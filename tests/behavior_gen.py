"""Seeded random behaviour terms for the property tests.

Plain random.Random so a failure reproduces from the seed alone.  The
terms optionally carry value offers over one two-value sort.  They
instantiate processes only when asked to (``procs``), at the leaves,
guarded or not.  Only when asked to (``sends``) does a value action send
a variable bound by an earlier receive on the same path."""
from __future__ import annotations

import random

from lotoskit.syntax import ast

GATES = ("a", "b", "c")
SORT = ast.SortDecl("V", ("v1", "v2"))


def gen_behavior(
    rng: random.Random,
    depth: int,
    values: bool = False,
    procs: int = 0,
    sends: bool = False,
    bound: frozenset[str] = frozenset(),
) -> ast.Behavior:
    """With procs > 0, a leaf may also instantiate one of P0..P{procs-1}
    on gates drawn from GATES.  With sends (and values), a send may name a
    variable of bound, the receives made earlier on the path."""
    if depth <= 0:
        return _gen_leaf(rng, procs)

    def sub(bound: frozenset[str] = bound) -> ast.Behavior:
        return gen_behavior(rng, depth - 1, values, procs, sends, bound)

    pick = rng.randrange(12)
    if pick < 4:
        action = _gen_action(rng, values, bound if sends else None)
        if isinstance(action, ast.Comm):
            bound = bound | {o.var for o in action.offers if isinstance(o, ast.Receive)}
        return ast.Prefix(action, sub(bound))
    if pick < 6:
        return ast.Choice(sub(), sub())
    if pick < 8:
        kind = rng.choice((ast.ParKind.INTERLEAVE, ast.ParKind.FULL, ast.ParKind.GATES))
        gates = frozenset()
        if kind is ast.ParKind.GATES:
            gates = frozenset(rng.sample(GATES, rng.randint(1, len(GATES))))
        return ast.Par(sub(), kind, gates, sub())
    if pick == 8:
        hidden = frozenset(rng.sample(GATES, rng.randint(1, 2)))
        return ast.Hide(hidden, sub())
    if pick == 9:
        # what the left operand receives does not reach the right one
        return ast.Seq(sub(), sub())
    if pick == 10:
        return ast.Disrupt(sub(), sub())
    return _gen_leaf(rng, procs)


def _gen_leaf(rng: random.Random, procs: int) -> ast.Behavior:
    if procs and rng.random() < 0.5:
        return ast.Inst(f"P{rng.randrange(procs)}", tuple(rng.choice(GATES) for _ in GATES))
    return ast.Stop() if rng.random() < 0.7 else ast.Exit()


def _gen_action(
    rng: random.Random, values: bool, bound: frozenset[str] | None
) -> ast.ActionExpr:
    """bound is None unless sends may name variables; offers bind left to
    right, so a send may also name a receive earlier in the same action."""
    if rng.random() < 0.15:
        return ast.InternalAction()
    gate = rng.choice(GATES)
    if not values or rng.random() < 0.5:
        return ast.Comm(gate)
    offers = []
    for _ in range(rng.randint(1, 2)):
        if rng.random() < 0.5:
            if bound and rng.random() < 0.5:
                offers.append(ast.Send(ast.VarRef(rng.choice(sorted(bound)))))
            else:
                offers.append(ast.Send(ast.ValueLit(rng.choice(SORT.values), SORT.name)))
        else:
            var = rng.choice(("x", "y"))
            offers.append(ast.Receive(var, SORT.name))
            if bound is not None:
                bound = bound | {var}
    return ast.Comm(gate, tuple(offers))


def gen_system(rng: random.Random) -> ast.Specification:
    """One to three processes over GATES, instantiated on actual gates
    drawn from GATES, with value offers and variable sends; half the
    bodies sit under a hide that a renamed gate may be captured by."""
    count = rng.randint(1, 3)

    def term(depth: int) -> ast.Behavior:
        return gen_behavior(rng, depth, values=True, procs=count, sends=True)

    def body() -> ast.Behavior:
        b = term(rng.randint(1, 4))
        if rng.random() < 0.5:
            b = ast.Hide(frozenset(rng.sample(GATES, rng.randint(1, 2))), b)
        return b

    procs = tuple(ast.ProcessDef(f"P{k}", GATES, "noexit", body()) for k in range(count))
    return ast.Specification("R", GATES, (SORT,), procs, term(rng.randint(0, 2)))


def wrap(b: ast.Behavior, name: str = "Generated") -> ast.Specification:
    """A closed specification around a bare term, ready to explore."""
    return ast.Specification(
        name=name,
        top_gates=GATES,
        sorts=(SORT,),
        processes=(),
        top_behavior=b,
    )
