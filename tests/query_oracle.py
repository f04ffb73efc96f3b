"""Naive conjunctive query evaluation, for cross-checking.

`all_solutions` enumerates every assignment of the query variables to
constants that occur anywhere in the fact base and keeps the ones
satisfying all conjuncts.  Exponential and proud of it.

`first_witness` is the depth-first search `eval_query` must agree with:
it unifies every fact of each conjunct's predicate, in lexicographic
order, and recurses once per conjunct."""
from __future__ import annotations

import itertools

from lotoskit.contracts import PREDICATES, Atom, Const, Fact, FactBase, Query, Var


def _holds(atom: Atom, env: dict[str, str], fb: FactBase) -> bool:
    args = tuple(env[t.name] if isinstance(t, Var) else t.name for t in atom.args)
    return Fact(atom.predicate, args) in fb


def all_solutions(fb: FactBase, query: Query) -> list[dict[str, str]]:
    constants = sorted({arg for p in PREDICATES for f in fb.by_predicate(p) for arg in f.args})
    names = list(query.variables)
    out = []
    for combo in itertools.product(constants, repeat=len(names)):
        env = dict(zip(names, combo))
        if all(_holds(a, env, fb) for a in query.atoms):
            out.append(env)
    return out


def first_witness(fb: FactBase, query: Query) -> dict[str, str] | None:
    """First witness, or None.  The search is depth-first through the
    conjuncts in written order, trying each conjunct's facts in
    lexicographic order, so the answer is reproducible."""
    candidates = {a.predicate: fb.by_predicate(a.predicate) for a in query.atoms}

    def unify(atom: Atom, fact: Fact, env: dict[str, str]) -> dict[str, str] | None:
        out = env
        for term, value in zip(atom.args, fact.args):
            if isinstance(term, Const):
                if term.name != value:
                    return None
            else:
                bound = out.get(term.name)
                if bound is None:
                    if out is env:
                        out = dict(env)
                    out[term.name] = value
                elif bound != value:
                    return None
        return out

    def search(index: int, env: dict[str, str]) -> dict[str, str] | None:
        if index == len(query.atoms):
            return env
        atom = query.atoms[index]
        for fact in candidates[atom.predicate]:
            nxt = unify(atom, fact, env)
            if nxt is not None:
                found = search(index + 1, nxt)
                if found is not None:
                    return found
        return None

    witness = search(0, {})
    if witness is None:
        return None
    return {v: witness[v] for v in query.variables}
