"""Brute-force conjunctive query evaluation.

Enumerates every assignment of the query variables to constants that
occur anywhere in the fact base and keeps the ones satisfying all
conjuncts.  Exponential and proud of it; only for cross-checking."""
from __future__ import annotations

import itertools

from lotoskit.contracts import PREDICATES, Atom, Fact, FactBase, Query, Var


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
