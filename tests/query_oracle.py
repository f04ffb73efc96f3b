"""Naive conjunctive query evaluation, for cross-checking.

`all_solutions` enumerates every assignment of the query variables to
constants that occur anywhere in the fact base and keeps the ones
satisfying all conjuncts.  Exponential and proud of it.

`parse_facts` is the per-line fact reader `contracts.parse_facts` must
agree with: it splits the text with str.splitlines, cuts each line at
its comment, strips it and matches what is left on its own.

`first_witness` is the depth-first search `eval_query` must agree with:
it unifies every fact of each conjunct's predicate, in lexicographic
order, and recurses once per conjunct."""
from __future__ import annotations

import itertools
import re

from lotoskit.contracts import PREDICATES, Atom, Const, FactBase, Query, Var
from lotoskit.syntax.diagnostics import (
    BAD_ARITY,
    SYNTAX_ERROR,
    UNKNOWN_PREDICATE,
    Diagnostic,
    Span,
    error,
)


def _holds(atom: Atom, env: dict[str, str], fb: FactBase) -> bool:
    args = tuple(env[t.name] if isinstance(t, Var) else t.name for t in atom.args)
    return args in fb.rows(atom.predicate)


def all_solutions(fb: FactBase, query: Query) -> list[dict[str, str]]:
    constants = sorted({arg for p in PREDICATES for row in fb.rows(p) for arg in row})
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
    candidates = {a.predicate: fb.rows(a.predicate) for a in query.atoms}

    def unify(atom: Atom, row: tuple[str, ...], env: dict[str, str]) -> dict[str, str] | None:
        out = env
        for term, value in zip(atom.args, row):
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
        for row in candidates[atom.predicate]:
            nxt = unify(atom, row, env)
            if nxt is not None:
                found = search(index + 1, nxt)
                if found is not None:
                    return found
        return None

    witness = search(0, {})
    if witness is None:
        return None
    return {v: witness[v] for v in query.variables}


_FACT_LINE_COMMENT = "%"
# the arguments keep trailing blanks, which the split arguments lose
_FACT_LINE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\s*\(\s*([^()]*)\)\s*\.?\s*\Z")


def parse_facts(text: str) -> tuple[FactBase | None, list[Diagnostic]]:
    """parse_facts line by line."""
    table: dict[str, set[tuple[str, ...]]] = {}
    diags: list[Diagnostic] = []
    match = _FACT_LINE.match
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split(_FACT_LINE_COMMENT, 1)[0].strip()
        if not line:
            continue
        m = match(line)
        if not m:
            diags.append(error(f"cannot read fact: {line!r}", Span.point(line_no, 1), SYNTAX_ERROR))
            continue
        pred, body = m.groups()
        args = tuple(map(str.strip, body.split(","))) if body else ()
        arity = PREDICATES.get(pred)
        if arity is None:
            diags.append(error(f"unknown predicate '{pred}'", Span.point(line_no, 1), UNKNOWN_PREDICATE))
        elif arity != len(args) or "" in args:
            diags.append(error(f"'{pred}' takes {arity} argument(s)", Span.point(line_no, 1), BAD_ARITY))
        else:
            table.setdefault(pred, set()).add(args)
    return (None if diags else FactBase(table)), diags
