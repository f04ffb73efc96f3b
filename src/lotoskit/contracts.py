"""Design-component contracts.

A contract has up to three checkable parts plus a free-text assertion:

* structural (sc): an existential conjunctive query over a fact base
  describing the static design;
* interface (ic): participants, input/output ports, the messages moving
  through them, externally fed messages, and port-to-port flows, checked
  against rules C1-C4 and basic referential sanity;
* behavioural (bc): a named behaviour specification that must be free of
  deadlock.

Facts use a fixed predicate vocabulary so misspellings fail loudly.
"""
from __future__ import annotations

import re
from collections.abc import Iterator

from .record import Record
from .semantics import ExplorationBudget, generate_lts
from .syntax.ast import Specification
from .syntax.diagnostics import (
    BAD_ARITY,
    Diagnostic,
    SYNTAX_ERROR,
    Span,
    UNKNOWN_PREDICATE,
    Violation,
    error,
)
from .verify import LINE_BREAKS, VerifyResult, check_deadlock, format_trace

# predicate name -> arity; the only predicates facts and queries may use
PREDICATES: dict[str, int] = {
    "abstract_class": 1,
    "abstract_aspect": 1,
    "class": 1,
    "aspect": 1,
    "inherit": 2,
    "associate": 2,
    "aggregate": 2,
    "invoke": 4,
    "new": 3,
    "return": 3,
    "declare_parent": 3,
    "call": 3,
    "advice": 3,
}


# ----------------------------------------------------------------------
# facts


class FactBase:
    """A read-only set of ground facts over the fixed vocabulary, as
    parse_facts reads them: a set of argument tuples per predicate.

    A query reads a predicate through its rows, the tuples in
    lexicographic order, and through a column index (position, value) ->
    rows that keeps that order.  Both are built on first use."""

    def __init__(self, args: dict[str, set[tuple[str, ...]]]) -> None:
        self._args = args
        self._rows: dict[str, list[tuple[str, ...]]] = {}
        self._columns: dict[tuple[str, int], dict[str, list[tuple[str, ...]]]] = {}

    def rows(self, predicate: str) -> list[tuple[str, ...]]:
        """The argument tuples of the predicate's facts, in lexicographic order."""
        rows = self._rows.get(predicate)
        if rows is None:
            rows = self._rows[predicate] = sorted(self._args.get(predicate, ()))
        return rows

    def _column(self, predicate: str, position: int) -> dict[str, list[tuple[str, ...]]]:
        """value -> the rows holding it at `position`, in row order."""
        column = self._columns.get((predicate, position))
        if column is None:
            column = self._columns[predicate, position] = {}
            for row in self.rows(predicate):
                column.setdefault(row[position], []).append(row)
        return column


# One line of str.splitlines and its line break: a fact, a blank or
# comment line, or else any other line.  _SP is whitespace but a break.
_SP, _EOL = rf"[^\S{LINE_BREAKS}]*", rf"(?:\r\n|[{LINE_BREAKS}]|\Z)"
_FACT_LINE = re.compile(
    rf"{_SP}(?:([A-Za-z_][A-Za-z0-9_]*){_SP}\({_SP}([^()%{LINE_BREAKS}]*)\){_SP}(?:\.{_SP})?)?"
    rf"(?:%[^{LINE_BREAKS}]*)?{_EOL}|([^{LINE_BREAKS}]*){_EOL}")


def parse_facts(text: str) -> tuple[FactBase | None, list[Diagnostic]]:
    """One fact per line, "predicate(arg, arg)." with an optional trailing
    dot; '%' starts a comment.  All problems are reported, not just the
    first, and then there is no fact base.  One scan reads every line."""
    table: dict[str, set[tuple[str, ...]]] = {}
    diags: list[Diagnostic] = []
    for line_no, m in enumerate(_FACT_LINE.finditer(text), start=1):
        pred, body, unread = m.groups()
        if unread is not None:
            line = unread.split("%", 1)[0].strip()
            diags.append(error(f"cannot read fact: {line!r}", Span.point(line_no, 1), SYNTAX_ERROR))
            continue
        if pred is None:  # a blank or comment line
            continue
        # body keeps trailing blanks, which the split arguments lose
        args = tuple(map(str.strip, body.split(","))) if body else ()
        arity = PREDICATES.get(pred)
        if arity is None:
            diags.append(error(f"unknown predicate '{pred}'", Span.point(line_no, 1), UNKNOWN_PREDICATE))
        elif arity != len(args) or "" in args:
            diags.append(error(f"'{pred}' takes {arity} argument(s)", Span.point(line_no, 1), BAD_ARITY))
        else:
            table.setdefault(pred, set()).add(args)
    return (None if diags else FactBase(table)), diags


# ----------------------------------------------------------------------
# conjunctive queries


class Var(Record):
    __slots__ = ("name",)
    name: str


class Const(Record):
    __slots__ = ("name",)
    name: str


Term = Var | Const


class Atom(Record):
    __slots__ = ("predicate", "args")
    predicate: str
    args: tuple[Term, ...]


class Query(Record):
    """exists x, y . p(x, C) and q(y, x) ...  All variables are the
    declared ones; every other identifier is a constant."""

    __slots__ = ("variables", "atoms")
    variables: tuple[str, ...]
    atoms: tuple[Atom, ...]


def eval_query(fb: FactBase, query: Query) -> dict[str, str] | None:
    """First witness, or None.  The search is depth-first through the
    conjuncts in written order, trying each conjunct's facts in
    lexicographic order, so the answer is reproducible.

    Conjuncts joined by no chain of shared variables are independent, so
    the search takes the query in groups: conjuncts joined by shared
    variables, the groups in the order of their first conjunct, each
    group's conjuncts in written order.  No group binds another's
    variables, so the lexicographically first witness of the query is
    the first witness of each group, and a group without one ends the
    search without re-binding the groups before it.

    A conjunct whose variables earlier ones all bind matches at most one
    fact, so it only filters: it is tested right after the conjunct that
    binds the last of them, which drops only bindings that would fail
    later and keeps the first witness.

    A conjunct reads only the facts that agree with its bound positions,
    the constants and the variables bound by earlier conjuncts: the
    shortest of their index lists, or every fact of its predicate when
    none is bound.  Each list keeps the facts' order, so the first
    witness is the one a scan over every fact would meet.  The search
    keeps one iterator per conjunct on a stack, so the length of a query
    is not bounded by the recursion limit."""
    # every variable and every constant gets a slot in `env`; a constant's
    # slot holds its name, a variable's the value it is bound to
    env: list[str] = []
    slots: dict[Term, int] = {}
    # a union-find forest over the slots: a conjunct joins its variables
    parent: list[int] = []

    def find(slot: int) -> int:
        while parent[slot] != slot:
            parent[slot] = parent[parent[slot]]  # path halving
            slot = parent[slot]
        return slot

    steps = []
    owners = []  # per conjunct, the root of its first variable, or None
    binder: dict[int, int] = {}  # a variable's slot -> the conjunct that binds it
    after = []  # per conjunct, the conjunct it is tested with: itself or a filter's binder
    for k, atom in enumerate(query.atoms):
        rows = fb.rows(atom.predicate)
        if not rows:  # no witness; an unknown predicate has no facts
            return None
        keys = []    # (column, slot) for the positions bound before the conjunct
        checks = []  # (position, slot) for every position with a bound term
        binds = []   # (position, slot) for each variable's first occurrence
        fresh: set[int] = set()
        args = atom.args[: PREDICATES[atom.predicate]]
        for position, term in enumerate(args):
            slot = slots.get(term)
            if slot is None:
                slot = slots[term] = len(env)
                parent.append(slot)
                if isinstance(term, Const):
                    env.append(term.name)
                else:
                    env.append("")
                    fresh.add(slot)
                    binds.append((position, slot))
                    continue
            if slot not in fresh:
                keys.append((fb._column(atom.predicate, position), slot))
            checks.append((position, slot))
        steps.append((rows, keys, checks, binds))
        own = [find(slots[term]) for term in args if isinstance(term, Var)]
        for root in own[1:]:
            parent[root] = own[0]
        owners.append(own[0] if own else None)
        after.append(k if binds else max((binder[s] for _, s in checks if s in binder), default=k))
        binder.update((slot, k) for _, slot in binds)

    # conjunct k's group: the root of its variables, or a key of its own
    groups: dict[int, list[int]] = {}
    for k, owner in enumerate(owners):
        groups.setdefault(~k if owner is None else find(owner), []).append(k)

    def matches(index: int) -> Iterator[None]:
        rows, keys, checks, binds = steps[index]
        for column, slot in keys:
            found = column.get(env[slot], ())
            if len(found) < len(rows):
                rows = found
        for row in rows:
            for position, slot in binds:
                env[slot] = row[position]
            for position, slot in checks:
                if row[position] != env[slot]:
                    break
            else:
                yield

    for group in groups.values():
        group.sort(key=after.__getitem__)  # stable: a filter follows its binder
        # stack[k] has just bound the group's conjunct k; an exhausted
        # iterator backtracks
        stack: list[Iterator[None]] = []
        while len(stack) < len(group):
            stack.append(matches(group[len(stack)]))
            while next(stack[-1], True) is not None:
                stack.pop()
                if not stack:
                    return None
    witness = {term.name: env[slot] for term, slot in slots.items() if isinstance(term, Var)}
    return {v: witness[v] for v in query.variables}


# ----------------------------------------------------------------------
# interface contracts


class InterfaceContract(Record):
    """Ports keep their declaration order and possible duplicates; the
    checks below are what rules on them.  Ports are (port, owner) pairs,
    messages (message, port) pairs and flows (message, out port, in port)
    triples."""

    __slots__ = ("participants", "in_ports", "out_ports", "in_msgs", "out_msgs", "external_in",
                 "flows")

    def __init__(self, participants: tuple[str, ...] = (), in_ports: tuple[tuple[str, str], ...] = (),
                 out_ports: tuple[tuple[str, str], ...] = (), in_msgs: tuple[tuple[str, str], ...] = (),
                 out_msgs: tuple[tuple[str, str], ...] = (), external_in: tuple[str, ...] = (),
                 flows: tuple[tuple[str, str, str], ...] = ()):
        super().__init__(participants, in_ports, out_ports, in_msgs, out_msgs, external_in, flows)


def check_interface(ic: InterfaceContract) -> list[Violation]:
    """C1: input ports unique.  C2: output ports unique.  C3: every input
    message is an output message or externally fed.  C4: every output
    message is consumed by an input message.  Plus referential checks on
    owners, message ports, and flows."""
    out: list[Violation] = []
    participants = set(ic.participants)

    sides = (("input", "C1", ic.in_ports, ic.in_msgs), ("output", "C2", ic.out_ports, ic.out_msgs))
    for side, code, ports, _ in sides:
        seen: set[str] = set()
        for port, owner in ports:
            if port in seen:
                out.append(Violation(code, f"{side} port '{port}' is declared more than once"))
            seen.add(port)
            if owner not in participants:
                out.append(Violation("unknown-owner", f"{side} port '{port}' belongs to unknown participant '{owner}'"))

    for side, _, ports, msgs in sides:
        names = {p for p, _ in ports}
        for msg, port in msgs:
            if port not in names:
                out.append(Violation("unknown-port", f"{side} message '{msg}' names missing {side} port '{port}'"))

    produced = {m for m, _ in ic.out_msgs} | set(ic.external_in)
    consumed = {m for m, _ in ic.in_msgs}
    for msg in dict.fromkeys(m for m, _ in ic.in_msgs):
        if msg not in produced:
            out.append(
                Violation("C3", f"input message '{msg}' is never produced: not an output message and not external")
            )
    for msg in dict.fromkeys(m for m, _ in ic.out_msgs):
        if msg not in consumed:
            out.append(Violation("C4", f"output message '{msg}' is never consumed"))

    out_pairs = set(ic.out_msgs)
    in_pairs = set(ic.in_msgs)
    for msg, src, dst in ic.flows:
        if (msg, src) not in out_pairs:
            out.append(Violation("bad-flow", f"flow of '{msg}' from '{src}' has no matching output message"))
        if (msg, dst) not in in_pairs:
            out.append(Violation("bad-flow", f"flow of '{msg}' into '{dst}' has no matching input message"))
    return out


# ----------------------------------------------------------------------
# whole contracts


class BcRef(Record):
    """Behavioural part: a named behaviour held in a separate file."""

    __slots__ = ("name", "path")
    name: str
    path: str


class AscContract(Record):
    __slots__ = ("name", "assertion", "sc", "ic", "bc")

    def __init__(self, name: str, assertion: str | None = None, sc: Query | None = None,
                 ic: InterfaceContract | None = None, bc: BcRef | None = None):
        super().__init__(name, assertion, sc, ic, bc)


class ContractCheckError(Exception):
    """The contract could not be evaluated: a structural query without
    facts, or a behavioural part without its specification."""


class ContractReport(Record):
    __slots__ = ("name", "sc_checked", "sc_witness", "ic_violations", "bc_result")

    def __init__(self, name: str, sc_checked: bool = False, sc_witness: dict[str, str] | None = None,
                 ic_violations: list[Violation] | None = None, bc_result: VerifyResult | None = None):
        super().__init__(name, sc_checked, sc_witness, ic_violations, bc_result)

    @property
    def ok(self) -> bool:
        if self.sc_checked and self.sc_witness is None:
            return False
        if self.ic_violations:
            return False
        if self.bc_result is not None and not self.bc_result.ok:
            return False
        return True

    def lines(self) -> list[str]:
        """Human-readable summary, one finding per line."""
        out = [f"contract {self.name}: {'ok' if self.ok else 'FAILED'}"]
        if self.sc_checked:
            if self.sc_witness is None:
                out.append("  sc: no witness satisfies the structural query")
            elif self.sc_witness:
                binding = ", ".join(f"{k}={v}" for k, v in sorted(self.sc_witness.items()))
                out.append(f"  sc: witness {binding}")
            else:
                out.append("  sc: holds")
        if self.ic_violations is not None:
            if self.ic_violations:
                for v in self.ic_violations:
                    out.append(f"  ic: {v}")
            else:
                out.append("  ic: all rules hold")
        if self.bc_result is not None:
            status = "deadlock free" if self.bc_result.ok else self.bc_result.detail
            out.append(f"  bc: {status}")
            if not self.bc_result.ok:
                out.append(f"  bc: trace {format_trace(self.bc_result.trace)}")
        return out


def check_asc(
    contract: AscContract,
    facts: FactBase | None = None,
    behaviour: Specification | None = None,
    budget: ExplorationBudget | None = None,
) -> ContractReport:
    """Evaluate every part the contract carries: the query over facts,
    and the deadlock check on behaviour, the parsed and valid
    specification the contract's bc names.  Raises ContractCheckError
    when a part cannot be evaluated at all; a cleanly failing part just
    makes the report not ok.  The behaviour is explored last, so a
    missing input is reported before any exploration."""
    if contract.sc is not None and facts is None:
        raise ContractCheckError(
            f"contract '{contract.name}' has a structural query but no facts were given"
        )
    if contract.bc is not None and behaviour is None:
        raise ContractCheckError(
            f"contract '{contract.name}' has a behaviour but no specification was given"
        )
    return ContractReport(
        contract.name,
        sc_checked=contract.sc is not None,
        sc_witness=None if contract.sc is None else eval_query(facts, contract.sc),
        ic_violations=None if contract.ic is None else check_interface(contract.ic),
        bc_result=None if contract.bc is None else check_deadlock(generate_lts(behaviour, budget)),
    )
