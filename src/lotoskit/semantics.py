"""Operational semantics: single steps and exhaustive state-space generation.

A state is a closed behaviour term without source locations.  An
``Exploration`` is an ``Lts`` that builds its rows as they are asked
for, and ``generate_lts`` runs one to the end.  While it explores it
builds every term through a hash-consing table, which it drops once
finished.  A tree from the specification enters it by one walk over an
explicit stack, which drops the source locations and at the same time
puts actual gates for formals (unfolding an instantiation) or received
values for variables (firing an action).  Inside the table each distinct
term exists once, so equality is identity and a term's ``id`` is its
hash; each term's printed form, which breaks ties in the transition
order, is composed once from its children's; and the steps of each
subterm are computed once, an instantiation being unfolded when its
steps are.  The unchanged components of a parallel state therefore cost
nothing when it steps.  A state's own steps are computed when it is
expanded and then dropped, since breadth-first search expands each state
once.

Recursion is unguarded when a process recurs before any action prefix
(Milner, "Communication and Concurrency", 1989, 4.5): while computing
the steps of a term, the processes unfolded on the current path are
kept, and meeting one of them again raises UnguardedRecursionError.
Exploration never changes the interpreter's recursion limit.

A step is a (label, term) pair whose label is the text the transition
system carries: "i" for the internal action, "exit" for successful
termination, and "g !v1 !v2" for gate g with its offered values.  The text
is built once, where the step is made.  The validator reserves "i" and
"exit" as gate names, so the first word of a label tells the three apart
and names the gate that hide and gate-set parallel test.  Labels and gate
sets are few, so that test is made once per gate set and label, in a
table per gate set that lives as long as the exploration.

Value offers are expanded when an action prefix fires: a receive "?x: S"
yields one step per value of S, with the chosen value substituted into the
continuation.  After that expansion every label is ground, so parallel
synchronisation is plain label equality.

Successful termination ("exit") is the label that all parallel operators
synchronise on, that enable turns into an internal step into its
continuation, and that discharges a disrupting branch.
"""
from __future__ import annotations

import itertools

from .record import Record, _setattr
from .syntax import ast
from .syntax.printer import pretty_behavior, pretty_node

# ----------------------------------------------------------------------
# errors


class UnguardedRecursionError(Exception):
    """A process can be unfolded forever without offering an action."""

    def __init__(self, process: str):
        super().__init__(
            f"process '{process}' recurses without an intervening action"
        )
        self.process = process


class BudgetExceededError(Exception):
    """Exploration stopped at a budget; states, transitions and depth say
    how far it got (depth is the breadth-first level being expanded)."""

    def __init__(self, kind: str, limit: int, states: int, transitions: int, depth: int):
        super().__init__(
            f"state space exceeds the {kind} budget of {limit} (stopped after "
            f"{states} states and {transitions} transitions at depth {depth})"
        )
        self.kind = kind
        self.limit = limit
        self.states = states
        self.transitions = transitions
        self.depth = depth


# ----------------------------------------------------------------------
# substitution


def collect_gates(b: ast.Behavior) -> set[str]:
    """Every gate name occurring in the term, bound or free."""
    out: set[str] = set()
    for node in ast.walk(b):
        if isinstance(node, ast.Prefix):
            if isinstance(node.action, ast.Comm):
                out.add(node.action.gate)
        elif isinstance(node, (ast.Par, ast.Hide, ast.Inst)):
            out.update(node.gates)
    return out


def _bind(
    hide: ast.Hide, gates: dict[str, str] | None
) -> tuple[frozenset[str], dict[str, str] | None]:
    """The gates hide binds and the renaming of its body, when gates
    renames the gates free around it.  The renaming reaches the body
    except for the bound gates; a bound gate that a new name would be
    captured by is itself renamed, to a fresh name."""
    if not gates:
        return hide.gates, None
    inner = {k: v for k, v in gates.items() if k not in hide.gates}
    captured = sorted(hide.gates & set(inner.values()))
    if not captured:
        return hide.gates, inner
    taken = collect_gates(hide.body) | set(inner.values()) | hide.gates
    for g in captured:
        n = 1
        while f"{g}#{n}" in taken:
            n += 1
        inner[g] = f"{g}#{n}"
        taken.add(inner[g])
    return frozenset(inner.get(g, g) for g in hide.gates), inner


def _rewrite_action(
    action: ast.ActionExpr, gates: dict[str, str] | None, env: dict[str, ast.ValueLit] | None
) -> tuple[ast.ActionExpr, dict[str, ast.ValueLit] | None]:
    """action without locations, its gate renamed and the variables it
    sends replaced, and the env of its continuation, less the variables
    its receives bind.  Offers bind left to right, so a send after a
    receive of its name in the same action is left to that receive."""
    if isinstance(action, ast.InternalAction):
        return _INTERNAL, env
    offers: list[ast.Offer] = []
    rest_env = env
    for o in action.offers:
        if isinstance(o, ast.Receive):
            offers.append(ast.Receive(o.var, o.sort))
            if rest_env and o.var in rest_env:
                if rest_env is env:
                    rest_env = dict(env)
                del rest_env[o.var]
        elif isinstance(o.expr, ast.ValueLit):
            offers.append(ast.Send(ast.ValueLit(o.expr.value, o.expr.sort)))
        elif rest_env and o.expr.name in rest_env:
            offers.append(ast.Send(rest_env[o.expr.name]))
        else:
            offers.append(ast.Send(ast.VarRef(o.expr.name)))
    gate = gates.get(action.gate, action.gate) if gates else action.gate
    return ast.Comm(gate, tuple(offers)), rest_env


class _Memo(dict):
    """A dict that works out the value of a missing key once, by of(key);
    a hit is a plain dict lookup."""

    __slots__ = ("of",)

    def __init__(self, of):
        super().__init__()
        self.of = of

    def __missing__(self, key):
        value = self[key] = self.of(key)
        return value


_INTERNAL = ast.InternalAction()
# the gates that interleaving synchronises on besides exit
_NONE: frozenset[str] = frozenset()
# marks an entry of the interning stack whose children are done
_BUILD = object()
_EMPTY = ast.Specification("", (), (), (), ast.Stop())


def normalize(b: ast.Behavior) -> ast.Behavior:
    """Strip source locations, giving a canonical representative.
    Idempotent, and never changes equality (locations are not compared).
    Exploration does the same as terms enter its table."""
    return _Terms(_EMPTY).intern(b)


# ----------------------------------------------------------------------
# single steps


def successors(
    b: ast.Behavior, spec: ast.Specification, terms: _Terms | None = None
) -> list[tuple[str, ast.Behavior]]:
    """All single steps from a closed behaviour, in a deterministic order,
    as (label text, successor) pairs: "i", "exit" or "g !v1 !v2".

    An exploration passes its term table, into which b is interned;
    without one, b is interned into a fresh table.  The steps of b's
    subterms are memoised in the table, b's own are computed and not
    kept."""
    if terms is None:
        terms = _Terms(spec)
        b = terms.intern(b)
    return terms._compute(b)


class _Terms:
    """The hash-consing table of one exploration, after Filliâtre and
    Conchon, "Type-Safe Modular Hash-Consing" (2006).

    Terms enter through ``intern`` or the node constructors, which return
    the one existing instance of an equal term.  A node is keyed by its
    class, its own fields and the identities of its children, which are
    interned first, so no lookup walks a subterm.  ``text`` maps the id
    of every interned term to its printed form.  ``steps`` memoises the
    steps of each subterm; a state's own are computed by ``successors``
    when it is expanded, and then dropped.  ``in_gates[G][a]`` says
    whether label a's gate is in gate set G, worked out on first use; it
    decides both synchronisation at ``|[G]|`` and hiding by ``hide G``."""

    def __init__(self, spec: ast.Specification):
        self.spec = spec
        self.text: dict[int, str] = {}
        self._nodes: dict[tuple, ast.Behavior] = {}
        self._steps: dict[int, list[tuple[str, ast.Behavior]]] = {}
        # the processes being unfolded on the current path of ``steps``
        self._unfolding: set[str] = set()
        # gate set -> label -> whether the label's gate is in the set
        self.in_gates: _Memo = _Memo(
            lambda gates: _Memo(lambda label: label.partition(" ")[0] in gates))
        self.stop = self.intern(ast.Stop())
        self.initial = self.intern(self.spec.top_behavior)

    # -- interning ------------------------------------------------------

    def _add(self, key: tuple, node: ast.Behavior) -> ast.Behavior:
        # printed first, so a node is never stored without its text
        self.text[id(node)] = pretty_node(node, self.text)
        self._nodes[key] = node
        return node

    def intern(
        self,
        b: ast.Behavior,
        gates: dict[str, str] | None = None,
        env: dict[str, ast.ValueLit] | None = None,
    ) -> ast.Behavior:
        """The canonical instance of b, which may come from any tree: built
        without source locations, its free gates renamed by gates and its
        free variables replaced by env's values.  A hide binds its gates,
        and one that would capture a renamed gate g binds g#n instead, n
        the smallest such that g#n is no gate of its body, no new name and
        no bound gate.  A receive binds its variable for the continuation.
        The walk keeps its own stack, so a deep term costs no recursion."""
        done: list[ast.Behavior] = []
        # (node, gates, env) to visit, or (node, _BUILD, fields) to build
        # from the children last put on done
        todo: list[tuple] = [(b, gates, env)]
        while todo:
            node, gates, env = todo.pop()
            if gates is _BUILD:
                if isinstance(node, ast.Prefix):
                    done.append(self.prefix(env, done.pop()))
                elif isinstance(node, ast.Hide):
                    done.append(self.hide(env, done.pop()))
                else:
                    right = done.pop()
                    if isinstance(node, ast.Par):
                        done.append(self.par(done.pop(), node.kind, env, right))
                    else:
                        done.append(self.binary(type(node), done.pop(), right))
            elif not gates and not env and id(node) in self.text:
                done.append(node)
            elif isinstance(node, ast.Prefix):
                action, rest_env = _rewrite_action(node.action, gates, env)
                todo.append((node, _BUILD, action))
                todo.append((node.rest, gates, rest_env))
            elif isinstance(node, ast.Hide):
                bound, inner = _bind(node, gates)
                todo.append((node, _BUILD, bound))
                todo.append((node.body, inner, env))
            elif isinstance(node, (ast.Choice, ast.Seq, ast.Disrupt, ast.Par)):
                sync = None
                if isinstance(node, ast.Par):
                    sync = frozenset(gates.get(g, g) for g in node.gates) if gates else node.gates
                todo.append((node, _BUILD, sync))
                todo.append((node.right, gates, env))
                todo.append((node.left, gates, env))
            elif isinstance(node, ast.Inst):
                actual = tuple(gates.get(g, g) for g in node.gates) if gates else node.gates
                key: tuple = (ast.Inst, node.process, actual)
                done.append(self._nodes.get(key) or self._add(key, ast.Inst(node.process, actual)))
            elif isinstance(node, (ast.Stop, ast.Exit)):
                key = (type(node),)
                done.append(self._nodes.get(key) or self._add(key, type(node)()))
            else:
                raise TypeError(f"unknown behaviour node {node!r}")
        return done[0]

    def prefix(self, action: ast.ActionExpr, rest: ast.Behavior) -> ast.Behavior:
        key = (ast.Prefix, action, id(rest))
        return self._nodes.get(key) or self._add(key, ast.Prefix(action, rest))

    def par(self, left: ast.Behavior, kind: ast.ParKind, gates: frozenset[str],
            right: ast.Behavior) -> ast.Behavior:
        # ParKind members live as long as the program, so their ids are
        # stable, and an int hashes faster than an enum member
        key = (ast.Par, id(left), id(kind), gates, id(right))
        return self._nodes.get(key) or self._add(key, ast.Par(left, kind, gates, right))

    def hide(self, gates: frozenset[str], body: ast.Behavior) -> ast.Behavior:
        key = (ast.Hide, gates, id(body))
        return self._nodes.get(key) or self._add(key, ast.Hide(gates, body))

    def binary(self, cls: type, left: ast.Behavior, right: ast.Behavior) -> ast.Behavior:
        key = (cls, id(left), id(right))
        return self._nodes.get(key) or self._add(key, cls(left, right))

    def unfolded(self, inst: ast.Inst) -> ast.Behavior:
        """The defining body of inst's process, actual gates in place of
        formals."""
        target = self.spec.process(inst.process)
        if target is None:
            raise ValueError(f"process '{inst.process}' is not defined")
        if len(inst.gates) != len(target.formal_gates):
            raise ValueError(f"gate arity mismatch instantiating '{inst.process}'")
        return self.intern(target.body, dict(zip(target.formal_gates, inst.gates)))

    # -- single steps ---------------------------------------------------

    def steps(self, b: ast.Behavior) -> list[tuple[str, ast.Behavior]]:
        """The steps of an interned subterm, computed once."""
        out = self._steps.get(id(b))
        if out is None:
            out = self._steps[id(b)] = self._compute(b)
        return out

    def _compute(self, b: ast.Behavior) -> list[tuple[str, ast.Behavior]]:
        # Which processes an unfolding reaches before the next action
        # depends on the process bodies alone, not on the gates, so a
        # process met twice on one path recurs forever.  A memoised
        # result met no process of the path it was computed on, so
        # reusing it cannot hide such a repeat.
        if type(b) is ast.Par:  # the commonest state, and it enters no process
            return self._par_steps(b)
        entered: list[str] = []
        try:
            while isinstance(b, ast.Inst):
                if b.process in self._unfolding:
                    raise UnguardedRecursionError(b.process)
                self._unfolding.add(b.process)
                entered.append(b.process)
                b = self.unfolded(b)

            if isinstance(b, ast.Stop):
                return []
            if isinstance(b, ast.Exit):
                return [("exit", self.stop)]

            if isinstance(b, ast.Prefix):
                return self._prefix_steps(b)

            if isinstance(b, ast.Choice):
                return self.steps(b.left) + self.steps(b.right)

            if isinstance(b, ast.Par):
                return self._par_steps(b)

            if isinstance(b, ast.Hide):
                hidden = self.in_gates[b.gates]
                out = []
                for a, nxt in self.steps(b.body):
                    if hidden[a]:
                        a = "i"
                    out.append((a, self.hide(b.gates, nxt)))
                return out

            if isinstance(b, ast.Seq):
                out = []
                for a, nxt in self.steps(b.left):
                    if a == "exit":
                        out.append(("i", b.right))
                    else:
                        out.append((a, self.binary(ast.Seq, nxt, b.right)))
                return out

            if isinstance(b, ast.Disrupt):
                out = []
                for a, nxt in self.steps(b.left):
                    if a == "exit":
                        out.append((a, nxt))
                    else:
                        out.append((a, self.binary(ast.Disrupt, nxt, b.right)))
                out.extend(self.steps(b.right))
                return out

            raise TypeError(f"unknown behaviour node {b!r}")
        finally:
            self._unfolding.difference_update(entered)

    def _prefix_steps(self, b: ast.Prefix) -> list[tuple[str, ast.Behavior]]:
        action = b.action
        if isinstance(action, ast.InternalAction):
            return [("i", b.rest)]

        domains = []
        for o in action.offers:
            if isinstance(o, ast.Receive):
                sort = self.spec.sort(o.sort)
                if sort is None:
                    raise ValueError(f"sort '{o.sort}' is not declared")
                domains.append(sort.values)

        out: list[tuple[str, ast.Behavior]] = []
        for chosen in itertools.product(*domains):
            picked = iter(chosen)
            # offers bind left to right, so a send may mention a receive
            # variable introduced earlier in the same action
            env: dict[str, ast.ValueLit] = {}
            label = action.gate
            for o in action.offers:
                if isinstance(o, ast.Receive):
                    v = next(picked)
                    env[o.var] = ast.ValueLit(v, o.sort)
                elif isinstance(o.expr, ast.ValueLit):
                    v = o.expr.value
                elif o.expr.name in env:
                    v = env[o.expr.name].value
                else:
                    raise ValueError(f"unbound variable '{o.expr.name}' at gate '{action.gate}'")
                label += " !" + v
            out.append((label, self.intern(b.rest, env=env)))
        return out

    def _par_steps(self, b: ast.Par) -> list[tuple[str, ast.Behavior]]:
        # every parallel operator synchronises on exit; besides it, |||
        # on nothing, || on every gate and |[G]| on the gates of G
        if b.kind is ast.ParKind.INTERLEAVE:
            syncs = _NONE.__contains__
        elif b.kind is ast.ParKind.FULL:
            syncs = "i".__ne__
        else:
            syncs = self.in_gates[b.gates].__getitem__

        left_steps = self.steps(b.left)
        right_steps = self.steps(b.right)

        out: list[tuple[str, ast.Behavior]] = []
        for a, nxt in left_steps:
            if a != "exit" and not syncs(a):
                out.append((a, self.par(nxt, b.kind, b.gates, b.right)))
        for a, nxt in right_steps:
            if a != "exit" and not syncs(a):
                out.append((a, self.par(b.left, b.kind, b.gates, nxt)))
        for a, lnxt in left_steps:
            if a != "exit" and not syncs(a):
                continue
            for c, rnxt in right_steps:
                if a == c:
                    out.append((a, self.par(lnxt, b.kind, b.gates, rnxt)))
        return out


def strip_hiding(spec: ast.Specification) -> ast.Specification:
    """Remove every hide operator so hidden gates show up observably;
    used to inspect or monitor interactions a composition encapsulates."""

    def strip(b: ast.Behavior) -> ast.Behavior:
        return ast.rebuild(b, lambda n: n.body if isinstance(n, ast.Hide) else n)

    processes = tuple(ast.ProcessDef(p.name, p.formal_gates, p.functionality, strip(p.body),
                                     p.loc, p._source)
                      for p in spec.processes)
    return ast.Specification(spec.name, spec.top_gates, spec.sorts, processes,
                             strip(spec.top_behavior), spec.loc, spec._source)


# ----------------------------------------------------------------------
# state-space generation


class ExplorationBudget(Record):
    __slots__ = ("max_states", "max_transitions")

    def __init__(self, max_states: int = 100_000, max_transitions: int = 500_000):
        super().__init__(max_states, max_transitions)


class Lts(Record):
    """Explicit transition system.  States are 0..num_states-1 in
    breadth-first discovery order, 0 initial; per state, transitions are
    ordered by label text then by printed target form.  forms maps states
    back to behaviour terms when the system was generated from one (None
    when read from a file).

    The per-state rows ``out`` are the only storage of the transitions:
    out[s] lists the moves of state s as (label id, target) pairs.
    ``label_text`` is the id -> text table.  It holds each label of the
    transitions once, numbered in the order the rows first meet it.

    A system that ``Exploration`` made builds its rows as they are asked
    for, and keeps its progress in a slot that is neither compared nor
    shown; ``finish`` builds the rest.  Equality and the whole-table
    readers build it first; ``repr`` shows the rows built so far."""

    __slots__ = ("out", "label_text", "initial", "forms", "_explorer", "__weakref__")

    def __init__(self, out: list[list[tuple[int, int]]], label_text: list[str], initial: int = 0,
                 forms: list[ast.Behavior] | None = None):
        super().__init__(out, label_text, initial, forms)
        _setattr(self, "_explorer", None)

    @property
    def num_states(self) -> int:
        """The states discovered so far: all of them once every row is built."""
        return len(self.out) if self._explorer is None else len(self.forms)

    @property
    def state_bound(self) -> int:
        """A number above every state the system has or will discover: its
        state count, or its state budget while it is still exploring."""
        return len(self.out) if self._explorer is None else self._explorer.budget.max_states

    def row(self, state: int) -> list[tuple[int, int]]:
        """The moves of state, out[state], built first if need be (with
        those of every state numbered below it)."""
        if self._explorer is not None and len(self.out) <= state:
            self._explorer.expand(self, state + 1)
        return self.out[state]

    def __eq__(self, other: object) -> bool:
        return Record.__eq__(self.finish(), other.finish() if other.__class__ is Lts else other)

    def finish(self) -> Lts:
        """Build the rows of every state not yet expanded; the system."""
        if self._explorer is not None:
            # no exploration admits more states than its state budget
            self._explorer.expand(self, self._explorer.budget.max_states)
            _setattr(self, "_explorer", None)
        return self

    @property
    def num_transitions(self) -> int:
        return sum(map(len, self.finish().out))

    @property
    def transitions(self) -> list[tuple[int, str, int]]:
        """(source, label text, target) triples, listed per source state in
        row order; built on each use."""
        text = self.finish().label_text
        return [(src, text[lab], dst) for src, row in enumerate(self.out) for lab, dst in row]

    def form_text(self, state: int) -> str | None:
        if self.forms is None:
            return None
        return pretty_behavior(self.forms[state])


def Exploration(spec: ast.Specification, budget: ExplorationBudget | None = None) -> Lts:
    """The breadth-first exploration of a specification, one state at a
    time: an Lts whose rows are built as they are asked for.  States are
    numbered in discovery order and expanded in that order, so once
    row(s) has built the row of state s, out[0..s] are the first rows of
    generate_lts's table: the same numbering, the same transition order,
    the same label ids and the same forms.

    The checks of verify call ``row`` for every state they read, so they
    search in lockstep with an exploration and stop expanding states once
    they have their answer.  A budget is checked as states are expanded,
    so it is exceeded only by an exploration that gets that far; a state
    budget of 0 is exceeded at once, by the initial state.  A row and its
    transitions are counted only once all of its moves are admitted, so a
    state whose expansion raised a budget or unguarded-recursion error is
    expanded again by the next row or finish that needs it, and raises
    the same error again."""
    budget = budget or ExplorationBudget()
    if budget.max_states < 1:
        raise BudgetExceededError("state", budget.max_states, 0, 0, 0)
    terms = _Terms(spec)
    lts = Lts([], [], forms=[terms.initial])
    _setattr(lts, "_explorer", _Explorer(terms, budget))
    return lts


class _Explorer:
    """The progress of an exploration, which its Lts holds until finished:
    the term table, each discovered state by the id of its term, the label
    ids, the transitions counted, and the breadth-first level being
    expanded, the next one starting at state number level_end."""

    __slots__ = ("terms", "budget", "seen", "label_ids", "transitions", "depth", "level_end")

    def __init__(self, terms: _Terms, budget: ExplorationBudget):
        self.terms, self.budget = terms, budget
        # states are interned, so a state's id identifies it
        self.seen: dict[int, int] = {id(terms.initial): 0}
        self.label_ids: dict[str, int] = {}
        self.transitions, self.depth, self.level_end = 0, 0, 1

    def expand(self, lts: Lts, rows: int) -> None:
        """Expand states of lts until there are rows rows or none is left."""
        terms, text = self.terms, self.terms.text
        forms, out, seen = lts.forms, lts.out, self.seen
        label_ids, label_text = self.label_ids, lts.label_text
        max_states, max_transitions = self.budget.max_states, self.budget.max_transitions
        number = len(out)
        while number < rows and number < len(forms):
            if number == self.level_end:
                self.depth, self.level_end = self.depth + 1, len(forms)
            count = self.transitions
            row: list[tuple[int, int]] = []
            # a printed form names one interned term, so (label, printed
            # target) both drops repeated steps and orders them
            steps = {(label, text[id(target)]): target
                     for label, target in successors(forms[number], terms.spec, terms)}
            for (label, _), tgt in sorted(steps.items()):
                key = id(tgt)
                dst = seen.get(key)
                if dst is None and len(forms) >= max_states:
                    raise BudgetExceededError(
                        "state", max_states, len(forms), count, self.depth
                    )
                if count >= max_transitions:
                    raise BudgetExceededError(
                        "transition", max_transitions, len(forms), count, self.depth
                    )
                if dst is None:
                    dst = seen[key] = len(forms)
                    forms.append(tgt)
                lab = label_ids.get(label)
                if lab is None:
                    lab = label_ids[label] = len(label_text)
                    label_text.append(label)
                row.append((lab, dst))
                count += 1
            out.append(row)
            self.transitions = count
            number += 1


def generate_lts(spec: ast.Specification, budget: ExplorationBudget | None = None) -> Lts:
    """Breadth-first exploration of every reachable state: an Exploration
    run to the end, its labels numbered as first met.

    New states are numbered in discovery order; ties inside one source
    state follow the per-state transition order (label text, then printed
    target), which makes the numbering reproducible.  The checks of verify
    take an Exploration instead, to stop once they have their answer.
    """
    return Exploration(spec, budget).finish()
