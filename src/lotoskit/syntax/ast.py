"""Abstract syntax of the Basic LOTOS subset with finite-sort value offers.

All nodes are frozen dataclasses.  Structural equality and hashing
deliberately ignore the source span (`loc`), so that a tree equals its
printed-and-parsed copy, and so that the explorer's interning table can
key an action by its value: equal actions written at different source
positions are one key.  Interned terms themselves are compared by
identity.

This module is also the one place that knows which fields of a node hold
its behaviour children (``_CHILD_FIELDS``).  Traverse a tree with
``walk`` (every node, in preorder) or rebuild it with ``rebuild`` (a new
tree, bottom-up); both keep their own stack, so a deep tree costs no
recursion.
"""
from __future__ import annotations

import enum
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field, replace
from functools import cached_property
from operator import is_not

from .diagnostics import Span


def _loc_field():
    return field(default=None, compare=False, hash=False, repr=False)


# ---------------------------------------------------------------------------
# Value expressions inside offers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ValueLit:
    """A concrete value of a declared finite sort."""

    value: str
    sort: str
    loc: Span | None = _loc_field()


@dataclass(frozen=True)
class VarRef:
    """A variable bound by an enclosing receive offer."""

    name: str
    loc: Span | None = _loc_field()


ValueExpr = ValueLit | VarRef


# ---------------------------------------------------------------------------
# Offers and actions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Send:
    """``!e``: offer a concrete value (or a bound variable's value)."""

    expr: ValueExpr
    loc: Span | None = _loc_field()


@dataclass(frozen=True)
class Receive:
    """``?x:S``: bind ``x`` to any value of sort ``S``."""

    var: str
    sort: str
    loc: Span | None = _loc_field()


Offer = Send | Receive


@dataclass(frozen=True)
class InternalAction:
    """The unobservable action ``i``."""

    loc: Span | None = _loc_field()


@dataclass(frozen=True)
class Comm:
    """A (possibly value-carrying) action at a gate; no offers means
    pure synchronization."""

    gate: str
    offers: tuple[Offer, ...] = ()
    loc: Span | None = _loc_field()


ActionExpr = InternalAction | Comm


# ---------------------------------------------------------------------------
# Behaviour expressions
# ---------------------------------------------------------------------------

class Behavior:
    """Common base for all behaviour nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Stop(Behavior):
    loc: Span | None = _loc_field()


@dataclass(frozen=True)
class Exit(Behavior):
    loc: Span | None = _loc_field()


@dataclass(frozen=True)
class Prefix(Behavior):
    action: ActionExpr
    rest: Behavior
    loc: Span | None = _loc_field()


@dataclass(frozen=True)
class Choice(Behavior):
    left: Behavior
    right: Behavior
    loc: Span | None = _loc_field()


class ParKind(enum.Enum):
    """The three parallel forms: free interleaving ``|||``, synchronization
    on every gate ``||``, and an explicit gate set ``|[...]|``."""

    INTERLEAVE = "|||"
    FULL = "||"
    GATES = "|[]|"


@dataclass(frozen=True)
class Par(Behavior):
    left: Behavior
    kind: ParKind
    gates: frozenset[str]  # only meaningful for ParKind.GATES
    right: Behavior
    loc: Span | None = _loc_field()


@dataclass(frozen=True)
class Hide(Behavior):
    gates: frozenset[str]
    body: Behavior
    loc: Span | None = _loc_field()


@dataclass(frozen=True)
class Seq(Behavior):
    """Sequential composition ``left >> right``; enabled by successful
    termination of the left operand."""

    left: Behavior
    right: Behavior
    loc: Span | None = _loc_field()


@dataclass(frozen=True)
class Disrupt(Behavior):
    """``left [> right``: right may take over any time before left
    terminates."""

    left: Behavior
    right: Behavior
    loc: Span | None = _loc_field()


@dataclass(frozen=True)
class Inst(Behavior):
    """Process instantiation with actual gates."""

    process: str
    gates: tuple[str, ...] = ()
    loc: Span | None = _loc_field()


# The binary operators, loosest first: token -> (precedence level, node
# class, ParKind of a parallel form or None).  Every one associates to the
# left.  This is all the parser and the printer know of precedence; the
# parallel forms share one level, because the printer reads a node's
# level by its class.  "|[" opens a gate list that "]|" closes.
OPERATORS: dict[str, tuple[int, type, ParKind | None]] = {
    ">>": (0, Seq, None),
    "[>": (1, Disrupt, None),
    "|||": (2, Par, ParKind.INTERLEAVE),
    "||": (2, Par, ParKind.FULL),
    "|[": (2, Par, ParKind.GATES),
    "[]": (3, Choice, None),
}
# the action prefix "a; B" binds tighter than every binary operator
PREFIX_LEVEL = 4


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SortDecl:
    name: str
    values: tuple[str, ...]
    loc: Span | None = _loc_field()


@dataclass(frozen=True)
class ProcessDef:
    name: str
    formal_gates: tuple[str, ...]
    functionality: str  # "noexit" | "exit"
    body: Behavior
    loc: Span | None = _loc_field()


@dataclass(frozen=True)
class Specification:
    name: str
    top_gates: tuple[str, ...]
    sorts: tuple[SortDecl, ...]
    processes: tuple[ProcessDef, ...]
    top_behavior: Behavior
    loc: Span | None = _loc_field()

    def process(self, name: str) -> ProcessDef | None:
        return self._process_table.get(name)

    def sort(self, name: str) -> SortDecl | None:
        return self._sort_table.get(name)

    # Built on first use and kept in the instance, which is never mutated;
    # on a duplicate name the first declaration wins, as for a linear scan.
    @cached_property
    def _process_table(self) -> dict[str, ProcessDef]:
        return {p.name: p for p in reversed(self.processes)}

    @cached_property
    def _sort_table(self) -> dict[str, SortDecl]:
        return {s.name: s for s in reversed(self.sorts)}

    def value_sorts(self) -> dict[str, str]:
        """Map each declared value to its sort.  Values are required to be
        globally unique across sorts (enforced by the validator); on a
        clash the first declaration wins here."""
        table: dict[str, str] = {}
        for s in self.sorts:
            for v in s.values:
                table.setdefault(v, s.name)
        return table


# The fields of each behaviour node class that hold its behaviour
# children, left to right.
_CHILD_FIELDS: dict[type, tuple[str, ...]] = {
    Stop: (), Exit: (), Inst: (), Prefix: ("rest",), Hide: ("body",),
    Choice: ("left", "right"), Par: ("left", "right"),
    Seq: ("left", "right"), Disrupt: ("left", "right"),
}


def children(b: Behavior) -> tuple[Behavior, ...]:
    """Direct behaviour children of a node, left to right."""
    return tuple(getattr(b, name) for name in _CHILD_FIELDS[type(b)])


def walk(b: Behavior) -> Iterator[Behavior]:
    """Every node of b in preorder, left operand before right."""
    todo = [b]
    while todo:
        node = todo.pop()
        yield node
        for name in reversed(_CHILD_FIELDS[type(node)]):
            todo.append(getattr(node, name))


def rebuild(b: Behavior, f: Callable[[Behavior], Behavior]) -> Behavior:
    """b rebuilt bottom-up: each node gets its rebuilt children, keeping
    its other fields and its location (a node whose children are all
    unchanged is kept as it is), and is then replaced by f(node).  f sees
    the nodes in postorder, left operand before right."""
    done: list[Behavior] = []
    # (node, False) to visit, or (node, True) to build from its children,
    # the last len(fields) entries of done
    todo: list[tuple[Behavior, bool]] = [(b, False)]
    while todo:
        node, build = todo.pop()
        fields = _CHILD_FIELDS[type(node)]
        if fields and not build:
            todo.append((node, True))
            for name in reversed(fields):
                todo.append((getattr(node, name), False))
            continue
        if fields:
            new = done[-len(fields):]
            del done[-len(fields):]
            if any(map(is_not, new, [getattr(node, name) for name in fields])):
                node = replace(node, **dict(zip(fields, new)))
        done.append(f(node))
    return done[0]
