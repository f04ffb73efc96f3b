"""Abstract syntax of the Basic LOTOS subset with finite-sort value offers.

All nodes are immutable records (see ``lotoskit.record``) whose source
location, ``loc``, is inherited from ``Node``.  Structural equality and
hashing therefore ignore it, so that a tree equals its printed-and-parsed
copy, and so that the explorer's interning table can key an action by
its value: equal actions written at different source positions are one
key.  Interned terms themselves are compared by identity.  The parser
and the explorer build nodes all the time, so each node class sets its
slots in its own ``__init__``.

A parsed node's ``loc`` is the index of its token among the tokens of
the text it was read from, a plain int (None for a node built in code),
so a node costs no location object and parsing works out no offset;
``lexer.locate(text, loc)`` reads the text again up to that token and
works out its line and columns.  The declarations, ``Specification``,
``ProcessDef`` and ``SortDecl``, keep that text in a hidden slot,
``_source``, so a diagnostic can be located even in a specification
whose definitions come from several files, as ``adl.flatten`` builds.

This module is also the one place that knows which fields of a node hold
its behaviour children (``_CHILD_FIELDS``).  Traverse a tree with
``walk`` (every node, in preorder) or rebuild it with ``rebuild`` (a new
tree, bottom-up); both keep their own stack, so a deep tree costs no
recursion.
"""
from __future__ import annotations

import enum
from collections.abc import Callable, Iterator
from operator import is_not

from ..record import Record, by_name


class Node(Record):
    """Common base for all syntax nodes.  Every node class inherits loc,
    the index of the node's token in its source text, so loc is neither
    compared, hashed nor shown."""

    __slots__ = ("loc",)

    def __init__(self, loc: int | None = None):
        _set_loc(self, loc)


# ---------------------------------------------------------------------------
# Value expressions inside offers
# ---------------------------------------------------------------------------

class ValueLit(Node):
    """A concrete value of a declared finite sort."""

    __slots__ = ("value", "sort")

    def __init__(self, value: str, sort: str, loc: int | None = None):
        _set_valuelit_value(self, value)
        _set_valuelit_sort(self, sort)
        _set_loc(self, loc)


class VarRef(Node):
    """A variable bound by an enclosing receive offer."""

    __slots__ = ("name",)

    def __init__(self, name: str, loc: int | None = None):
        _set_varref_name(self, name)
        _set_loc(self, loc)


ValueExpr = ValueLit | VarRef


# ---------------------------------------------------------------------------
# Offers and actions
# ---------------------------------------------------------------------------

class Send(Node):
    """``!e``: offer a concrete value (or a bound variable's value)."""

    __slots__ = ("expr",)

    def __init__(self, expr: ValueExpr, loc: int | None = None):
        _set_send_expr(self, expr)
        _set_loc(self, loc)


class Receive(Node):
    """``?x:S``: bind ``x`` to any value of sort ``S``."""

    __slots__ = ("var", "sort")

    def __init__(self, var: str, sort: str, loc: int | None = None):
        _set_receive_var(self, var)
        _set_receive_sort(self, sort)
        _set_loc(self, loc)


Offer = Send | Receive


class InternalAction(Node):
    """The unobservable action ``i``."""

    __slots__ = ()


class Comm(Node):
    """A (possibly value-carrying) action at a gate; no offers means
    pure synchronization."""

    __slots__ = ("gate", "offers")

    def __init__(self, gate: str, offers: tuple[Offer, ...] = (), loc: int | None = None):
        _set_comm_gate(self, gate)
        _set_comm_offers(self, offers)
        _set_loc(self, loc)


ActionExpr = InternalAction | Comm


# ---------------------------------------------------------------------------
# Behaviour expressions
# ---------------------------------------------------------------------------

class Behavior(Node):
    """Common base for all behaviour nodes."""

    __slots__ = ()


class Stop(Behavior):
    __slots__ = ()


class Exit(Behavior):
    __slots__ = ()


class Prefix(Behavior):
    __slots__ = ("action", "rest")

    def __init__(self, action: ActionExpr, rest: Behavior, loc: int | None = None):
        _set_prefix_action(self, action)
        _set_prefix_rest(self, rest)
        _set_loc(self, loc)


class Choice(Behavior):
    __slots__ = ("left", "right")

    def __init__(self, left: Behavior, right: Behavior, loc: int | None = None):
        _set_choice_left(self, left)
        _set_choice_right(self, right)
        _set_loc(self, loc)


class ParKind(enum.Enum):
    """The three parallel forms: free interleaving ``|||``, synchronization
    on every gate ``||``, and an explicit gate set ``|[...]|``."""

    INTERLEAVE = "|||"
    FULL = "||"
    GATES = "|[]|"


class Par(Behavior):
    __slots__ = ("left", "kind", "gates", "right")

    def __init__(self, left: Behavior, kind: ParKind, gates: frozenset[str], right: Behavior,
                 loc: int | None = None):
        _set_par_left(self, left)
        _set_par_kind(self, kind)
        _set_par_gates(self, gates)  # only meaningful for ParKind.GATES
        _set_par_right(self, right)
        _set_loc(self, loc)


class Hide(Behavior):
    __slots__ = ("gates", "body")

    def __init__(self, gates: frozenset[str], body: Behavior, loc: int | None = None):
        _set_hide_gates(self, gates)
        _set_hide_body(self, body)
        _set_loc(self, loc)


class Seq(Behavior):
    """Sequential composition ``left >> right``; enabled by successful
    termination of the left operand."""

    __slots__ = ("left", "right")

    def __init__(self, left: Behavior, right: Behavior, loc: int | None = None):
        _set_seq_left(self, left)
        _set_seq_right(self, right)
        _set_loc(self, loc)


class Disrupt(Behavior):
    """``left [> right``: right may take over any time before left
    terminates."""

    __slots__ = ("left", "right")

    def __init__(self, left: Behavior, right: Behavior, loc: int | None = None):
        _set_disrupt_left(self, left)
        _set_disrupt_right(self, right)
        _set_loc(self, loc)


class Inst(Behavior):
    """Process instantiation with actual gates."""

    __slots__ = ("process", "gates")

    def __init__(self, process: str, gates: tuple[str, ...] = (), loc: int | None = None):
        _set_inst_process(self, process)
        _set_inst_gates(self, gates)
        _set_loc(self, loc)


# The setters of the slots, through the slots' member descriptors, that
# the __init__ methods above call: the fastest way to fill an instance
# whose __setattr__ raises.
_setattr = object.__setattr__
_set_loc = Node.loc.__set__
_set_valuelit_value, _set_valuelit_sort = ValueLit.value.__set__, ValueLit.sort.__set__
_set_varref_name = VarRef.name.__set__
_set_send_expr = Send.expr.__set__
_set_receive_var, _set_receive_sort = Receive.var.__set__, Receive.sort.__set__
_set_comm_gate, _set_comm_offers = Comm.gate.__set__, Comm.offers.__set__
_set_prefix_action, _set_prefix_rest = Prefix.action.__set__, Prefix.rest.__set__
_set_choice_left, _set_choice_right = Choice.left.__set__, Choice.right.__set__
_set_par_left, _set_par_kind = Par.left.__set__, Par.kind.__set__
_set_par_gates, _set_par_right = Par.gates.__set__, Par.right.__set__
_set_hide_gates, _set_hide_body = Hide.gates.__set__, Hide.body.__set__
_set_seq_left, _set_seq_right = Seq.left.__set__, Seq.right.__set__
_set_disrupt_left, _set_disrupt_right = Disrupt.left.__set__, Disrupt.right.__set__
_set_inst_process, _set_inst_gates = Inst.process.__set__, Inst.gates.__set__

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

class SortDecl(Node):
    __slots__ = ("name", "values", "_source")

    def __init__(self, name: str, values: tuple[str, ...], loc: int | None = None,
                 source: str | None = None):
        Record.__init__(self, name, values)
        _set_loc(self, loc)
        _setattr(self, "_source", source)


class ProcessDef(Node):
    __slots__ = ("name", "formal_gates", "functionality", "body", "_source")

    def __init__(self, name: str, formal_gates: tuple[str, ...], functionality: str,
                 body: Behavior, loc: int | None = None, source: str | None = None):
        # functionality is "noexit" or "exit"
        Record.__init__(self, name, formal_gates, functionality, body)
        _set_loc(self, loc)
        _setattr(self, "_source", source)


class Specification(Node):
    """The top behaviour's locations index into _source; each process and
    sort keeps its own."""

    __slots__ = ("name", "top_gates", "sorts", "processes", "top_behavior", "_source",
                 "_process_table", "_sort_table")

    def __init__(self, name: str, top_gates: tuple[str, ...], sorts: tuple[SortDecl, ...],
                 processes: tuple[ProcessDef, ...], top_behavior: Behavior,
                 loc: int | None = None, source: str | None = None):
        Record.__init__(self, name, top_gates, sorts, processes, top_behavior)
        _set_loc(self, loc)
        _setattr(self, "_source", source)

    def process(self, name: str) -> ProcessDef | None:
        return by_name(self, "_process_table", self.processes).get(name)

    def sort(self, name: str) -> SortDecl | None:
        return by_name(self, "_sort_table", self.sorts).get(name)

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
                kids = dict(zip(fields, new))
                node = type(node)(*[kids[name] if name in kids else getattr(node, name)
                                    for name in node._fields], loc=node.loc)
        done.append(f(node))
    return done[0]
