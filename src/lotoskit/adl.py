"""Architecture configurations: named component and connector instances
bound to defined processes, composed by a behaviour expression.

Validation enforces the architectural style: at least two components, at
least one connector, unique instance names, resolvable bindings with the
right gate counts, and no pair of components synchronising with each
other directly (components talk through connectors).

Flattening turns a valid configuration into an ordinary specification
whose top behaviour is the composition with every instance name replaced
by its bound process, so the whole verification tool chain applies.
"""
from __future__ import annotations

from bisect import bisect_left

from .record import Record
from .syntax import ast
from .syntax.diagnostics import Violation

COMPONENT = "component"
CONNECTOR = "connector"


class ArchElement(Record):
    """One instance in a configuration: its name, its role, the process it
    runs and the actual gates the process is wired to."""

    __slots__ = ("name", "role", "process", "gates")

    def __init__(self, name: str, role: str, process: str, gates: tuple[str, ...] = ()):
        # role is COMPONENT or CONNECTOR
        super().__init__(name, role, process, gates)


class ArchConfig(Record):
    """The composition's locations are token indices into the
    configuration's text, which the hidden slot _source keeps when the
    config was parsed."""

    __slots__ = ("name", "uses", "elements", "composition", "_source", "_element_table")
    name: str
    uses: tuple[str, ...]  # behaviour files the bindings resolve against
    elements: tuple[ArchElement, ...]
    composition: ast.Behavior  # instantiates elements by name, no gates

    def __init__(self, name: str, uses: tuple[str, ...], elements: tuple[ArchElement, ...],
                 composition: ast.Behavior, source: str | None = None):
        super().__init__(name, uses, elements, composition)
        object.__setattr__(self, "_source", source)

    def element(self, name: str) -> ArchElement | None:
        # the table is built on first use; on a duplicate name the first
        # declaration wins
        try:
            table = self._element_table
        except AttributeError:
            table = {e.name: e for e in reversed(self.elements)}
            object.__setattr__(self, "_element_table", table)
        return table.get(name)


# ----------------------------------------------------------------------
# validation


def validate_config(config: ArchConfig, sources: list[ast.Specification]) -> list[Violation]:
    out: list[Violation] = []

    processes: dict[str, ast.ProcessDef] = {}
    for spec in sources:
        for p in spec.processes:
            if p.name in processes:
                out.append(Violation("duplicate-name", f"process '{p.name}' is defined by more than one source"))
            else:
                processes[p.name] = p

    seen: set[str] = set()
    for e in config.elements:
        if e.name in seen:
            out.append(Violation("duplicate-name", f"instance '{e.name}' is declared twice"))
        seen.add(e.name)

    components = [e for e in config.elements if e.role == COMPONENT]
    if len(components) < 2:
        out.append(
            Violation(
                "too-few-components",
                f"an architecture needs at least two components, found {len(components)}",
            )
        )
    if not any(e.role == CONNECTOR for e in config.elements):
        out.append(Violation("no-connector", "an architecture needs at least one connector"))

    for e in config.elements:
        target = processes.get(e.process)
        if target is None:
            out.append(
                Violation(
                    "unresolved-element",
                    f"instance '{e.name}' binds process '{e.process}', which no source defines",
                )
            )
        elif len(e.gates) != len(target.formal_gates):
            out.append(
                Violation(
                    "gate-mismatch",
                    f"instance '{e.name}': process '{e.process}' takes "
                    f"{len(target.formal_gates)} gate(s), got {len(e.gates)}",
                )
            )

    for node in ast.walk(config.composition):
        if isinstance(node, ast.Inst):
            if config.element(node.process) is None:
                out.append(
                    Violation(
                        "unresolved-element",
                        f"composition instantiates '{node.process}', which is not a declared instance",
                    )
                )
            elif node.gates:
                out.append(
                    Violation(
                        "gate-mismatch",
                        f"instance '{node.process}' already carries its gates; "
                        "the composition must use the bare name",
                    )
                )

    out.extend(_coupling_violations(config))
    return out


def _coupling_violations(config: ArchConfig) -> list[Violation]:
    """Components on opposite sides of a synchronising parallel operator
    must not share a synchronised gate; only connectors mediate.

    One walk lists the composition's component instances in preorder, in
    which each operand's instances are a contiguous run, and notes for
    each synchronising operator where its operands' runs begin and end.
    An index from each gate to the positions of the instances that carry
    it then finds the coupled pairs of an operator from the gates of its
    smaller operand, so the work is O(n log n) plus the pairs reported.
    Pairs come per operator in preorder, left instance before right, as
    a walk of both operands at every operator would list them."""
    comps: list[ArchElement] = []
    # per synchronising operator in preorder: [node, start of its left
    # run, start of its right run, end of its right run]
    spans: list[list] = []
    todo: list = [config.composition]
    while todo:
        node = todo.pop()
        if type(node) is list:  # an operand of spans' entry node ends here
            node.append(len(comps))
        elif isinstance(node, ast.Par) and node.kind is not ast.ParKind.INTERLEAVE:
            span = [node, len(comps)]
            spans.append(span)
            todo += [span, node.right, span, node.left]
        else:
            if isinstance(node, ast.Inst):
                e = config.element(node.process)
                if e is not None and e.role == COMPONENT:
                    comps.append(e)
            todo.extend(reversed(ast.children(node)))

    carriers: dict[str, list[int]] = {}
    for k, e in enumerate(comps):
        for g in set(e.gates):
            carriers.setdefault(g, []).append(k)

    out: list[Violation] = []
    for node, lo, mid, hi in spans:
        smaller = range(lo, mid) if mid - lo <= hi - mid else range(mid, hi)
        gates = {g for k in smaller for g in comps[k].gates}
        if node.kind is ast.ParKind.GATES:
            gates &= node.gates
        pairs: set[tuple[int, int]] = set()
        for g in gates:
            at = carriers[g]
            left = at[bisect_left(at, lo):bisect_left(at, mid)]
            right = at[bisect_left(at, mid):bisect_left(at, hi)]
            pairs.update((l, r) for l in left for r in right)
        for l, r in sorted(pairs):
            shared = set(comps[l].gates) & set(comps[r].gates)
            if node.kind is ast.ParKind.GATES:
                shared &= node.gates
            out.append(
                Violation(
                    "direct-component-coupling",
                    f"components '{comps[l].name}' and '{comps[r].name}' synchronise directly "
                    f"on gate '{min(shared)}'",
                )
            )
    return out


# ----------------------------------------------------------------------
# flattening


def flatten(config: ArchConfig, sources: list[ast.Specification]) -> ast.Specification:
    """Build the specification a valid configuration denotes.  The result
    parses, validates and explores with the ordinary machinery; its top
    gates are the unhidden gates of the composition in first-use order.
    Its top behaviour's token indices index into the configuration's
    text, and each process's and sort's into its own source's."""

    def bind(b: ast.Behavior) -> ast.Behavior:
        if not isinstance(b, ast.Inst):
            return b
        e = config.element(b.process)
        if e is None:
            raise ValueError(f"'{b.process}' is not a declared instance")
        return ast.Inst(e.process, e.gates, loc=b.loc)

    top = ast.rebuild(config.composition, bind)

    # the free gates in first use, on a stack of (node, gates hidden there)
    top_gates: dict[str, None] = {}
    todo = [(top, frozenset())]
    while todo:
        b, hidden = todo.pop()
        if isinstance(b, ast.Hide):
            hidden = hidden | b.gates
        elif isinstance(b, ast.Inst):
            top_gates.update(dict.fromkeys(g for g in b.gates if g not in hidden))
        elif isinstance(b, ast.Prefix) and isinstance(b.action, ast.Comm):
            if b.action.gate not in hidden:
                top_gates[b.action.gate] = None
        todo.extend((c, hidden) for c in reversed(ast.children(b)))

    # on a name declared by more than one source the first wins
    sorts: dict[str, ast.SortDecl] = {}
    processes: dict[str, ast.ProcessDef] = {}
    for spec in sources:
        for s in spec.sorts:
            sorts.setdefault(s.name, s)
        for p in spec.processes:
            processes.setdefault(p.name, p)

    return ast.Specification(
        name=config.name,
        top_gates=tuple(top_gates),
        sorts=tuple(sorts.values()),
        processes=tuple(processes.values()),
        top_behavior=top,
        source=config._source,
    )
