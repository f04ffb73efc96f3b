"""Property checking over explicit transition systems.

Everything here works on the Lts produced by the semantics (or read back
from an .aut file): deadlock freedom, reachability of a labelled step,
safety monitors, strong bisimulation with a distinguishing experiment as
evidence, quotient minimisation, and the Aldebaran .aut exchange format.

Deadlock, reachability and safety are one breadth-first search over
(system state, observer state) pairs; the observers are "was the last
step exit", "has a step matched" and the user's monitor.  Only states
reachable from the initial one count, and traces are shortest whatever
order the transitions are listed in.

Bisimulation and minimize share one worklist partition refinement: a
round signs again only the states with a target that moved in the round
before, and the rounds are kept as a split tree (each block's parent and
round of birth), which the distinguishing experiment reads.

All of it reads a system's one transition table: the rows Lts.out of
(label id, target) pairs, with Lts.label_text turning ids back into
text.  Ids are numbered in label-text order, so the search memoises
observer moves per id, refinement signs states with plain ints, and
sorting by id orders moves by label text for minimize and the
experiment.  bisim_equiv joins two tables over their merged labels.
read_aut fills the rows straight from the text.
"""
from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable

from .semantics import Lts
from .syntax.diagnostics import Diagnostic, SYNTAX_ERROR, Span, error

# ----------------------------------------------------------------------
# label patterns

_WILDCARD = "*"


@dataclass(frozen=True)
class LabelPattern:
    """Matches transition labels.  The gate is a name, "i", "exit", or "*"
    (any observable gate); offers are literal values or "*" per position
    and the offer count must match exactly."""

    gate: str
    offers: tuple[str, ...] = ()

    def matches(self, label: str) -> bool:
        parts = label.split()
        gate, values = parts[0], [p[1:] for p in parts[1:]]
        if self.gate in ("i", "exit"):
            return gate == self.gate
        if gate in ("i", "exit"):
            return False
        if self.gate != _WILDCARD and self.gate != gate:
            return False
        if len(self.offers) != len(values):
            return False
        return all(o == _WILDCARD or o == v for o, v in zip(self.offers, values))

    def __str__(self) -> str:
        return " ".join([self.gate] + [f"!{o}" for o in self.offers])


_IDENT = re.compile(r"[A-Za-z][A-Za-z0-9_]*(?:-[A-Za-z0-9_]+)*\Z")


def parse_label_pattern(text: str) -> LabelPattern:
    """Parse "gate !v !*" style pattern text; raises ValueError."""
    parts = text.split()
    if not parts:
        raise ValueError("empty label pattern")
    gate = parts[0]
    if gate != _WILDCARD and not _IDENT.match(gate):
        raise ValueError(f"bad gate pattern '{gate}'")
    offers = []
    for p in parts[1:]:
        if not p.startswith("!"):
            raise ValueError(f"offer pattern '{p}' must start with '!'")
        v = p[1:]
        if v != _WILDCARD and not _IDENT.match(v):
            raise ValueError(f"bad offer pattern '{p}'")
        offers.append(v)
    if gate in ("i", "exit") and offers:
        raise ValueError(f"'{gate}' takes no offers")
    return LabelPattern(gate, tuple(offers))


# ----------------------------------------------------------------------
# results


@dataclass
class VerifyResult:
    ok: bool
    detail: str
    trace: list[str] | None = None

    def __bool__(self) -> bool:
        return self.ok


# ----------------------------------------------------------------------
# the search behind every check


def _search(lts: Lts, start: object, step: Callable[[object, str], object],
            bad: Callable[[int, object], bool]) -> tuple[tuple[int, object], list[str]] | None:
    """Breadth-first search of the product of lts with a deterministic
    observer: start is the observer's initial state, step(obs, label) its
    move, and bad(state, obs) the goal on (system state, observer state)
    pairs.  Returns the first bad pair reachable from the initial one with
    a shortest trace to it, or None.  step runs once per observer state
    and distinct label."""
    if not lts.num_states:  # des (0, 0, 0): not even an initial state
        return None
    n, text = lts.num_states, lts.label_text
    # observers are numbered as met, and a pair is keyed as the int
    # observer number * n + state; moves[k][label id] is the number of
    # observer k's move on that label, None until first needed
    observers = [start]
    number = {start: 0}
    moves: list[list[int | None]] = [[None] * len(text)]
    root = lts.initial
    parent: dict[int, tuple[int, int] | None] = {root: None}
    hit = root if bad(root, start) else None
    out = lts.out
    queue = deque([root])
    while queue and hit is None:
        key = queue.popleft()
        k, s = divmod(key, n)
        memo = moves[k]
        for lab, dst in out[s]:
            j = memo[lab]
            if j is None:
                nobs = step(observers[k], text[lab])
                j = number.get(nobs)
                if j is None:
                    j = number[nobs] = len(observers)
                    observers.append(nobs)
                    moves.append([None] * len(text))
                memo[lab] = j
            nxt = j * n + dst
            if nxt in parent:
                continue
            parent[nxt] = (key, lab)
            if bad(dst, observers[j]):
                hit = nxt
                break
            queue.append(nxt)
    if hit is None:
        return None
    trace: list[str] = []
    edge = parent[hit]
    while edge is not None:
        key, lab = edge
        trace.append(text[lab])
        edge = parent[key]
    trace.reverse()
    k, s = divmod(hit, n)
    return (s, observers[k]), trace


# ----------------------------------------------------------------------
# deadlock and reachability


def check_deadlock(lts: Lts) -> VerifyResult:
    """ok when no reachable state without moves is initial or entered by a
    step other than exit; a run that enters it by exit has terminated
    successfully."""
    found = _search(
        lts, False,
        lambda _, label: label == "exit",
        lambda s, exited: not exited and not lts.out[s],
    )
    if found is None:
        return VerifyResult(ok=True, detail=f"no deadlock in {lts.num_states} state(s)")
    (s, _), trace = found
    form = lts.form_text(s)
    where = f"state {s}" if form is None else f"state {s} = {form}"
    return VerifyResult(ok=False, detail=f"deadlock at {where}", trace=trace)


def check_reachable(lts: Lts, pattern: LabelPattern) -> VerifyResult:
    """ok when some reachable transition matches; the trace ends with it."""
    found = _search(
        lts, False,
        lambda matched, label: matched or pattern.matches(label),
        lambda _, matched: matched,
    )
    if found is None:
        return VerifyResult(ok=False, detail=f"no transition matches '{pattern}'")
    _, trace = found
    return VerifyResult(ok=True, detail=f"'{trace[-1]}' is reachable", trace=trace)


# ----------------------------------------------------------------------
# safety monitors


@dataclass
class Monitor:
    """Deterministic observer.  On each label the first listed transition
    out of the current state whose pattern matches is taken; with no match
    the monitor stays put.  Reaching a bad state is a violation."""

    states: tuple[str, ...]
    initial: str
    bad: frozenset[str]
    rules: tuple[tuple[str, str, LabelPattern], ...]

    def step(self, state: str, label: str) -> str:
        for src, dst, pat in self.rules:
            if src == state and pat.matches(label):
                return dst
        return state


def parse_monitor(text: str) -> tuple[Monitor | None, list[Diagnostic]]:
    """Line format: "states a b ...", "initial a", "bad a ...",
    "trans src dst label-pattern"; '#' starts a comment."""
    states: list[str] = []
    initial: str | None = None
    bad: set[str] = set()
    rules: list[tuple[str, str, LabelPattern]] = []
    diags: list[Diagnostic] = []

    def fail(line_no: int, message: str) -> tuple[None, list[Diagnostic]]:
        diags.append(error(message, Span.point(line_no, 1), SYNTAX_ERROR))
        return None, diags

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 1)
        head, rest = parts[0], parts[1] if len(parts) > 1 else ""
        if head == "states":
            states.extend(rest.split())
        elif head == "initial":
            names = rest.split()
            if len(names) != 1:
                return fail(line_no, "initial takes exactly one state")
            initial = names[0]
        elif head == "bad":
            bad.update(rest.split())
        elif head == "trans":
            fields = rest.split(None, 2)
            if len(fields) < 3:
                return fail(line_no, "trans needs: source, target, label pattern")
            src, dst, pat_text = fields
            try:
                pat = parse_label_pattern(pat_text)
            except ValueError as exc:
                return fail(line_no, str(exc))
            rules.append((src, dst, pat))
        else:
            return fail(line_no, f"unknown directive '{head}'")

    if initial is None:
        return fail(1, "monitor has no initial state")
    known = set(states)
    for name in [initial, *sorted(bad)] + [s for r in rules for s in r[:2]]:
        if name not in known:
            return fail(1, f"state '{name}' is not listed under 'states'")
    return Monitor(tuple(states), initial, frozenset(bad), tuple(rules)), diags


def check_safety(lts: Lts, monitor: Monitor) -> VerifyResult:
    """ok when the product of system and monitor reaches no bad monitor
    state.  A violation comes with a shortest trace."""
    found = _search(lts, monitor.initial, monitor.step, lambda _, state: state in monitor.bad)
    if found is None:
        return VerifyResult(ok=True, detail=f"monitor stays out of {sorted(monitor.bad)}")
    (_, state), trace = found
    return VerifyResult(ok=False, detail=f"monitor reaches bad state '{state}'", trace=trace)


# ----------------------------------------------------------------------
# strong bisimulation


def _refine(out: list[list[tuple[int, int]]], num_labels: int
            ) -> tuple[list[int], list[int], list[int]]:
    """Partition refinement by signatures over rows of (label id, target)
    with ids below num_labels.  Round 0 puts every state in one block;
    round r splits each block of round r - 1 by its members' signatures,
    the sets of (label, block of target) pairs, and the first round that
    moves no state ends the loop.

    A round signs again only the states with a target that moved in the
    round before.  Such a state has a target in a block born in that
    round, which no other state of its block has, so the states not
    signed stay together and apart from the signed ones.  While most
    states move, a round signs them all, and neither predecessor lists
    nor block members are built.  A block that splits keeps its id for
    its largest part and gives each other part a new one.  Instead of
    every round's blocks, the result keeps the split tree: each block's
    parent and the round it was born in, from which _block_at recovers
    any round's blocks.  Memory is O(n + m).

    Returns (block, parent, born): each state's block in the stable
    partition, and per block the block it split from (-1 for the first)
    and its round of birth."""
    n = len(out)
    block = [0] * n
    parent, born = [-1], [0]
    preds: list[list[int]] | None = None
    members: list[set[int]] | None = None  # built with preds
    rounds = 0
    todo: Iterable[int] = range(n)
    while True:
        rounds += 1
        # a move (label, target) signs as the int block of target *
        # num_labels + label, and a signature is keyed as its sorted
        # tuple, which takes less memory than a frozenset
        signed: dict[tuple[int, tuple], list[int]] = {}
        for s in todo:
            sig = set()  # a plain loop: cheaper than a comprehension here
            for label, dst in out[s]:
                sig.add(block[dst] * num_labels + label)
            signed.setdefault((block[s], tuple(sorted(sig))), []).append(s)
        if preds is None and len(signed) == len(parent):  # every block signed alike
            return block, parent, born
        parts: dict[int, list[list[int]]] = {}
        for (b, _), group in signed.items():
            parts.setdefault(b, []).append(group)
        moved: list[int] = []
        for b, groups in parts.items():
            # the members of b not signed form one more part
            unsigned = 0 if members is None else len(members[b]) - sum(map(len, groups))
            if not unsigned and len(groups) == 1:
                continue
            largest = max(groups, key=len)
            if len(largest) > unsigned:  # else the unsigned part keeps b
                if members is not None:
                    rest = members[b].difference(*groups)
                    members[b] = set(largest)
                    if rest:
                        groups.append(list(rest))
                groups.remove(largest)
            elif members is not None:
                for group in groups:
                    members[b].difference_update(group)
            for group in groups:
                c = len(parent)
                parent.append(b)
                born.append(rounds)
                if members is not None:
                    members.append(set(group))
                for s in group:
                    block[s] = c
                moved.extend(group)
        if not moved:
            return block, parent, born
        if preds is None and 2 * len(moved) < n:
            preds = [[] for _ in range(n)]
            members = [set() for _ in parent]
            for s in range(n):
                members[block[s]].add(s)
                for _, dst in out[s]:
                    preds[dst].append(s)
        todo = range(n) if preds is None else {p for s in moved for p in preds[s]}
        del signed, parts, groups, moved  # not to hold them while the next round signs


def _block_at(parent: list[int], born: list[int], blk: int, r: int) -> int:
    """The block that held the members of blk after round r."""
    while born[blk] > r:
        blk = parent[blk]
    return blk


def _distinguish(
    s1: int,
    s2: int,
    out: list[list[tuple[int, int]]],
    block: list[int],
    parent: list[int],
    born: list[int],
) -> list[int]:
    """One experiment a refuter can play to tell two non-bisimilar states
    apart: every label in the list is answered by the opponent until the
    last one, which exactly one side can perform.

    Each step looks at the round r that first separated the pair, found
    where their branches of the split tree meet.  Their signatures
    differ in the blocks of round r - 1; the side with a move the other
    cannot match takes the smallest such label (the first listed such
    move of that label), the other answers with its first move of that
    label, and that new pair was separated before round r."""
    trace: list[str] = []
    while True:
        # the pair split in round r where their branches of the split
        # tree meet: lift the later-born block until the two are one
        x, y = block[s1], block[s2]
        while x != y:
            if born[x] < born[y]:
                x, y = y, x
            r = born[x]
            x = parent[x]
        pair = (s1, s2)
        sigs = [[(label, _block_at(parent, born, block[dst], r - 1)) for label, dst in out[s]]
                for s in pair]
        owner = 0 if set(sigs[0]) - set(sigs[1]) else 1
        theirs = set(sigs[1 - owner])
        label, k = min((move[0], k) for k, move in enumerate(sigs[owner]) if move not in theirs)
        trace.append(label)
        replies = [dst for lab, dst in out[pair[1 - owner]] if lab == label]
        if not replies:
            return trace
        s1, s2 = out[pair[owner]][k][1], replies[0]


def _joined(a: Lts, b: Lts) -> tuple[list[list[tuple[int, int]]], list[str]]:
    """The rows of a followed by those of b, targets shifted past a's
    states, over the merged label table, which is also returned.  When
    the merged table is a's, a's rows are used as they are."""
    text = sorted(set(a.label_text).union(b.label_text))
    number = {t: k for k, t in enumerate(text)}
    offset = a.num_states
    if text == a.label_text:
        out = list(a.out)
    else:
        ids = [number[t] for t in a.label_text]
        out = [[(ids[lab], dst) for lab, dst in row] for row in a.out]
    ids = [number[t] for t in b.label_text]
    out += [[(ids[lab], offset + dst) for lab, dst in row] for row in b.out]
    return out, text


def bisim_equiv(a: Lts, b: Lts) -> VerifyResult:
    """Strong bisimulation equivalence of two systems.  A system without
    states (des (0, 0, 0)) is equivalent only to another without states."""
    if not a.num_states or not b.num_states:
        if a.num_states == b.num_states:
            return VerifyResult(ok=True, detail="strongly bisimilar")
        return VerifyResult(ok=False, detail="not strongly bisimilar; only one system has states")
    out, text = _joined(a, b)
    block, parent, born = _refine(out, len(text))
    s1, s2 = a.initial, a.num_states + b.initial
    if block[s1] == block[s2]:
        return VerifyResult(ok=True, detail="strongly bisimilar")
    trace = _distinguish(s1, s2, out, block, parent, born)
    return VerifyResult(
        ok=False,
        detail="not strongly bisimilar; evidence is a distinguishing experiment "
        "whose last step only one side can answer",
        trace=[text[lab] for lab in trace],
    )


def minimize(lts: Lts) -> Lts:
    """Quotient by strong bisimilarity, renumbered breadth-first from the
    initial block (per block, transitions ordered by label text then by
    the target block's smallest original state)."""
    if not lts.num_states:  # des (0, 0, 0): not even an initial state
        return Lts(out=[], label_text=[])
    out = lts.out
    block, _, _ = _refine(out, len(lts.label_text))

    rep: dict[int, int] = {}
    for s in range(lts.num_states):
        rep.setdefault(block[s], s)

    # label ids sort as their texts do
    moves: dict[int, list[tuple[int, int]]] = {}
    for blk, r in rep.items():
        moves[blk] = sorted(
            {(label, block[dst]) for label, dst in out[r]},
            key=lambda t: (t[0], rep[t[1]]),
        )

    order = {block[lts.initial]: 0}
    queue = deque([block[lts.initial]])
    while queue:
        blk = queue.popleft()
        for _, tblk in moves[blk]:
            if tblk not in order:
                order[tblk] = len(order)
                queue.append(tblk)

    # the quotient's table: the labels its rows use, in the same order
    blocks = sorted(order, key=order.get)  # type: ignore[arg-type]
    used = sorted({label for blk in blocks for label, _ in moves[blk]})
    ids = {label: k for k, label in enumerate(used)}
    rows = [[(ids[label], order[tblk]) for label, tblk in moves[blk]] for blk in blocks]
    forms = None
    if lts.forms is not None:
        forms = [lts.forms[rep[blk]] for blk in blocks]
    return Lts(rows, [lts.label_text[label] for label in used], forms=forms)


# ----------------------------------------------------------------------
# .aut exchange format

_AUT_HEADER = re.compile(r"des\s*\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)\s*\Z")
_AUT_LINE = re.compile(r"\(\s*(\d+)\s*,\s*\"([^\"]*)\"\s*,\s*(\d+)\s*\)\s*\Z")
# A line as export_aut writes it, or else the rest of the text.  A label
# holds no character at which str.splitlines breaks a line, so a line
# matched is one whole line of the per-line reader.
_AUT_CANONICAL_HEADER = re.compile(r"des \(([0-9]+), ([0-9]+), ([0-9]+)\)\n")
_AUT_CANONICAL_LINE = re.compile(
    r'\(([0-9]+), "([^"\n\r\v\f\x1c-\x1e\x85\u2028\u2029]*)", ([0-9]+)\)\n|(?s:.+)'
)


def export_aut(lts: Lts) -> str:
    """Aldebaran format: header des (initial, transitions, states), then
    one (source, "label", target) line per transition.  Byte-stable for a
    given system."""
    quoted = [f', "{label}", ' for label in lts.label_text]
    lines = [f"des ({lts.initial}, {lts.num_transitions}, {lts.num_states})"]
    lines += [f"({src}{quoted[lab]}{dst})" for src, row in enumerate(lts.out) for lab, dst in row]
    return "\n".join(lines) + "\n"


def read_aut(text: str) -> Lts:
    """Parse Aldebaran text; raises ValueError on malformed input.

    Lines spelled as export_aut writes them are read on a fast path, one
    regular expression scan that fills the rows; from the first other
    line on, the rest goes through the per-line reader, which accepts
    every spelling and gives the same errors."""
    head = _AUT_CANONICAL_HEADER.match(text)
    if head is None:
        return _read_aut_lines(text)
    initial, num_trans, num_states = (int(g) for g in head.groups())
    # Every other quoted string is a label: the header has no quotes and
    # a transition line two.  Numbered in text order before the scan, the
    # labels need no renumbering after it.  The scan finds each of its own
    # labels here but the blank ones, which are left out for it to reject,
    # and in text that reads, every string here is a label.
    quoted = sorted(label for label in set(text.split('"')[1::2]) if label.strip())
    label_ids = dict(zip(quoted, range(len(quoted))))
    out: list[list[tuple[int, int]]] = []
    rest = ""
    for m in _AUT_CANONICAL_LINE.finditer(text, head.end()):
        s, label, d = m.groups()
        if d is None:
            rest = m.group()
            break
        src, dst = int(s), int(d)
        try:
            lab = label_ids[label]
        except KeyError:
            raise ValueError(f"blank label in .aut transition: {m.group()[:-1]!r}") from None
        if src >= num_states or dst >= num_states:
            raise ValueError(f"state out of range in: {m.group()[:-1]!r}")
        try:
            out[src].append((lab, dst))
        except IndexError:
            _grow(out, src, num_states)
            out[src].append((lab, dst))
    return _read_aut_body(_aut_lines(rest), initial, num_trans, num_states, out, label_ids)


def _grow(out: list[list[tuple[int, int]]], src: int, num_states: int) -> None:
    """Makes rows up to src, at least doubling their number but never past
    num_states: a large state count in the header costs nothing before
    the lines are checked."""
    size = min(num_states, max(src + 1, 2 * len(out)))
    out.extend([] for _ in range(size - len(out)))


def _aut_lines(text: str) -> list[str]:
    return [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]


def _read_aut_lines(text: str) -> Lts:
    """read_aut line by line, for every spelling the format allows."""
    lines = _aut_lines(text)
    if not lines:
        raise ValueError("empty .aut input")
    head = _AUT_HEADER.match(lines[0])
    if not head:
        raise ValueError(f"bad .aut header: {lines[0]!r}")
    initial, num_trans, num_states = (int(g) for g in head.groups())
    return _read_aut_body(lines[1:], initial, num_trans, num_states, [], {})


def _read_aut_body(lines: list[str], initial: int, num_trans: int, num_states: int,
                   out: list[list[tuple[int, int]]], label_ids: dict[str, int]) -> Lts:
    """Adds the transition lines to the rows read so far, checks the
    counts and builds the system.  label_ids numbers 0, 1, ... the labels
    met so far and any more known to come; a new label takes the next
    id."""
    for ln in lines:
        m = _AUT_LINE.match(ln)
        if not m:
            raise ValueError(f"bad .aut transition: {ln!r}")
        src, label, dst = int(m.group(1)), m.group(2), int(m.group(3))
        if not label.strip():
            raise ValueError(f"blank label in .aut transition: {ln!r}")
        if src >= num_states or dst >= num_states:
            raise ValueError(f"state out of range in: {ln!r}")
        lab = label_ids.get(label)
        if lab is None:
            lab = label_ids[label] = len(label_ids)
        if src >= len(out):
            _grow(out, src, num_states)
        out[src].append((lab, dst))
    found = sum(map(len, out))
    if found != num_trans:
        raise ValueError(f"header promises {num_trans} transition(s), found {found}")
    if initial >= num_states and num_states > 0:
        raise ValueError("initial state out of range")
    out.extend([] for _ in range(num_states - len(out)))
    return Lts.from_rows(out, label_ids, initial)
