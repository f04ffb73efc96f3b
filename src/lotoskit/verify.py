"""Property checking over explicit transition systems.

Everything here works on an Lts, generated by the semantics or read back
from an .aut file: deadlock freedom, reachability of a labelled step,
safety monitors, strong bisimulation with a distinguishing experiment as
evidence, quotient minimisation, and the Aldebaran .aut exchange format.

Deadlock, reachability and safety are one breadth-first search over
(system state, observer state) pairs; the observers are "was the last
step exit", "has a step matched" and the user's monitor.  Only states
reachable from the initial one count, and traces are shortest whatever
order the transitions are listed in.  They read a state's row only
when the search first reaches it, so on a system still exploring (an
Exploration of a specification) the check runs on the fly, in lockstep
with generation, as in OPEN/CAESAR (Garavel, TACAS 1998) and SPIN
(Holzmann, IEEE TSE 1997).  An exploration numbers and expands states
breadth-first, the order in which the search reads them, so the search
meets the same rows as on the generated Lts and returns the same pair
and trace, but expands no state past the one where it stops.  A search
that finds nothing has read every row.  Everything else reads the whole
table, and finishes an exploration first.

Bisimulation and minimize share one worklist partition refinement: a
round signs again only the states with a target that moved in the round
before, and the rounds are kept as a split tree (each block's parent and
round of birth), which the distinguishing experiment reads.

All of it reads a system's one transition table: the rows Lts.out of
(label id, target) pairs, with Lts.label_text turning ids back into
text.  Every table numbers its labels as first met, and ids are only
names: the search memoises observer moves per id and refinement signs
states with plain ints.  Label text is compared only where moves are
ordered, by minimize and the experiment.  bisim_equiv extends the first
system's table with the second's other labels.  read_aut fills the rows
straight from the text, in one scan that takes every spelling.
"""
from __future__ import annotations

import re
from collections import deque
from typing import Callable, Iterable

from .record import Record
from .semantics import Lts
from .syntax.diagnostics import Diagnostic, SYNTAX_ERROR, Span, UNKNOWN_STATE, error
from .syntax.lexer import IDENT

# ----------------------------------------------------------------------
# label patterns

_WILDCARD = "*"


class LabelPattern(Record):
    """Matches transition labels.  The gate is a name, "i", "exit", or "*"
    (any observable gate); offers are literal values or "*" per position
    and the offer count must match exactly."""

    __slots__ = ("gate", "offers")

    def __init__(self, gate: str, offers: tuple[str, ...] = ()):
        super().__init__(gate, offers)

    def matches(self, label: str) -> bool:
        words = label.split()
        # an .aut label may have no words, or a word that is no offer
        if not words or any(not o.startswith("!") for o in words[1:]):
            return False
        gate, *offers = words
        if self.gate in ("i", "exit") or gate in ("i", "exit"):
            return gate == self.gate and not offers
        return (self.gate in (_WILDCARD, gate) and len(self.offers) == len(offers)
                and all(o == _WILDCARD or "!" + o == v for o, v in zip(self.offers, offers)))

    def __str__(self) -> str:
        return " ".join([self.gate] + [f"!{o}" for o in self.offers])


def parse_label_pattern(text: str) -> LabelPattern:
    """Parse "gate !v !*" style pattern text; raises ValueError."""
    parts = text.split()
    if not parts:
        raise ValueError("empty label pattern")
    gate = parts[0]
    if gate != _WILDCARD and not re.fullmatch(IDENT, gate):
        raise ValueError(f"bad gate pattern '{gate}'")
    offers = []
    for p in parts[1:]:
        if not p.startswith("!"):
            raise ValueError(f"offer pattern '{p}' must start with '!'")
        v = p[1:]
        if v != _WILDCARD and not re.fullmatch(IDENT, v):
            raise ValueError(f"bad offer pattern '{p}'")
        offers.append(v)
    if gate in ("i", "exit") and offers:
        raise ValueError(f"'{gate}' takes no offers")
    return LabelPattern(gate, tuple(offers))


# ----------------------------------------------------------------------
# results


class VerifyResult(Record):
    __slots__ = ("ok", "detail", "trace")

    def __init__(self, ok: bool, detail: str, trace: list[str] | None = None):
        super().__init__(ok, detail, trace)

    def __bool__(self) -> bool:
        return self.ok


def format_trace(trace: list[str]) -> str:
    """A trace as the command line prints it: labels joined by " ; ",
    "<empty>" for none."""
    return " ; ".join(trace) if trace else "<empty>"


# ----------------------------------------------------------------------
# the search behind every check


def _search(lts: Lts, start: object, step: Callable[[object, str], object],
            bad: Callable[[int, object], bool]) -> tuple[tuple[int, object], list[str]] | None:
    """Breadth-first search of the product of lts with a deterministic
    observer: start is the observer's initial state, step(obs, label) its
    move, and bad(state, obs) the goal on (system state, observer state)
    pairs.  Returns the first bad pair reachable from the initial one with
    a shortest trace to it, or None.  step runs once per observer state
    and distinct label.

    A row is read only when the search reaches its state, so on a system
    still exploring the search runs in lockstep with it, and the label
    table may grow meanwhile."""
    if not lts.num_states:  # des (0, 0, 0): not even an initial state
        return None
    text = lts.label_text
    # observers are numbered as met, and a pair is keyed as the int
    # observer number * n + state, for an n above every state number;
    # moves[k] maps a label id to the number of observer k's move on that
    # label, filled as first needed
    n = lts.state_bound
    observers = [start]
    number = {start: 0}
    moves: list[dict[int, int]] = [{}]
    root = lts.initial
    # each pair but the root was first reached from parent[pair] by a step
    # labelled via[pair]; two dicts of ints make no tuple per pair
    parent: dict[int, int] = {root: -1}
    via: dict[int, int] = {}
    hit = root if bad(root, start) else None
    queue = deque([root])
    while queue and hit is None:
        key = queue.popleft()
        k, s = divmod(key, n)
        memo = moves[k]
        for lab, dst in lts.row(s):
            j = memo.get(lab)
            if j is None:
                nobs = step(observers[k], text[lab])
                j = number.get(nobs)
                if j is None:
                    j = number[nobs] = len(observers)
                    observers.append(nobs)
                    moves.append({})
                memo[lab] = j
            nxt = j * n + dst
            if nxt in parent:
                continue
            parent[nxt] = key
            via[nxt] = lab
            if bad(dst, observers[j]):
                hit = nxt
                break
            queue.append(nxt)
    if hit is None:
        return None
    trace: list[str] = []
    key = hit
    while key != root:
        trace.append(text[via[key]])
        key = parent[key]
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
        lambda s, exited: not exited and not lts.row(s),
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


class Monitor(Record):
    """Deterministic observer.  On each label the first listed transition
    out of the current state whose pattern matches is taken; with no match
    the monitor stays put.  Reaching a bad state is a violation."""

    __slots__ = ("states", "initial", "bad", "rules")
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
    """Line format: "states a b ...", "initial a" (exactly once), "bad
    a ...", "trans src dst label-pattern"; '#' starts a comment.  A line
    reader: every problem is reported at its line, in line order, and
    then there is no monitor."""
    states: list[str] = []
    initial: str | None = None
    initial_line = 0
    bad: set[str] = set()
    rules: list[tuple[str, str, LabelPattern]] = []
    diags: list[Diagnostic] = []
    # each state an initial, bad or trans line names -> the first such line
    named: dict[str, int] = {}

    def fail(line_no: int, message: str, code: str = SYNTAX_ERROR) -> None:
        diags.append(error(message, Span.point(line_no, 1), code))

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 1)
        head, rest = parts[0], parts[1] if len(parts) > 1 else ""
        if head == "states":
            states.extend(rest.split())
            continue
        names = rest.split()
        if head == "initial":
            if initial_line:
                fail(line_no, "initial appears twice")
                continue
            initial_line = line_no
            if len(names) != 1:
                fail(line_no, "initial takes exactly one state")
                continue
            initial = names[0]
        elif head == "bad":
            bad.update(names)
        elif head == "trans":
            fields = rest.split(None, 2)
            if len(fields) < 3:
                fail(line_no, "trans needs: source, target, label pattern")
                continue
            try:
                rules.append((fields[0], fields[1], parse_label_pattern(fields[2])))
            except ValueError as exc:
                fail(line_no, str(exc))
                continue
            names = fields[:2]
        else:
            fail(line_no, f"unknown directive '{head}'")
            continue
        for name in names:
            named.setdefault(name, line_no)

    if not initial_line:
        fail(1, "monitor has no initial state")
    known = set(states)
    for name, line_no in named.items():
        if name not in known:
            fail(line_no, f"state '{name}' is not listed under 'states'", UNKNOWN_STATE)
    diags.sort(key=lambda d: d.span.line)
    return (None if diags else Monitor(tuple(states), initial, frozenset(bad), tuple(rules))), diags


def check_safety(lts: Lts, monitor: Monitor) -> VerifyResult:
    """ok when the product of system and monitor reaches no bad monitor
    state.  A violation comes with a shortest trace."""
    found = _search(lts, monitor.initial, monitor.step, lambda _, state: state in monitor.bad)
    if found is None:
        if not monitor.bad:
            return VerifyResult(ok=True, detail="monitor has no bad state")
        bad = ", ".join(f"'{state}'" for state in sorted(monitor.bad))
        return VerifyResult(ok=True, detail=f"monitor stays out of {bad}")
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

    A move signs as one int, its code block of target * num_labels +
    label, and a state as the ascending tuple of its distinct codes.  A
    row of one or two moves gets that tuple by comparing its codes, at
    about half the cost of building a set and sorting it; a longer row
    goes through the set.  Nearly every row of a layered .aut file, and
    of one joined with a chain, is that short.

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
        # a state is keyed as its block and its codes' tuple, which takes
        # less memory than a frozenset; a short row's two equal codes are one
        signed: dict[tuple[int, tuple], list[int]] = {}
        for s in todo:
            row = out[s]
            if len(row) == 2:
                (lab, dst), (lab2, dst2) = row
                x = block[dst] * num_labels + lab
                y = block[dst2] * num_labels + lab2
                key: tuple = (x, y) if x < y else (y, x) if y < x else (x,)
            elif len(row) > 2:
                sig = set()
                for lab, dst in row:
                    sig.add(block[dst] * num_labels + lab)
                key = tuple(sorted(sig))
            elif row:
                ((lab, dst),) = row
                key = (block[dst] * num_labels + lab,)
            else:
                key = ()
            signed.setdefault((block[s], key), []).append(s)
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
    text: list[str],
    block: list[int],
    parent: list[int],
    born: list[int],
) -> list[str]:
    """One experiment a refuter can play to tell two non-bisimilar states
    apart: every label in the list is answered by the opponent until the
    last one, which exactly one side can perform.

    Each step looks at the round r that first separated the pair, found
    where their branches of the split tree meet.  Their signatures
    differ in the blocks of round r - 1; the side with a move the other
    cannot match takes the label whose text is smallest (the first listed
    such move of that label), the other answers with its first move of that
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
        _, k = min((text[move[0]], k) for k, move in enumerate(sigs[owner]) if move not in theirs)
        label = sigs[owner][k][0]
        trace.append(text[label])
        replies = [dst for lab, dst in out[pair[1 - owner]] if lab == label]
        if not replies:
            return trace
        s1, s2 = out[pair[owner]][k][1], replies[0]


def _joined(a: Lts, b: Lts) -> tuple[list[list[tuple[int, int]]], list[str]]:
    """The rows of a followed by those of b, targets shifted past a's
    states, over a's label table extended with b's other labels, which is
    also returned.  a's rows are used as they are."""
    a, b = a.finish(), b.finish()
    number = {t: k for k, t in enumerate(a.label_text)}
    ids = [number.setdefault(t, len(number)) for t in b.label_text]
    offset = a.num_states
    out = a.out + [[(ids[lab], offset + dst) for lab, dst in row] for row in b.out]
    return out, list(number)


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
    return VerifyResult(
        ok=False,
        detail="not strongly bisimilar; evidence is a distinguishing experiment "
        "whose last step only one side can answer",
        trace=_distinguish(s1, s2, out, text, block, parent, born),
    )


def minimize(lts: Lts) -> Lts:
    """Quotient by strong bisimilarity, renumbered breadth-first from the
    initial block (per block, transitions ordered by label text then by
    the target block's smallest original state)."""
    if not lts.finish().num_states:  # des (0, 0, 0): not even an initial state
        return Lts(out=[], label_text=[])
    out, text = lts.out, lts.label_text
    block, _, _ = _refine(out, len(text))

    rep: dict[int, int] = {}
    for s in range(lts.num_states):
        rep.setdefault(block[s], s)

    moves: dict[int, list[tuple[int, int]]] = {}
    for blk, r in rep.items():
        moves[blk] = sorted(
            {(label, block[dst]) for label, dst in out[r]},
            key=lambda t: (text[t[0]], rep[t[1]]),
        )

    order = {block[lts.initial]: 0}
    queue = deque([block[lts.initial]])
    while queue:
        blk = queue.popleft()
        for _, tblk in moves[blk]:
            if tblk not in order:
                order[tblk] = len(order)
                queue.append(tblk)

    # the quotient's table: the labels its rows use, as first met
    blocks = sorted(order, key=order.get)  # type: ignore[arg-type]
    ids: dict[int, int] = {}
    rows = [[(ids.setdefault(label, len(ids)), order[tblk]) for label, tblk in moves[blk]]
            for blk in blocks]
    forms = None
    if lts.forms is not None:
        forms = [lts.forms[rep[blk]] for blk in blocks]
    return Lts(rows, [text[label] for label in ids], forms=forms)


# ----------------------------------------------------------------------
# .aut exchange format

# A line ends at any character of LINE_BREAKS, where str.splitlines
# breaks a line; _SP is any other whitespace.  [0-9\d]+ reads what \d+
# reads but scans ASCII digits faster, and at each choice the spelling
# export_aut writes is tried first.  After any blank lines, _AUT_HEADER reads the header, and
# _AUT_LINE a transition line or else the rest of the text.  Both are compiled on first
# read, through re's cache, so a command that reads no .aut file does not pay for them.
LINE_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
_SP, _NUM = rf"[^\S{LINE_BREAKS}]*", r"([0-9\d]+)"
_COMMA, _EOL = rf"(?:, |{_SP},{_SP})", rf"{_SP}(?:[{LINE_BREAKS}]|\Z)"
_AUT_HEADER = rf"\s*des{_SP}\({_SP}{_NUM}{_COMMA}{_NUM}{_COMMA}{_NUM}{_SP}\){_EOL}"
_AUT_LINE = (rf'(?:\(|\s*\({_SP}){_NUM}{_COMMA}"([^"{LINE_BREAKS}]*)"{_COMMA}'
             rf"{_NUM}(?:\)\n|{_SP}\){_EOL})|(?s:.+)")


def export_aut(lts: Lts) -> str:
    """Aldebaran format: header des (initial, transitions, states), then
    one (source, "label", target) line per transition.  Byte-stable for a
    given system."""
    lts.finish()
    quoted = [f', "{label}", ' for label in lts.label_text]
    lines = [f"des ({lts.initial}, {lts.num_transitions}, {lts.num_states})"]
    lines += [f"({src}{quoted[lab]}{dst})" for src, row in enumerate(lts.out) for lab, dst in row]
    return "\n".join(lines) + "\n"


def read_aut(text: str) -> Lts:
    """Parse Aldebaran text; raises ValueError on malformed input.  One
    regular expression scan reads every spelling the format allows (any
    spacing, blank lines, line breaks and decimal digits), and labels are
    numbered in the order the file first names them."""
    head = _aut_header(text)
    initial, num_trans, num_states = map(int, head.groups())
    label_ids: dict[str, int] = {}
    out: list[list[tuple[int, int]]] = []
    for m in re.compile(_AUT_LINE).finditer(text, head.end()):
        s, label, d = m.groups()
        if d is None:  # the rest of the text: blank, or from the first line not read
            if line := _first_line(m.group()):
                raise ValueError(f"bad .aut transition: {line!r}")
            break
        src, dst = int(s), int(d)
        lab = label_ids.get(label)
        if lab is None:
            if not label.strip():
                raise ValueError(f"blank label in .aut transition: {m.group().strip()!r}")
            lab = label_ids[label] = len(label_ids)
        if src >= num_states or dst >= num_states:
            raise ValueError(f"state out of range in: {m.group().strip()!r}")
        try:
            out[src].append((lab, dst))
        except IndexError:
            _grow(out, src, num_states)
            out[src].append((lab, dst))
    if (found := sum(map(len, out))) != num_trans:
        raise ValueError(f"header promises {num_trans} transition(s), found {found}")
    if initial >= num_states and num_states > 0:
        raise ValueError("initial state out of range")
    out.extend([] for _ in range(num_states - len(out)))
    return Lts(out, list(label_ids), initial)


def _grow(out: list[list[tuple[int, int]]], src: int, num_states: int) -> None:
    """Makes rows up to src, at least doubling their number but never past
    num_states: a large state count in the header costs nothing before
    the lines are checked."""
    size = min(num_states, max(src + 1, 2 * len(out)))
    out.extend([] for _ in range(size - len(out)))


def aut_header(text: str) -> tuple[int, int, int]:
    """The initial state, transition count and state count the header of
    Aldebaran text declares, found without building any row; raises
    ValueError on a missing or malformed header, as read_aut does."""
    initial, num_trans, num_states = map(int, _aut_header(text).groups())
    return initial, num_trans, num_states


def _aut_header(text: str) -> re.Match[str]:
    if head := re.match(_AUT_HEADER, text):
        return head
    line = _first_line(text)
    raise ValueError(f"bad .aut header: {line!r}" if line else "empty .aut input")


def _first_line(text: str) -> str:
    """The first line of text that is not blank, stripped; "" if none."""
    return next(filter(None, map(str.strip, text.splitlines())), "")
