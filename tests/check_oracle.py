"""Reference answers for the deadlock, reach and safety checks.

Written the slow, obvious way and sharing nothing with the search in
lotoskit.verify beyond LabelPattern.matches and Monitor.step: distances
come from relaxing every edge until nothing changes, the bad targets are
stated edge by edge, and witnesses are replayed by tracking the set of
states a trace can lead to."""
from __future__ import annotations

from lotoskit import Lts
from lotoskit.verify import LabelPattern, Monitor


def distances(initial, edges) -> dict:
    """Shortest number of steps from initial to every node it reaches,
    for edges given as (source, label, target) triples."""
    dist = {initial: 0}
    changed = True
    while changed:
        changed = False
        for src, _, dst in edges:
            if src in dist and dist[src] + 1 < dist.get(dst, dist[src] + 2):
                dist[dst] = dist[src] + 1
                changed = True
    return dist


def _sinks(lts: Lts) -> set[int]:
    return set(range(lts.num_states)) - {src for src, _, _ in lts.transitions}


def deadlock_distance(lts: Lts) -> int | None:
    """Length of a shortest deadlock witness, None when there is none.  A
    witness is the empty run when the initial state has no moves, or a
    run whose last step is not exit and ends in a state without moves."""
    dist = distances(lts.initial, lts.transitions)
    sinks = _sinks(lts)
    lengths = [0] if lts.initial in sinks else []
    lengths += [
        dist[src] + 1
        for src, label, dst in lts.transitions
        if src in dist and label != "exit" and dst in sinks
    ]
    return min(lengths, default=None)


def reach_distance(lts: Lts, pattern: LabelPattern) -> int | None:
    """Length of a shortest run ending in a step that matches pattern."""
    dist = distances(lts.initial, lts.transitions)
    return min(
        (dist[src] + 1 for src, label, _ in lts.transitions
         if src in dist and pattern.matches(label)),
        default=None,
    )


def safety_distance(lts: Lts, monitor: Monitor) -> int | None:
    """Length of a shortest run after which the monitor is in a bad state."""
    product = [
        ((src, m), label, (dst, monitor.step(m, label)))
        for src, label, dst in lts.transitions
        for m in monitor.states
    ]
    dist = distances((lts.initial, monitor.initial), product)
    return min((d for (_, m), d in dist.items() if m in monitor.bad), default=None)


def after(lts: Lts, trace: list[str]) -> set[int]:
    """The states some run labelled trace leads to from the initial state."""
    current = {lts.initial}
    for label in trace:
        current = {dst for src, lab, dst in lts.transitions if src in current and lab == label}
    return current


def is_deadlock_witness(lts: Lts, trace: list[str], state: int) -> bool:
    if trace and trace[-1] == "exit":
        return False
    return state in after(lts, trace) and state in _sinks(lts)


def is_reach_witness(lts: Lts, trace: list[str], pattern: LabelPattern) -> bool:
    return bool(trace) and pattern.matches(trace[-1]) and bool(after(lts, trace))


def is_safety_witness(lts: Lts, trace: list[str], monitor: Monitor) -> bool:
    m = monitor.initial
    for label in trace:
        m = monitor.step(m, label)
    return m in monitor.bad and bool(after(lts, trace))
