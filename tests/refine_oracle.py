"""Reference answers for strong bisimulation and minimisation.

Written the slow, obvious way: every round signs every state against the
whole previous partition and all rounds are kept, the quotient is built
straight from the final partition, and experiments are read off the
kept rounds.  Shares nothing with lotoskit.verify."""
from __future__ import annotations


def refine(out: list[list[tuple[str, int]]]) -> list[list[int]]:
    """Every round's partition, coarsest first: round 0 is one block, and
    round r groups the states of each block of round r - 1 by their sets
    of (label, block of target).  The last entry is the first partition
    the next round does not change.  Blocks are numbered in the order of
    their smallest state."""
    n = len(out)
    block = [0] * n
    history = [block]
    while True:
        keys: dict[tuple[int, frozenset[tuple[str, int]]], int] = {}
        new = []
        for s in range(n):
            sig = frozenset((label, block[dst]) for label, dst in out[s])
            key = (block[s], sig)
            if key not in keys:
                keys[key] = len(keys)
            new.append(keys[key])
        if new == block:
            return history
        block = new
        history.append(block)


def same_partition(x: list[int], y: list[int]) -> bool:
    """Both lists put the same states together, whatever the block names."""
    return len(set(zip(x, y))) == len(set(x)) == len(set(y))


def quotient_aut(out: list[list[tuple[str, int]]], initial: int, block: list[int]) -> str:
    """The quotient as .aut text: a block is named by its smallest state,
    blocks are numbered breadth-first from the initial one, and each
    block's moves are ordered by label, then by the target's smallest
    state."""
    smallest: dict[int, int] = {}
    for s in range(len(out)):
        smallest.setdefault(block[s], s)

    def moves(rep: int) -> list[tuple[str, int]]:
        return sorted({(label, smallest[block[dst]]) for label, dst in out[rep]})

    number = {smallest[block[initial]]: 0}
    order = [smallest[block[initial]]]
    for rep in order:  # grows while it is walked
        for _, target in moves(rep):
            if target not in number:
                number[target] = len(order)
                order.append(target)
    lines = [(number[rep], label, number[target]) for rep in order for label, target in moves(rep)]
    text = [f"des (0, {len(lines)}, {len(order)})"]
    text += [f'({src}, "{label}", {dst})' for src, label, dst in lines]
    return "\n".join(text) + "\n"


def experiment(out: list[list[tuple[str, int]]], history: list[list[int]],
               s1: int, s2: int) -> list[str]:
    """The experiment lotoskit plays on non-bisimilar s1, s2: at the round
    that first separated the pair, the side with a move into a block
    (of the round before) the other side cannot reach by that label moves,
    preferring s1, by the smallest such label and the first listed such
    move; the other answers with its first move of that label."""
    trace: list[str] = []
    while True:
        r = next(r for r, blocks in enumerate(history) if blocks[s1] != blocks[s2])
        prev = history[r - 1]

        def unmatched(s: int, t: int) -> list[tuple[str, int]]:
            theirs = {(label, prev[dst]) for label, dst in out[t]}
            return [(label, dst) for label, dst in out[s] if (label, prev[dst]) not in theirs]

        owner, other = s1, s2
        if not unmatched(s1, s2):
            owner, other = s2, s1
        label = min(lab for lab, _ in unmatched(owner, other))
        nxt = next(dst for lab, dst in unmatched(owner, other) if lab == label)
        trace.append(label)
        replies = [dst for lab, dst in out[other] if lab == label]
        if not replies:
            return trace
        s1, s2 = nxt, replies[0]


def is_experiment(out: list[list[tuple[str, int]]], block: list[int],
                  s1: int, s2: int, trace: list[str]) -> bool:
    """Some run of the pair through every label but the last, by both
    sides and through non-bisimilar pairs only, ends in a pair of which
    exactly one side can do the last label."""
    def can(s: int, label: str) -> bool:
        return any(lab == label for lab, _ in out[s])

    pairs = {(s1, s2)} if block[s1] != block[s2] else set()
    for label in trace[:-1]:
        pairs = {
            (x2, y2)
            for x, y in pairs
            for lx, x2 in out[x] if lx == label
            for ly, y2 in out[y] if ly == label
            if block[x2] != block[y2]
        }
    return bool(trace) and any(can(x, trace[-1]) != can(y, trace[-1]) for x, y in pairs)
