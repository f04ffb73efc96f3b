"""Seeded input families and the jobs that run on them.

Every family builds its input text from a size and a random generator,
and states the answer the program must give from how the input was
built, never from lotoskit itself.  A job is one call of the command
line (or, for ``minimize``, of the library functions the command line
lacks) plus an ``expect`` record that ``check.check_job`` compares the
output against.

The sizes of every family are fixed grids, so each workload does the
same amount of work whatever the seed; the seed picks names, value
choices, random edges, state numbering, line order and job order.
"""
from __future__ import annotations

import random
import string
from dataclasses import dataclass


@dataclass
class Job:
    """One unit of work in a workload's cycle.

    ``argv`` is the lotoskit command line with file names relative to the
    work directory; ``argv`` is None for a ``minimize`` job, whose .aut
    file is ``expect["aut"]``.  ``family`` and ``size`` label the job in
    the size sweep."""

    name: str
    family: str
    size: str
    argv: list[str] | None
    expect: dict


@dataclass
class Workload:
    files: dict[str, str]
    jobs: list[Job]
    warmup: list[Job]


def _workload(files: dict[str, str], jobs: list[Job], rng: random.Random) -> Workload:
    """Warm up on the jobs of each family's first (smallest) size, and run
    the cycle in a seeded order."""
    first: dict[str, str] = {}
    for job in jobs:
        first.setdefault(job.family, job.size)
    warmup = [job for job in jobs if first[job.family] == job.size]
    rng.shuffle(jobs)
    return Workload(files, jobs, warmup)


def _names(rng: random.Random, count: int, length: int = 2) -> list[str]:
    """Distinct identifier prefixes.  Callers append digits, and no
    keyword contains a digit, so the results never clash with keywords."""
    out: list[str] = []
    while len(out) < count:
        p = rng.choice(string.ascii_lowercase) + "".join(
            rng.choice(string.ascii_lowercase) for _ in range(length - 1)
        )
        if p not in out:
            out.append(p)
    return out


# ----------------------------------------------------------------------
# chains n x m: n copies of an m-step sequential process, interleaved


# (n, m, command): each size runs one command.  The sizes climb in small
# steps and the four largest cost about the same, so that neither p50
# nor p90 of the mix sits on a big gap between neighbouring sizes; the
# many small sizes let a run reach 100 jobs in few cycles.
CHAIN_JOBS = [
    (2, 4, "lts"), (3, 2, "deadlock"), (2, 6, "deadlock"), (3, 3, "deadlock"), (2, 8, "deadlock"),
    (4, 2, "lts"), (2, 10, "lts"), (3, 4, "deadlock"), (2, 12, "lts"), (3, 5, "deadlock"),
    (2, 14, "lts"), (5, 2, "lts"), (4, 3, "deadlock"), (2, 16, "lts"), (3, 6, "deadlock"),
    (2, 20, "lts"), (3, 7, "deadlock"), (4, 4, "lts"), (6, 2, "deadlock"), (3, 8, "lts"),
    (5, 3, "deadlock"), (2, 40, "lts"), (7, 2, "deadlock"), (3, 12, "deadlock"), (4, 6, "lts"),
]


def chain_spec(rng: random.Random, n: int, m: int) -> tuple[str, list[str]]:
    g, proc = _names(rng, 2)
    gates = [f"{g}{k}" for k in range(m)]
    formals = ", ".join(gates)
    steps = "; ".join(gates)
    top = " ||| ".join(f"C{proc} [{formals}]" for _ in range(n))
    text = (
        f"specification Chain{proc} [{formals}] : noexit :=\n"
        f"  behaviour\n    {top}\n  where\n"
        f"    process C{proc} [{formals}] : noexit :=\n      {steps}; stop\n    endproc\n"
        f"endspec\n"
    )
    return text, gates


def chain_counts(n: int, m: int) -> tuple[int, int]:
    """(m+1)^n states; each of the n copies moves from any of its m
    non-final positions while the others sit anywhere."""
    return (m + 1) ** n, n * m * (m + 1) ** (n - 1)


def explore_interleave(seed: int) -> Workload:
    rng = random.Random(seed)
    files: dict[str, str] = {}
    jobs: list[Job] = []
    for n, m, command in CHAIN_JOBS:
        size = f"{n}x{m}"
        text, gates = chain_spec(rng, n, m)
        path = f"chain-{size}.lot"
        files[path] = text
        states, transitions = chain_counts(n, m)
        if command == "lts":
            jobs.append(Job(f"chain-{size}/lts", "chain", size, ["lts", path],
                            {"kind": "aut", "states": states, "transitions": transitions}))
        else:
            jobs.append(Job(f"chain-{size}/deadlock", "chain", size, ["verify", "deadlock", path],
                            {"kind": "verdict", "exit": 1, "property": "deadlock",
                             "trace": {"chain": [n, gates]}}))
    return _workload(files, jobs, rng)


# ----------------------------------------------------------------------
# explore-sync: buffer pipelines, dining philosophers, the multicast corpus


BUFFER_SIZES = [(4, 2), (5, 2), (4, 3), (6, 2), (5, 3)]
PHIL_SIZES = [4, 5, 6]


def buffer_spec(rng: random.Random, n: int, d: int) -> tuple[str, str, str, str]:
    """n one-place buffers chained on hidden gates; returns the text, the
    input gate, the output gate and one value of the data sort."""
    g, v, proc = _names(rng, 3)
    values = [f"{v}{k}" for k in range(d)]
    chans = [f"{g}{k}" for k in range(n + 1)]
    pipe = f"B{proc} [{chans[0]}, {chans[1]}]"
    for k in range(1, n):
        pipe = f"{pipe} |[{chans[k]}]| B{proc} [{chans[k]}, {chans[k + 1]}]"
    text = (
        f"specification Pipe{proc} [{chans[0]}, {chans[n]}] : noexit :=\n"
        f"  sorts\n    D{proc} = {{ {', '.join(values)} }}\n"
        f"  behaviour\n    hide {', '.join(chans[1:n])} in\n      {pipe}\n"
        f"  where\n    process B{proc} [inp, out] : noexit :=\n"
        f"      inp ?x: D{proc}; out !x; B{proc} [inp, out]\n    endproc\nendspec\n"
    )
    return text, chans[0], chans[n], rng.choice(values)


def buffer_counts(n: int, d: int) -> tuple[int, int]:
    """Each buffer is empty or holds one of d values.  Input fires when
    the first buffer is empty (d labels), output when the last is full,
    and each of the n-1 internal moves when its source is full and its
    target empty."""
    states = (d + 1) ** n
    transitions = 2 * d * (d + 1) ** (n - 1) + (n - 1) * d * (d + 1) ** (n - 2)
    return states, transitions


def phil_spec(rng: random.Random, n: int) -> tuple[str, list[str]]:
    """n philosophers, each taking its left then its right fork and
    releasing both in one step synchronised with the two forks.  Fork k is
    taken on gate t_k by either neighbour and released on the release gate
    of whichever neighbour holds it."""
    t, r, proc = _names(rng, 3)
    take = [f"{t}{k}" for k in range(n)]
    rel = [f"{r}{k}" for k in range(n)]
    phils = " ||| ".join(
        f"P{proc} [{take[k]}, {take[(k + 1) % n]}, {rel[k]}]" for k in range(n)
    )
    forks = f"F{proc} [{take[0]}, {rel[n - 1]}, {rel[0]}]"
    for k in range(1, n):
        sync = rel[k - 1] if k < n - 1 else f"{rel[n - 2]}, {rel[n - 1]}"
        forks = f"({forks}) |[{sync}]| F{proc} [{take[k]}, {rel[k - 1]}, {rel[k]}]"
    gates = take + rel
    text = (
        f"specification Dining{proc} [{', '.join(gates)}] : noexit :=\n"
        f"  behaviour\n    ({phils})\n    |[{', '.join(gates)}]|\n    ({forks})\n"
        f"  where\n"
        f"    process P{proc} [left, right, done] : noexit :=\n"
        f"      left; right; done; P{proc} [left, right, done]\n    endproc\n"
        f"    process F{proc} [take, mine, theirs] : noexit :=\n"
        f"      take; (mine; F{proc} [take, mine, theirs] [] theirs; F{proc} [take, mine, theirs])\n"
        f"    endproc\nendspec\n"
    )
    return text, take


def phil_states(n: int) -> int:
    """Reachable states: every assignment of (thinking, holds left, holds
    both) to the philosophers in which no fork has two holders, which is
    the trace of T^n for the 3x3 transfer matrix with T[2][1] = T[2][2] = 0."""
    t = [[1, 1, 1], [1, 1, 1], [1, 0, 0]]
    p = [[int(i == j) for j in range(3)] for i in range(3)]
    for _ in range(n):
        p = [[sum(p[i][k] * t[k][j] for k in range(3)) for j in range(3)] for i in range(3)]
    return sum(p[i][i] for i in range(3))


# The answers the README documents for the monitor on the multicast corpus
# with hiding disabled.
MULTICAST = {
    "multicast.lot": {"kind": "verdict", "exit": 0, "property": "safety"},
    "multicast_unordered.lot": {
        "kind": "verdict", "exit": 1, "property": "safety",
        "trace": {"exact": ["invClt !op1", "inv !Service2 !op1"]},
    },
}
MULTICAST_FILES = ["multicast.lot", "multicast_unordered.lot", "multicast_order.mon"]


def explore_sync(seed: int, corpus: dict[str, str]) -> Workload:
    rng = random.Random(seed)
    files: dict[str, str] = {}
    jobs: list[Job] = []
    for n, d in BUFFER_SIZES:
        size = f"{n}x{d}"
        text, first, last, value = buffer_spec(rng, n, d)
        path = f"buffer-{size}.lot"
        files[path] = text
        states, transitions = buffer_counts(n, d)
        jobs.append(Job(f"buffer-{size}/lts", "buffer", size, ["lts", path],
                        {"kind": "aut", "states": states, "transitions": transitions}))
        jobs.append(Job(f"buffer-{size}/reach", "buffer", size,
                        ["verify", "reach", path, f"{last} !{value}"],
                        {"kind": "verdict", "exit": 0, "property": "reach",
                         "trace": {"exact": [f"{first} !{value}"] + ["i"] * (n - 1)
                                   + [f"{last} !{value}"]}}))
    for n in PHIL_SIZES:
        size = str(n)
        text, take = phil_spec(rng, n)
        path = f"phil-{size}.lot"
        files[path] = text
        jobs.append(Job(f"phil-{size}/lts", "phil", size, ["lts", path],
                        {"kind": "aut", "states": phil_states(n)}))
        jobs.append(Job(f"phil-{size}/deadlock", "phil", size, ["verify", "deadlock", path],
                        {"kind": "verdict", "exit": 1, "property": "deadlock",
                         "trace": {"perm": take}}))
    for name in MULTICAST_FILES:
        files[name] = corpus[name]
    for name, expect in MULTICAST.items():
        jobs.append(Job(f"{name}/safety", "multicast", name.split(".")[0],
                        ["verify", "safety", name, "multicast_order.mon", "--no-hide"], expect))
    return _workload(files, jobs, rng)


# ----------------------------------------------------------------------
# aut-refine: layered .aut files whose quotient is a chain


SINGLE_SIZES = [(40, 4), (60, 5), (80, 6), (100, 4)]
MULTI_SIZES = [(2000, 6), (3000, 5), (4000, 4)]


def layered_aut(rng: random.Random, labels: list[str], copies: int) -> tuple[str, list[int]]:
    """A system whose layer k (1..L) holds `copies` states and whose layer 0
    is the initial state.  Every edge leads from layer k to layer k+1 with
    label labels[k]: the initial state reaches all of layer 1, and below
    that each state has two successors and two predecessors, wired through
    a seeded permutation of the next layer.  So every state is reachable,
    every non-final state can move, the system is bisimilar to the chain of
    labels, and the size of the file does not depend on the seed.  State
    numbers and line order are shuffled.  Returns the text and the
    final-layer states."""
    depth = len(labels)
    layers = [[0]] + [list(range(1 + k * copies, 1 + (k + 1) * copies)) for k in range(depth)]
    edges = {(0, dst) for dst in layers[1]}
    for k in range(1, depth):
        there = rng.sample(layers[k + 1], copies)
        for i, src in enumerate(layers[k]):
            edges.add((src, there[i]))
            edges.add((src, there[(i + 1) % copies]))
    num_states = 1 + depth * copies
    perm = list(range(num_states))
    rng.shuffle(perm)
    layer_of = {s: k for k, layer in enumerate(layers) for s in layer}
    lines = [f'({perm[s]}, "{labels[layer_of[s]]}", {perm[d]})' for s, d in sorted(edges)]
    rng.shuffle(lines)
    text = f"des ({perm[0]}, {len(lines)}, {num_states})\n" + "\n".join(lines) + "\n"
    return text, sorted(perm[s] for s in layers[depth])


def chain_aut(labels: list[str]) -> str:
    """The canonical chain, numbered as minimize numbers its quotient."""
    lines = [f"des (0, {len(labels)}, {len(labels) + 1})"]
    lines += [f'({k}, "{lab}", {k + 1})' for k, lab in enumerate(labels)]
    return "\n".join(lines) + "\n"


def safety_monitor(labels: list[str], steps: int, count: bool) -> str:
    """A monitor that turns bad on the steps-th label of the chain: by
    counting labels when they are all alike, else by watching for that
    label alone."""
    if not count:
        return f"states ok bad\ninitial ok\nbad bad\ntrans ok bad {labels[steps - 1]}\n"
    rules = [f"trans m{k} m{k + 1} {labels[k]}" for k in range(steps)]
    return (
        f"states {' '.join(f'm{k}' for k in range(steps + 1))}\n"
        f"initial m0\nbad m{steps}\n" + "\n".join(rules) + "\n"
    )


def aut_refine(seed: int) -> Workload:
    rng = random.Random(seed)
    files: dict[str, str] = {}
    jobs: list[Job] = []
    grids = [("single", SINGLE_SIZES), ("multi", MULTI_SIZES)]
    for flavour, sizes in grids:
        for depth, copies in sizes:
            size = f"L{depth}"
            (p,) = _names(rng, 1)
            if flavour == "single":
                labels = [f"{p}0"] * (depth + 1)
            else:
                labels = [f"{p}{k}" for k in range(depth + 1)]
            x, core, longer, mon = (f"{flavour}-{size}{suffix}" for suffix in
                                    (".aut", "-core.aut", "-longer.aut", ".mon"))
            files[x], sinks = layered_aut(rng, labels[:depth], copies)
            files[core] = chain_aut(labels[:depth])
            files[longer] = chain_aut(labels)
            steps = (3 * depth) // 4
            files[mon] = safety_monitor(labels, steps, flavour == "single")
            family = f"aut-{flavour}"
            if flavour == "single":
                # Against a core one step longer the difference sits at the
                # end, so refinement needs about L rounds over both systems
                # and keeps every round.  At multi-label sizes one such job
                # takes minutes, so only the single-label flavour runs it.
                jobs.append(Job(f"{x}/bisim-longer", family, size, ["verify", "bisim", x, longer],
                                {"kind": "verdict", "exit": 1, "property": "bisim",
                                 "trace": {"exact": labels}}))
            jobs += [
                Job(f"{x}/bisim-ok", family, size, ["verify", "bisim", x, core],
                    {"kind": "verdict", "exit": 0, "property": "bisim"}),
                Job(f"{x}/minimize", family, size, None,
                    {"kind": "minimize", "aut": x, "text": files[core]}),
                Job(f"{x}/deadlock", family, size, ["verify", "deadlock", x],
                    {"kind": "verdict", "exit": 1, "property": "deadlock",
                     "trace": {"exact": labels[:depth]}, "states": sinks}),
                Job(f"{x}/safety", family, size, ["verify", "safety", x, mon],
                    {"kind": "verdict", "exit": 1, "property": "safety",
                     "trace": {"exact": labels[:steps]}}),
            ]
    return _workload(files, jobs, rng)


# ----------------------------------------------------------------------
# frontend: large specifications, configurations and contracts


# every other specification and contract carries planted errors
SPEC_SIZES = [40, 60, 80, 100, 120, 140, 160, 180, 200]
ADL_SIZES = [40, 70, 100, 130, 160]
FACT_SIZES = [1000, 1500, 2000, 2500, 3000]

_SPEC_SORTS = 6


def big_spec(rng: random.Random, procs: int, broken: bool) -> tuple[str, str, list[str]]:
    """A valid specification of `procs` processes using every operator,
    value offers and nested comments.  With broken=True three errors are
    planted at seeded places: an out-of-scope gate, an undefined process
    and a wrong gate count.  Returns the text, its name and the codes of
    the planted errors."""
    p, s, v = _names(rng, 3)
    name = f"Big{p}"
    sorts = [f"S{s}{k}" for k in range(_SPEC_SORTS)]
    values = [[f"{v}{k}x{j}" for j in range(3)] for k in range(_SPEC_SORTS)]
    lines = [
        f"(* generated specification: {procs} processes (* nested comment *) *)",
        f"specification {name} [a0, b0, c0] : noexit :=",
        "  sorts",
    ]
    lines += [f"    {sorts[k]} = {{ {', '.join(values[k])} }}" for k in range(_SPEC_SORTS)]
    lines += ["  behaviour", f"    P{p}0 [a0, b0, c0] ||| P{p}1 [a0, b0, c0]", "  where"]
    planted = sorted(rng.sample(range(procs), 3)) if broken else []
    codes: list[str] = []
    for k in range(procs):
        s1, s2 = sorts[k % _SPEC_SORTS], sorts[(k + 1) % _SPEC_SORTS]
        w1 = rng.choice(values[(k + 2) % _SPEC_SORTS])
        w2 = rng.choice(values[(k + 3) % _SPEC_SORTS])
        nxt, back = f"P{p}{(k + 1) % procs}", f"P{p}{(k * 7 + 3) % procs}"
        gate, callee, args = "c", nxt, "a, b, c"
        if k in planted:
            slot = planted.index(k)
            codes.append(("unknown-gate", "unknown-process", "gate-arity-mismatch")[slot])
            if slot == 0:
                gate = "zz9"
            elif slot == 1:
                callee = f"Q{p}{k}"
            else:
                args = "a, b"
        lines += [
            f"    process P{p}{k} [a, b, c] : noexit :=",
            f"      /* step {k} */ a ?x: {s1}; b !x !{w1};",
            f"      ( {gate} ?y: {s2}; {callee} [{args}]",
            f"        [] i; hide c in ( b !{w2}; exit ||| c ?z: {s1}; exit ) >> {back} [a, b, c]",
            f"        [] a !{w2}; (b; stop |[b]| b; stop) )",
            f"      [> c !{w1}; {nxt} [c, b, a]",
            "    endproc",
        ]
    lines.append("endspec")
    return "\n".join(lines) + "\n", name, codes


def adl_files(rng: random.Random, comps: int) -> tuple[str, str, str, list[str]]:
    """A configuration of `comps` components joined in a ring by one
    connector each, plus the behaviour file it uses.  Returns the .lot
    text, the .adl text, the configuration name and the top gates the
    flattened specification must carry (first use, left to right)."""
    p, q, proc = _names(rng, 3)
    name = f"Ring{proc}"
    lot = [f"specification Parts{proc} [{p}0, {q}0] : noexit :=", "  behaviour",
           f"    C{proc}0 [{p}0, {q}0]", "  where"]
    for k in range(comps):
        lot += [f"    process C{proc}{k} [inp, out] : noexit :=",
                f"      inp; (out; C{proc}{k} [inp, out] [] i; inp; out; stop)",
                "    endproc"]
    lot += [f"    process L{proc} [x, y] : noexit :=", f"      x; y; L{proc} [x, y]",
            "    endproc", "endspec"]
    elements = [f"    c{k} = C{proc}{k} [{p}{k}, {q}{k}]" for k in range(comps)]
    connectors = [f"    n{k} = L{proc} [{q}{k}, {p}{(k + 1) % comps}]" for k in range(comps)]
    gates = [g for k in range(comps) for g in (f"{p}{k}", f"{q}{k}")]
    adl = [
        f"configuration {name}", f'  use "ring-{comps}.lot"',
        "  components {", ",\n".join(elements), "  }",
        "  connectors {", ",\n".join(connectors), "  }",
        "  composition {",
        "    ( " + " ||| ".join(f"c{k}" for k in range(comps)) + " )",
        f"    |[{', '.join(gates)}]|",
        "    ( " + " ||| ".join(f"n{k}" for k in range(comps)) + " )",
        "  }", "end",
    ]
    return "\n".join(lot) + "\n", "\n".join(adl) + "\n", name, gates


def contract_files(rng: random.Random, nfacts: int, broken: bool) -> tuple[str, str, dict, list[str]]:
    """A fact base of about `nfacts` facts in which exactly one assignment
    satisfies the structural query, an interface part that satisfies
    C1-C4, and a deadlock-free behaviour.  With broken=True the interface
    gets a duplicated input port (C1) and an unconsumed output message
    (C4).  Returns the .asc text, the .facts text, the witness and the
    ic lines the report must carry."""
    a, c, pp = _names(rng, 3)
    abstract = [f"{a}{k}" for k in range(30)]
    inherited = rng.sample(abstract, 10)
    s_star, o_star = inherited[0], inherited[1]
    heirs = {base: f"{c}{k}" for k, base in enumerate(inherited)}
    facts = [f"abstract_class({x})." for x in abstract]
    facts += [f"class({heirs[x]})." for x in inherited]
    facts += [f"inherit({heirs[x]}, {x})." for x in inherited]
    others = [x for x in abstract if x not in inherited]
    pairs = {(s_star, o_star)}
    while len(pairs) < 60:
        x, y = rng.choice(abstract), rng.choice(others)
        if x != y:
            pairs.add((x, y) if rng.random() < 0.5 else (y, x))
    facts += [f"associate({x}, {y})." for x, y in sorted(pairs)]
    k = 0
    while len(facts) < nfacts:
        facts.append(f"invoke({c}x{k}, {c}y{k % 97}, m{k % 13}, r{k % 5}).")
        facts.append(f"call({c}x{k}, {c}y{k % 89}, m{k % 11}).")
        facts.append(f"class({c}x{k}).")
        k += 1
    rng.shuffle(facts)
    facts_text = "% generated fact base\n" + "\n".join(facts) + "\n"

    parts = [f"{pp}{k}" for k in range(8)]
    msgs = [f"msg{k}" for k in range(24)]
    in_ports = [(f"in{k}", parts[k % 8]) for k in range(12)]
    out_ports = [(f"out{k}", parts[(k + 3) % 8]) for k in range(12)]
    in_msgs = [(m, in_ports[k % 12][0]) for k, m in enumerate(msgs)]
    out_msgs = [(m, out_ports[k % 12][0]) for k, m in enumerate(msgs[1:])]
    flows = [(m, out_ports[k % 12][0], in_ports[(k + 1) % 12][0])
             for k, m in enumerate(msgs[1:])]
    ic_lines = ["  ic: all rules hold"]
    if broken:
        in_ports.append(("in0", parts[1]))
        out_msgs.append(("orphan", out_ports[0][0]))
        ic_lines = ["  ic: [C1] input port 'in0' is declared more than once",
                    "  ic: [C4] output message 'orphan' is never consumed"]

    def block(title: str, items: list[str]) -> str:
        return f"    {title} {{ {', '.join(items)} }}"

    asc = "\n".join([
        f"component Contract{pp} where",
        "  assert { generated contract; the sc query has exactly one witness }",
        "  sc { exists s, o, cs, co . abstract_class(s) and abstract_class(o)"
        " and associate(s, o) and inherit(cs, s) and inherit(co, o) }",
        "  ic {",
        block("processes", parts),
        block("in_ports", [f"{x}: {o}" for x, o in in_ports]),
        block("out_ports", [f"{x}: {o}" for x, o in out_ports]),
        block("in_msgs", [f"{m} -> {x}" for m, x in in_msgs]),
        block("out_msgs", [f"{m} -> {x}" for m, x in out_msgs]),
        block("external_in", [msgs[0]]),
        block("flows", [f"{m}: {x} -> {y}" for m, x, y in flows]),
        "  }",
        f'  bc Worker{pp} from "worker.lot"',
        "end",
    ]) + "\n"
    witness = {"s": s_star, "o": o_star, "cs": heirs[s_star], "co": heirs[o_star]}
    return asc, facts_text, witness, ic_lines


WORKER_LOT = """specification Worker [req, ack, tick] : noexit :=
  behaviour
    Server [req, ack] ||| Clock [tick]
  where
    process Server [req, ack] : noexit :=
      req; ack; Server [req, ack]
    endproc
    process Clock [tick] : noexit :=
      tick; Clock [tick]
    endproc
endspec
"""


def frontend(seed: int) -> Workload:
    rng = random.Random(seed)
    files: dict[str, str] = {"worker.lot": WORKER_LOT}
    jobs: list[Job] = []
    for k, procs in enumerate(SPEC_SIZES):
        broken = k % 2 == 1
        text, name, codes = big_spec(rng, procs, broken)
        path = f"spec-{procs}{'-bad' if broken else ''}.lot"
        files[path] = text
        if broken:
            expect = {"kind": "lines", "exit": 1, "lines": [f"{path}: 3 error(s)"],
                      "codes": codes}
        else:
            expect = {"kind": "lines", "exit": 0,
                      "lines": [f"{name}: ok ({procs} process(es), {_SPEC_SORTS} sort(s))"]}
        jobs.append(Job(f"{path}/check", "spec", str(procs), ["check", path], expect))
    for comps in ADL_SIZES:
        lot, adl, name, gates = adl_files(rng, comps)
        files[f"ring-{comps}.lot"] = lot
        files[f"ring-{comps}.adl"] = adl
        out = f"ring-{comps}-flat.lot"
        jobs.append(Job(f"ring-{comps}.adl/flatten", "adl", str(comps),
                        ["adl", f"ring-{comps}.adl", "--flatten", out],
                        {"kind": "lines", "exit": 0,
                         "lines": [f"{name}: ok ({comps} component(s), {comps} connector(s))",
                                   f"flattened -> {out}"],
                         "flat": {"path": out, "name": name, "gates": gates,
                                  "processes": comps + 1}}))
    for k, nfacts in enumerate(FACT_SIZES):
        broken = k % 2 == 1
        asc, facts, witness, ic_lines = contract_files(rng, nfacts, broken)
        base = f"contract-{nfacts}{'-bad' if broken else ''}"
        files[f"{base}.asc"] = asc
        files[f"{base}.facts"] = facts
        head = asc.split()[1]
        binding = ", ".join(f"{v}={witness[v]}" for v in sorted(witness))
        lines = [f"contract {head}: {'FAILED' if broken else 'ok'}",
                 f"  sc: witness {binding}", *ic_lines, "  bc: deadlock free"]
        jobs.append(Job(f"{base}/contract", "contract", str(nfacts),
                        ["contract", f"{base}.asc", "--facts", f"{base}.facts"],
                        {"kind": "lines", "exit": 1 if broken else 0, "lines": lines}))
    return _workload(files, jobs, rng)


WORKLOADS = {
    "explore-interleave": lambda seed, corpus: explore_interleave(seed),
    "explore-sync": explore_sync,
    "aut-refine": lambda seed, corpus: aut_refine(seed),
    "frontend": lambda seed, corpus: frontend(seed),
}
