"""Known-answer checks for one job's output.

``check_job`` compares what a job printed against the ``expect`` record
its family built from the construction of the input.  It returns None
when the output is right and a one-line reason otherwise.
"""
from __future__ import annotations

import re
from collections import Counter
from pathlib import Path

_AUT_HEADER = re.compile(r"des \((\d+), (\d+), (\d+)\)\Z")
_AUT_LINE = re.compile(r'\((\d+), "([^"]*)", (\d+)\)\Z')
_DEADLOCK_STATE = re.compile(r"deadlock at state (\d+)")


def check_job(expect: dict, code: int, out: str, err: str, workdir: Path) -> str | None:
    kind = expect["kind"]
    if kind == "minimize":
        return None if out == expect["text"] else "quotient differs from the expected chain"
    if code != expect.get("exit", 0):
        first = (err or out).strip().splitlines()[:1]
        return f"exit code {code}, expected {expect.get('exit', 0)}: {first}"
    if kind == "aut":
        return _check_aut(expect, out)
    if kind == "verdict":
        return _check_verdict(expect, out)
    if kind == "lines":
        return _check_lines(expect, out, err, workdir)
    raise ValueError(f"unknown expectation kind {kind!r}")


def _check_aut(expect: dict, out: str) -> str | None:
    lines = out.splitlines()
    head = _AUT_HEADER.match(lines[0]) if lines else None
    if head is None:
        return "no .aut header"
    initial, transitions, states = (int(g) for g in head.groups())
    if states != expect["states"]:
        return f"{states} states, expected {expect['states']}"
    if "transitions" in expect and transitions != expect["transitions"]:
        return f"{transitions} transitions, expected {expect['transitions']}"
    if len(lines) - 1 != transitions:
        return f"header promises {transitions} transitions, found {len(lines) - 1}"
    seen = set()
    for ln in lines[1:]:
        m = _AUT_LINE.match(ln)
        if m is None:
            return f"bad transition line {ln!r}"
        src, dst = int(m.group(1)), int(m.group(3))
        if not (0 <= src < states and 0 <= dst < states):
            return f"state out of range in {ln!r}"
        if (src, m.group(2), dst) in seen:
            return f"duplicate transition {ln!r}"
        seen.add((src, m.group(2), dst))
    return None if initial == 0 else f"initial state {initial}, expected 0"


def _check_verdict(expect: dict, out: str) -> str | None:
    lines = out.splitlines()
    verdict = "ok" if expect["exit"] == 0 else "violated"
    prefix = f"{expect['property']}: {verdict} ("
    if not lines or not lines[0].startswith(prefix):
        return f"verdict line {lines[:1]}, expected {prefix!r}"
    if "states" in expect:
        m = _DEADLOCK_STATE.search(lines[0])
        if m is None or int(m.group(1)) not in expect["states"]:
            return f"{lines[0]!r} names no final-layer state"
    want = expect.get("trace")
    if want is None:
        return None
    if len(lines) < 2 or not lines[1].startswith("trace: "):
        return "no trace"
    shown = lines[1][len("trace: "):]
    trace = [] if shown == "<empty>" else shown.split(" ; ")
    return trace_problem(want, trace)


def trace_problem(want: dict, trace: list[str]) -> str | None:
    """Why a trace is not the expected witness, or None.

    ``exact``: the trace must equal the list.  ``perm``: it must be a
    permutation of the list.  ``chain`` [n, gates]: it must be a complete
    run of n interleaved copies of the sequence of gates, which holds when
    every gate occurs n times and no prefix contains gate k more often
    than gate k-1."""
    if "exact" in want:
        if trace != want["exact"]:
            return f"trace of {len(trace)} steps differs from the expected {len(want['exact'])}"
        return None
    if "perm" in want:
        if sorted(trace) != sorted(want["perm"]):
            return f"trace {trace} is not a permutation of {want['perm']}"
        return None
    n, gates = want["chain"]
    position = {g: k for k, g in enumerate(gates)}
    counts = [0] * len(gates)
    for label in trace:
        k = position.get(label)
        if k is None:
            return f"unexpected label {label!r}"
        counts[k] += 1
        if counts[k] > (n if k == 0 else counts[k - 1]):
            return f"{label!r} fires before some copy is ready for it"
    if counts != [n] * len(gates):
        return f"trace of {len(trace)} steps is not a complete run of {n} copies"
    return None


def _check_lines(expect: dict, out: str, err: str, workdir: Path) -> str | None:
    lines = out.splitlines()
    if lines != expect["lines"]:
        return f"output {lines[:3]} differs from {expect['lines'][:3]}"
    if "codes" in expect:
        found = Counter(re.findall(r"error\[([a-z-]+)\]", err))
        if found != Counter(expect["codes"]):
            return f"diagnostic codes {dict(found)}, expected {expect['codes']}"
    flat = expect.get("flat")
    if flat is not None:
        try:
            text = (workdir / flat["path"]).read_text()
        except OSError as exc:
            return f"flattened file unreadable: {exc}"
        head = f"specification {flat['name']} [{', '.join(flat['gates'])}] : noexit :="
        if text.splitlines()[:1] != [head]:
            return "flattened header differs from the expected top gates"
        if text.count("\n    process ") != flat["processes"] or not text.endswith("endspec\n"):
            return "flattened specification is incomplete"
    return None
