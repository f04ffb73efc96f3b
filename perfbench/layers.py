"""Per-layer spans, recorded from outside the program.

``Tracer.install`` replaces the public functions of each lotoskit module
by timing wrappers.  It patches every module attribute that holds one of
those functions, so names bound by ``from x import f`` are covered too;
nothing under ``src/`` changes.  A re-entrant function (``normalize``
calls itself) is timed at its outermost call only.

Spans stay in memory: one per call of an ordinary function, with its job,
parent span, start, duration and a few numbers taken from its arguments
or result.  The three functions exploration calls once per state or step
(``successors``, ``normalize``, ``pretty_behavior``) would produce
millions of spans, so their calls are summed per parent span into one
record with a call count.  ``layer_metrics`` turns the spans into the
per-layer metrics, and ``write_spans`` writes them out when the run ends.
"""
from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from pathlib import Path

from families import BUFFER_SIZES, CHAIN_JOBS, MULTI_SIZES, PHIL_SIZES, SINGLE_SIZES

# layer -> (module, function names); the layers are lotoskit's modules
LAYERS: dict[str, list[tuple[str, list[str]]]] = {
    "syntax": [
        ("lotoskit.syntax.parser", ["parse_spec", "parse_behavior"]),
        ("lotoskit.syntax.validator", ["validate_spec"]),
        ("lotoskit.syntax.printer", ["pretty_behavior", "pretty_spec"]),
        ("lotoskit.syntax.adlparse", ["parse_adl"]),
        ("lotoskit.syntax.asc", ["parse_asc"]),
    ],
    "semantics": [
        ("lotoskit.semantics", ["generate_lts", "successors", "normalize", "strip_hiding"]),
    ],
    "verify": [
        ("lotoskit.verify", ["check_deadlock", "check_reachable", "check_safety", "bisim_equiv",
                             "minimize", "read_aut", "export_aut", "parse_monitor",
                             "parse_label_pattern"]),
    ],
    "contracts": [
        ("lotoskit.contracts", ["parse_facts", "eval_query", "check_interface", "check_asc"]),
    ],
    "adl": [("lotoskit.adl", ["validate_config", "flatten"])],
}
HOT = {"successors", "normalize", "pretty_behavior"}
PARSERS = ("parse_spec", "parse_behavior", "parse_adl", "parse_asc")
CHECKS = ("check_deadlock", "check_reachable", "check_safety", "bisim_equiv")


def _trace_len(result) -> int:
    return -1 if result.trace is None else len(result.trace)


# function -> numbers a span keeps from its arguments and result
INFO = {
    "generate_lts": lambda args, r: (r.num_states, r.num_transitions),
    "successors": lambda args, r: (len(r),),
    "bisim_equiv": lambda args, r: (args[0].num_states + args[1].num_states, _trace_len(r)),
    "minimize": lambda args, r: (args[0].num_states, r.num_states),
    "read_aut": lambda args, r: (len(args[0]),),
    "export_aut": lambda args, r: (len(r),),
    "check_deadlock": lambda args, r: (0, _trace_len(r)),
    "check_reachable": lambda args, r: (0, _trace_len(r)),
    "check_safety": lambda args, r: (0, _trace_len(r)),
    **{p: (lambda args, r: (len(args[0]),)) for p in PARSERS},
}


class Span:
    __slots__ = ("id", "job", "name", "layer", "parent", "start", "dur", "calls", "info", "errors")

    def __init__(self, id, job, name, layer, parent, start):
        self.id, self.job, self.name, self.layer = id, job, name, layer
        self.parent, self.start = parent, start
        self.dur, self.calls, self.info, self.errors = 0.0, 0, None, 0

    def add_info(self, info) -> None:
        if self.info is None:
            self.info = list(info)
        else:
            self.info = [a + b for a, b in zip(self.info, info)]


class Tracer:
    """Wraps the layers' public functions while installed; one job at a
    time is open, and every span records the job it belongs to."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.jobs: list[str] = []
        self._stack: list[Span] = []
        self._open: set[str] = set()
        self._hot: dict[tuple[int, str], Span] = {}
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------

    def install(self) -> None:
        targets = {}
        for layer, entries in LAYERS.items():
            for module_name, names in entries:
                module = sys.modules[module_name]
                for name in names:
                    fn = getattr(module, name)
                    targets[id(fn)] = self._wrap(fn, name, layer)
        for module_name, module in list(sys.modules.items()):
            if module_name != "lotoskit" and not module_name.startswith("lotoskit."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = targets.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, fn, name: str, layer: str):
        info = INFO.get(name)
        hot = name in HOT
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if name in tracer._open or not tracer._stack:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1]
            if hot:
                span = tracer._hot.get((parent.id, name))
                if span is None:
                    span = Span(len(tracer.spans), parent.job, name, layer, parent.id, None)
                    tracer.spans.append(span)
                    tracer._hot[(parent.id, name)] = span
            else:
                span = Span(len(tracer.spans), parent.job, name, layer, parent.id, clock())
                tracer.spans.append(span)
                tracer._stack.append(span)
            tracer._open.add(name)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                span.errors += 1
                raise
            finally:
                span.dur += clock() - start
                span.calls += 1
                tracer._open.discard(name)
                if not hot:
                    tracer._stack.pop()
            if info is not None:
                span.add_info(info(args, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- jobs ------------------------------------------------------------

    def begin_job(self, name: str) -> None:
        root = Span(len(self.spans), len(self.jobs), "job", "cli", None, time.perf_counter())
        self.jobs.append(name)
        self.spans.append(root)
        self._stack = [root]
        self._hot.clear()

    def end_job(self, raised: bool) -> float:
        """Close the job's root span; raised counts an exception that left
        the command line as an error of the cli layer."""
        root = self._stack[0]
        root.dur = time.perf_counter() - root.start
        root.calls = 1
        root.errors = int(raised)
        self._stack = []
        return root.dur

    def write_spans(self, path: Path) -> None:
        with path.open("w") as f:
            for s in self.spans:
                f.write(json.dumps({
                    "id": s.id, "job": s.job, "job_name": self.jobs[s.job], "name": s.name,
                    "layer": s.layer, "parent": s.parent, "start": s.start, "dur": s.dur,
                    "calls": s.calls, "info": s.info, "errors": s.errors,
                }) + "\n")


# ----------------------------------------------------------------------
# metrics


def _sweep_names() -> list[tuple[str, str, str]]:
    out = []
    for family, sizes in (("chain", [f"{n}x{m}" for n, m, _ in CHAIN_JOBS]),
                          ("buffer", [f"{n}x{d}" for n, d in BUFFER_SIZES]),
                          ("phil", [str(n) for n in PHIL_SIZES])):
        out += [(f"semantics.states_per_s.{family}-{s}", "states/s", "higher") for s in sizes]
    for family, sizes in (("aut-single", SINGLE_SIZES), ("aut-multi", MULTI_SIZES)):
        out += [(f"verify.refine_ms.{family}-L{depth}", "ms", "lower") for depth, _ in sizes]
    return out


LAYER_NAMES = ("syntax", "semantics", "verify", "contracts", "adl")

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER: list[tuple[str, str, str]] = [
    ("semantics.generate_ms", "ms", "lower"),
    ("semantics.states_per_s", "states/s", "higher"),
    ("semantics.transitions_per_s", "transitions/s", "higher"),
    ("semantics.normalize_ms", "ms", "lower"),
    ("semantics.normalize_calls", "count", "lower"),
    ("semantics.successors_ms", "ms", "lower"),
    ("semantics.successors_calls", "count", "lower"),
    ("semantics.step_dedup_ratio", "ratio", "higher"),
    ("semantics.self_ms", "ms", "lower"),
    ("semantics.states", "count", "lower"),
    ("semantics.transitions", "count", "lower"),
    ("syntax.print_ms", "ms", "lower"),
    ("syntax.print_calls", "count", "lower"),
    ("syntax.parse_ms", "ms", "lower"),
    ("syntax.parse_kb_per_s", "kB/s", "higher"),
    ("syntax.validate_ms", "ms", "lower"),
    ("syntax.pretty_spec_ms", "ms", "lower"),
    ("verify.deadlock_ms", "ms", "lower"),
    ("verify.reach_ms", "ms", "lower"),
    ("verify.safety_ms", "ms", "lower"),
    ("verify.trace_len", "steps", "lower"),
    ("verify.refine_ms", "ms", "lower"),
    ("verify.refine_states_per_s", "states/s", "higher"),
    ("verify.quotient_ratio", "ratio", "lower"),
    ("verify.read_aut_ms", "ms", "lower"),
    ("verify.export_aut_ms", "ms", "lower"),
    ("verify.aut_mb_per_s", "MB/s", "higher"),
    ("contracts.parse_facts_ms", "ms", "lower"),
    ("contracts.eval_query_ms", "ms", "lower"),
    ("contracts.check_interface_ms", "ms", "lower"),
    ("adl.validate_config_ms", "ms", "lower"),
    ("adl.flatten_ms", "ms", "lower"),
    ("cli.other_ms", "ms", "lower"),
    ("cli.job_ms", "ms", "lower"),
    *[(f"{layer}.busy_ms", "ms", "lower") for layer in LAYER_NAMES],
    *[(f"{layer}.errors", "count", "lower") for layer in (*LAYER_NAMES, "cli")],
    ("trace.jobs_per_s_untraced", "jobs/s", "higher"),
    ("trace.jobs_per_s_traced", "jobs/s", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
    *_sweep_names(),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, jobs_by_name: dict, cycles: int) -> dict[str, float]:
    """Per-layer metrics of the traced jobs.  A ``*_ms`` is busy
    milliseconds per job; counts of states and transitions are per cycle
    of the job list, which makes them exact."""
    spans = tracer.spans
    njobs = len(tracer.jobs)
    total = defaultdict(float)  # function -> seconds
    calls = defaultdict(int)
    info = defaultdict(lambda: [0, 0])
    child = defaultdict(float)  # span id -> seconds spent in child spans
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.dur
    busy = defaultdict(float)
    errors = defaultdict(int)
    gen_self = other = job_time = raw_steps = 0.0
    traces: list[int] = []
    sweep_states = defaultdict(lambda: [0, 0.0])
    sweep_refine = defaultdict(lambda: [0, 0.0])
    for s in spans:
        errors[s.layer] += s.errors
        if s.name == "job":
            other += s.dur - child[s.id]
            job_time += s.dur
            continue
        total[s.name] += s.dur
        calls[s.name] += s.calls
        busy[s.layer] += s.dur - child[s.id]
        if s.info is not None:
            for k, v in enumerate(s.info[:2]):
                info[s.name][k] += v
        if s.name in CHECKS and s.info is not None and s.info[1] >= 0:
            traces.append(s.info[1])
        job = jobs_by_name[tracer.jobs[s.job]]
        key = f"{job.family}-{job.size}"
        if s.name == "generate_lts" and s.info is not None:
            gen_self += s.dur - child[s.id]
            sweep_states[key][0] += s.info[0]
            sweep_states[key][1] += s.dur
        elif s.name == "successors" and spans[s.parent].name == "generate_lts":
            raw_steps += s.info[0]
        elif s.name in ("bisim_equiv", "minimize"):
            sweep_refine[key][0] += s.calls
            sweep_refine[key][1] += s.dur

    def ms(*names: str) -> float:
        return _ratio(1000 * sum(total[n] for n in names), njobs)

    states, transitions = info["generate_lts"]
    m = {
        "semantics.generate_ms": ms("generate_lts"),
        "semantics.states_per_s": _ratio(states, total["generate_lts"]),
        "semantics.transitions_per_s": _ratio(transitions, total["generate_lts"]),
        "semantics.normalize_ms": ms("normalize"),
        "semantics.normalize_calls": _ratio(calls["normalize"], njobs),
        "semantics.successors_ms": ms("successors"),
        "semantics.successors_calls": _ratio(calls["successors"], njobs),
        "semantics.step_dedup_ratio": _ratio(transitions, raw_steps),
        "semantics.self_ms": _ratio(1000 * gen_self, njobs),
        "semantics.states": _ratio(states, cycles),
        "semantics.transitions": _ratio(transitions, cycles),
        "syntax.print_ms": ms("pretty_behavior"),
        "syntax.print_calls": _ratio(calls["pretty_behavior"], njobs),
        "syntax.parse_ms": ms(*PARSERS),
        "syntax.parse_kb_per_s": _ratio(sum(info[p][0] for p in PARSERS) / 1000,
                                        sum(total[p] for p in PARSERS)),
        "syntax.validate_ms": ms("validate_spec"),
        "syntax.pretty_spec_ms": ms("pretty_spec"),
        "verify.deadlock_ms": ms("check_deadlock"),
        "verify.reach_ms": ms("check_reachable"),
        "verify.safety_ms": ms("check_safety"),
        "verify.trace_len": _ratio(sum(traces), len(traces)),
        "verify.refine_ms": ms("bisim_equiv", "minimize"),
        "verify.refine_states_per_s": _ratio(info["bisim_equiv"][0] + info["minimize"][0],
                                             total["bisim_equiv"] + total["minimize"]),
        "verify.quotient_ratio": _ratio(info["minimize"][1], info["minimize"][0]),
        "verify.read_aut_ms": ms("read_aut"),
        "verify.export_aut_ms": ms("export_aut"),
        "verify.aut_mb_per_s": _ratio((info["read_aut"][0] + info["export_aut"][0]) / 1e6,
                                      total["read_aut"] + total["export_aut"]),
        "contracts.parse_facts_ms": ms("parse_facts"),
        "contracts.eval_query_ms": ms("eval_query"),
        "contracts.check_interface_ms": ms("check_interface"),
        "adl.validate_config_ms": ms("validate_config"),
        "adl.flatten_ms": ms("flatten"),
        "cli.other_ms": _ratio(1000 * other, njobs),
        "cli.job_ms": _ratio(1000 * job_time, njobs),
    }
    for layer in LAYER_NAMES:
        m[f"{layer}.busy_ms"] = _ratio(1000 * busy[layer], njobs)
    for layer in (*LAYER_NAMES, "cli"):
        m[f"{layer}.errors"] = errors[layer]
    for name, _, _ in _sweep_names():
        key = name.split(".", 2)[2]
        if name.startswith("semantics."):
            m[name] = _ratio(*sweep_states[key])
        else:
            n, secs = sweep_refine[key]
            m[name] = _ratio(1000 * secs, n)
    return m
