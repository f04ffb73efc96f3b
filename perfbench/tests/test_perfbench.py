"""Tests of the benchmark itself: the input families and their stated
answers, the known-answer checker, and the layer tracer.

Run with ``python -m pytest perfbench/tests`` from the repository root.
The state counts are checked against small explicit enumerations of
each family's intended model, written here independently of lotoskit.
"""
import random
from pathlib import Path

import pytest

import check
import families
import layers
import run


def _bfs(start, moves):
    seen, todo, edges = {start}, [start], 0
    while todo:
        state = todo.pop()
        for nxt in moves(state):
            edges += 1
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return len(seen), edges


@pytest.mark.parametrize("n,m", [(1, 3), (2, 4), (3, 3), (4, 2)])
def test_chain_counts_match_enumeration(n, m):
    def moves(pos):
        return [pos[:k] + (p + 1,) + pos[k + 1:] for k, p in enumerate(pos) if p < m]

    assert families.chain_counts(n, m) == _bfs((0,) * n, moves)


@pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (4, 3)])
def test_buffer_counts_match_enumeration(n, d):
    def moves(buf):
        out = []
        if buf[0] is None:
            out += [(v,) + buf[1:] for v in range(d)]
        for k in range(n - 1):
            if buf[k] is not None and buf[k + 1] is None:
                out.append(buf[:k] + (None, buf[k]) + buf[k + 2:])
        if buf[-1] is not None:
            out.append(buf[:-1] + (None,))
        return out

    assert families.buffer_counts(n, d) == _bfs((None,) * n, moves)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_phil_states_match_enumeration(n):
    # philosopher k: 0 thinking, 1 holds fork k, 2 holds forks k and k+1
    def moves(state):
        phils, held = state
        out = []
        for k in range(n):
            p, h = list(phils), list(held)
            if phils[k] == 0 and not held[k]:
                p[k], h[k] = 1, True
            elif phils[k] == 1 and not held[(k + 1) % n]:
                p[k], h[(k + 1) % n] = 2, True
            elif phils[k] == 2:
                p[k], h[k], h[(k + 1) % n] = 0, False, False
            else:
                continue
            out.append((tuple(p), tuple(h)))
        return out

    states, _ = _bfs(((0,) * n, (False,) * n), moves)
    assert families.phil_states(n) == states


def test_layered_aut_is_reachable_layered_and_shuffled():
    rng = random.Random(3)
    labels = ["a0", "a1", "a2", "a3"]
    text, sinks = families.layered_aut(rng, labels, copies=5)
    lines = text.splitlines()
    initial, count, states = (int(x) for x in lines[0][5:-1].split(", "))
    assert states == 1 + 4 * 5 and count == len(lines) - 1
    out: dict[int, set] = {s: set() for s in range(states)}
    for ln in lines[1:]:
        src, label, dst = ln[1:-1].split(", ")
        out[int(src)].add((label.strip('"'), int(dst)))
    depth = {initial: 0}
    frontier = [initial]
    while frontier:
        nxt = []
        for s in frontier:
            for label, d in out[s]:
                assert label == labels[depth[s]]
                assert depth.setdefault(d, depth[s] + 1) == depth[s] + 1
                nxt.append(d)
        frontier = sorted(set(nxt) - set(frontier))
    assert len(depth) == states
    assert sorted(s for s in range(states) if not out[s]) == sinks
    assert all(depth[s] == len(labels) for s in sinks)
    assert lines[1:] != sorted(lines[1:])


def test_workloads_are_seeded_and_sized_by_grid():
    for name, make in families.WORKLOADS.items():
        a, b, c = (make(seed, _corpus()) for seed in (1, 1, 2))
        assert a.files == b.files and [j.name for j in a.jobs] == [j.name for j in b.jobs]
        assert a.files != c.files
        assert sorted(j.name for j in a.jobs) == sorted(j.name for j in c.jobs)
        assert set(a.files) == set(c.files)
        assert a.warmup and all(j in a.jobs for j in a.warmup)


def _corpus():
    corpus = Path(__file__).resolve().parents[2] / "corpus"
    return {p.name: p.read_text() for p in corpus.iterdir() if p.is_file()}


# ----------------------------------------------------------------------
# checker


def test_aut_check():
    good = 'des (0, 2, 3)\n(0, "a", 1)\n(1, "b", 2)\n'
    assert check.check_job({"kind": "aut", "states": 3, "transitions": 2}, 0, good, "", Path()) is None
    assert "states" in check.check_job({"kind": "aut", "states": 4}, 0, good, "", Path())
    assert "exit code" in check.check_job({"kind": "aut", "states": 3}, 2, good, "", Path())
    bad = 'des (0, 2, 3)\n(0, "a", 1)\n(1, "b", 7)\n'
    assert "out of range" in check.check_job({"kind": "aut", "states": 3}, 0, bad, "", Path())


def test_chain_trace_rule():
    want = {"chain": [2, ["g0", "g1"]]}
    assert check.trace_problem(want, ["g0", "g0", "g1", "g1"]) is None
    assert check.trace_problem(want, ["g0", "g1", "g0", "g1"]) is None
    assert check.trace_problem(want, ["g0", "g1", "g1", "g0"]) is not None
    assert check.trace_problem(want, ["g0", "g1", "g0"]) is not None
    assert check.trace_problem(want, ["g0", "g0", "g0", "g1"]) is not None


def test_verdict_check():
    expect = {"kind": "verdict", "exit": 1, "property": "deadlock",
              "trace": {"perm": ["t0", "t1"]}, "states": [4, 5]}
    out = "deadlock: violated (deadlock at state 5)\ntrace: t1 ; t0\n"
    assert check.check_job(expect, 1, out, "", Path()) is None
    assert check.check_job(expect, 1, out.replace("state 5", "state 3"), "", Path())
    assert check.check_job(expect, 1, out.replace("t1 ; t0", "t1 ; t1"), "", Path())
    assert check.check_job(expect, 0, out, "", Path())
    ok = {"kind": "verdict", "exit": 0, "property": "bisim"}
    assert check.check_job(ok, 0, "bisim: ok (strongly bisimilar)\n", "", Path()) is None
    assert check.check_job(ok, 0, "bisim: violated (x)\n", "", Path())


def test_lines_check_counts_diagnostic_codes():
    expect = {"kind": "lines", "exit": 1, "lines": ["f.lot: 2 error(s)"],
              "codes": ["unknown-gate", "unknown-process"]}
    err = "f.lot:3:4: error[unknown-process]: x\nf.lot:9:1: error[unknown-gate]: y\n"
    assert check.check_job(expect, 1, "f.lot: 2 error(s)\n", err, Path()) is None
    assert check.check_job(expect, 1, "f.lot: 2 error(s)\n", err.replace("gate", "sort"), Path())


# ----------------------------------------------------------------------
# the program against the known answers, and the tracer


@pytest.fixture(scope="module")
def lotoskit_modules():
    cli, verify, _ = run.import_lotoskit()
    return cli, verify


@pytest.mark.parametrize("name", sorted(families.WORKLOADS))
def test_every_job_gets_its_known_answer(name, lotoskit_modules, tmp_path, monkeypatch):
    workload = families.WORKLOADS[name](7, _corpus())
    for fname, text in workload.files.items():
        (tmp_path / fname).write_text(text)
    monkeypatch.chdir(tmp_path)
    runner = run.Runner(*lotoskit_modules, tmp_path)
    problems = [(job.name, runner.run_job(job)[1]) for job in workload.jobs]
    assert [p for p in problems if p[1] is not None] == []


def test_tracer_accounts_for_job_time(lotoskit_modules, tmp_path, monkeypatch):
    from lotoskit import cli, semantics

    workload = families.frontend(5)
    for fname, text in workload.files.items():
        (tmp_path / fname).write_text(text)
    monkeypatch.chdir(tmp_path)
    runner = run.Runner(*lotoskit_modules, tmp_path)
    original = cli.parse_spec
    tracer = layers.Tracer()
    tracer.install()
    runner.tracer = tracer
    try:
        assert cli.parse_spec is not original
        for job in workload.jobs:
            assert runner.run_job(job)[1] is None
    finally:
        tracer.uninstall()
    assert cli.parse_spec is original and semantics.normalize.__name__ == "normalize"
    m = layers.layer_metrics(tracer, {j.name: j for j in workload.jobs}, cycles=1)
    parts = sum(m[f"{layer}.busy_ms"] for layer in layers.LAYER_NAMES) + m["cli.other_ms"]
    assert parts == pytest.approx(m["cli.job_ms"])
    assert m["syntax.parse_ms"] > 0 and m["contracts.eval_query_ms"] > 0
    assert m["adl.flatten_ms"] > 0 and m["semantics.generate_ms"] > 0
    missing = {name for name, _, _ in layers.PER_LAYER} - set(m)
    assert missing == {"trace.jobs_per_s_untraced", "trace.jobs_per_s_traced", "trace.overhead_ratio"}


def test_benchmark_json_lists_the_reported_metrics():
    import json

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(families.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    with pytest.raises(SystemExit) as exc:
        run.import_lotoskit()
    assert "no lotoskit sources" in str(exc.value)
