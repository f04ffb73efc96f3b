"""End-to-end acceptance checks.

Each test prints exactly one PASS/FAIL line (past pytest's capture) so a
log of a full run shows the verdict per criterion at a glance."""
import random
import time

import pytest

import query_oracle
import sos_oracle
from behavior_gen import gen_behavior, wrap
from conftest import CORPUS, LOT_FILES, load_spec
from lotoskit import (
    bisim_equiv,
    check_asc,
    check_deadlock,
    check_reachable,
    check_safety,
    eval_query,
    export_aut,
    flatten,
    generate_lts,
    parse_adl,
    parse_asc,
    parse_facts,
    parse_label_pattern,
    parse_monitor,
)
from lotoskit.semantics import strip_hiding
from lotoskit.syntax import ast
from test_contracts import random_instance


@pytest.fixture
def verdict(capfd):
    def emit(number, title, ok):
        with capfd.disabled():
            print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {title}")
        assert ok, f"criterion {number}: {title}"
    return emit


def test_criterion_1_point_to_point_cycle(verdict):
    started = time.perf_counter()
    spec = load_spec("client_server.lot")
    lts = generate_lts(spec)
    deadlock = check_deadlock(lts)
    elapsed = time.perf_counter() - started

    cycle = [
        (0, "invClt !s1 !op1", 1),
        (1, "invSrv !s1 !op1", 2),
        (2, "terSrv !s1 !r1", 3),
        (3, "terClt !s1 !r1", 0),
    ]
    forms, edges = sos_oracle.explore(spec)
    ok = (
        lts.num_states == 4
        and lts.transitions == cycle
        and deadlock.ok
        and len(forms) == 4
        and len(edges) == 4
        and elapsed < 1.0
    )
    verdict(1, "client/server composition is the expected 4-state cycle", ok)


def test_criterion_2_service_ordering(verdict):
    started = time.perf_counter()
    monitor, diags = parse_monitor((CORPUS / "multicast_order.mon").read_text())
    assert monitor is not None, [str(d) for d in diags]

    ordered = check_safety(
        generate_lts(strip_hiding(load_spec("multicast.lot"))), monitor
    )
    broken = check_safety(
        generate_lts(strip_hiding(load_spec("multicast_unordered.lot"))), monitor
    )
    elapsed = time.perf_counter() - started
    ok = (
        ordered.ok
        and not broken.ok
        and broken.trace is not None
        and len(broken.trace) > 0
        and broken.trace[-1].startswith("inv !Service2")
        and elapsed < 5.0
    )
    verdict(2, "ordering layer enforces the invocation order a monitor can refute without it", ok)


def test_criterion_3_observer_contract_and_mutations(verdict):
    contract, _ = parse_asc((CORPUS / "observer.asc").read_text())
    facts, _ = parse_facts((CORPUS / "observer.facts").read_text())
    report = check_asc(contract, facts, load_spec(contract.bc.path))

    clean_ok = (
        report.ok
        and report.sc_witness == {
            "s": "Subject", "o": "Observer",
            "cs": "ConcreteSubject", "co": "ConcreteObserver",
        }
        and report.ic_violations == []
        and report.bc_result.ok
        and "change" in contract.ic.external_in
    )

    expectations = {
        "observer_dup_in_port.asc": "C1",
        "observer_change_not_external.asc": "C3",
        "observer_notify_unproduced.asc": "C3",
        "observer_bad_predicate.asc": "unknown-predicate",
    }
    mutations_ok = True
    for name, want in expectations.items():
        mutated, diags = parse_asc((CORPUS / "mutations" / name).read_text())
        if mutated is None:
            found = [d.code for d in diags]
        else:
            mreport = check_asc(mutated, facts, load_spec(f"mutations/{mutated.bc.path}"))
            found = [v.code for v in (mreport.ic_violations or [])]
            if mreport.ok:
                mutations_ok = False
        if found != [want]:
            mutations_ok = False

    verdict(3, "observer contract holds and each mutation fails with its expected code", clean_ok and mutations_ok)


def test_criterion_4_algebraic_laws(verdict):
    rng = random.Random(41)
    failures = 0
    for _ in range(60):
        a = gen_behavior(rng, rng.randint(0, 4))
        b = gen_behavior(rng, rng.randint(0, 4))
        lts = lambda term: generate_lts(wrap(term))
        laws = [
            bisim_equiv(lts(ast.Choice(a, b)), lts(ast.Choice(b, a))),
            bisim_equiv(lts(ast.Choice(b, ast.Stop())), lts(b)),
            bisim_equiv(
                lts(ast.Par(a, ast.ParKind.INTERLEAVE, frozenset(), b)),
                lts(ast.Par(b, ast.ParKind.INTERLEAVE, frozenset(), a)),
            ),
            bisim_equiv(
                lts(ast.Seq(ast.Exit(), b)),
                lts(ast.Prefix(ast.InternalAction(), b)),
            ),
        ]
        if not all(law.ok for law in laws):
            failures += 1
    verdict(4, "choice/interleaving/enable laws hold on 60 random terms", failures == 0)


def chain(names):
    out = ast.Stop()
    for name in reversed(names):
        out = ast.Prefix(ast.Comm(name), out)
    return out


def test_criterion_5_interleaving_counts(verdict):
    ok = True
    for m in range(1, 6):
        for n in range(1, 6):
            left = chain([f"l{i}" for i in range(m)])
            right = chain([f"r{i}" for i in range(n)])
            par = ast.Par(left, ast.ParKind.INTERLEAVE, frozenset(), right)
            spec = ast.Specification("Chains", (), (), (), par)
            lts = generate_lts(spec)
            if lts.num_states != (m + 1) * (n + 1):
                ok = False
            if lts.num_transitions != m * (n + 1) + n * (m + 1):
                ok = False
    verdict(5, "independent chains interleave to (m+1)(n+1) states for m,n in 1..5", ok)


def test_criterion_6_query_agreement(verdict):
    rng = random.Random(61)
    agreed = 0
    for _ in range(200):
        fb, query = random_instance(rng)
        witness = eval_query(fb, query)
        solutions = query_oracle.all_solutions(fb, query)
        if witness is None:
            agreed += solutions == []
        else:
            agreed += witness in solutions
    verdict(6, "query evaluation agrees with brute-force enumeration on 200 instances", agreed == 200)


def bfs_dist(lts):
    dist = {lts.initial: 0}
    queue = [lts.initial]
    while queue:
        s = queue.pop(0)
        for _, dst in lts.out[s]:
            if dst not in dist:
                dist[dst] = dist[s] + 1
                queue.append(dst)
    return dist


def shortest_deadlock(lts):
    incoming = {}
    for _, label, dst in lts.transitions:
        incoming.setdefault(dst, set()).add(label)
    dist = bfs_dist(lts)
    dead = [
        dist[s]
        for s in range(lts.num_states)
        if s in dist and not lts.out[s] and incoming.get(s) != {"exit"}
    ]
    return min(dead) if dead else None


def shortest_match(lts, pattern):
    dist = bfs_dist(lts)
    hits = [
        dist[src] + 1
        for src, label, _ in lts.transitions
        if src in dist and pattern.matches(label)
    ]
    return min(hits) if hits else None


def shortest_violation(lts, monitor):
    start = (lts.initial, monitor.initial)
    dist = {start: 0}
    queue = [start]
    best = None
    while queue:
        s, m = queue.pop(0)
        if m in monitor.bad:
            best = dist[(s, m)]
            break
        for lab, dst in lts.out[s]:
            nxt = (dst, monitor.step(m, lts.label_text[lab]))
            if nxt not in dist:
                dist[nxt] = dist[(s, m)] + 1
                queue.append(nxt)
    return best


def test_criterion_7_determinism_and_shortest_traces(verdict):
    ok = True

    for name in LOT_FILES:
        first = export_aut(generate_lts(load_spec(name)))
        second = export_aut(generate_lts(load_spec(name)))
        if first != second:
            ok = False

    for name in LOT_FILES:
        lts = generate_lts(load_spec(name))
        if lts.num_states > 200:
            ok = False  # corpus is meant to stay desk-sized
            continue
        want = shortest_deadlock(lts)
        got = check_deadlock(lts)
        if (want is None) != got.ok:
            ok = False
        if want is not None and got.trace is not None and len(got.trace) != want:
            ok = False
        for label in lts.label_text:
            pattern = parse_label_pattern(label)
            reach = check_reachable(lts, pattern)
            want_len = shortest_match(lts, pattern)
            if not reach.ok or reach.trace is None or len(reach.trace) != want_len:
                ok = False

    monitor, _ = parse_monitor((CORPUS / "multicast_order.mon").read_text())
    broken_lts = generate_lts(strip_hiding(load_spec("multicast_unordered.lot")))
    broken = check_safety(broken_lts, monitor)
    if broken.ok or len(broken.trace) != shortest_violation(broken_lts, monitor):
        ok = False

    verdict(7, "repeated runs are byte-identical and counterexample traces are shortest", ok)


def test_criterion_8_architecture_round_trip(verdict):
    ok = True
    for adl_name, lot_name in [
        ("client_server.adl", "client_server.lot"),
        ("multicast.adl", "multicast.lot"),
    ]:
        source = load_spec(lot_name)
        config, diags = parse_adl((CORPUS / adl_name).read_text())
        if config is None:
            ok = False
            continue
        flat = flatten(config, [source])
        if not bisim_equiv(generate_lts(flat), generate_lts(source)).ok:
            ok = False
    verdict(8, "flattened architecture configurations are bisimilar to their handwritten sources", ok)
