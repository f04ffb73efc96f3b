import argparse
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from conftest import CORPUS
from lotoskit import cli, semantics
from lotoskit.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def corpus(name):
    return str(CORPUS / name)


# ----------------------------------------------------------------------
# check


def test_check_ok(capsys):
    code, out, err = run(capsys, "check", corpus("client_server.lot"))
    assert code == 0
    assert "ClientServer: ok" in out
    assert err == ""


def test_check_reports_diagnostics(capsys, tmp_path):
    bad = tmp_path / "bad.lot"
    bad.write_text("specification S [g] : noexit :=\n  behaviour\n    q; stop\nendspec\n")
    code, out, err = run(capsys, "check", str(bad))
    assert code == 1
    assert "unknown-gate" in err
    assert "1 error(s)" in out


def test_check_json(capsys):
    code, out, _ = run(capsys, "check", corpus("observer.lot"), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["name"] == "ObserverPattern"
    assert payload["diagnostics"] == []


def test_check_json_carries_diagnostics(capsys, tmp_path):
    bad = tmp_path / "bad.lot"
    bad.write_text("specification S [g] : noexit := behaviour q; stop endspec\n")
    code, out, _ = run(capsys, "check", str(bad), "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    assert payload["diagnostics"][0]["code"] == "unknown-gate"
    assert payload["diagnostics"][0]["line"] == 1


def test_library_clause_file_is_rejected(capsys, tmp_path):
    # the behaviour names an unknown gate too; nothing past the clause is checked
    path = tmp_path / "lib.lot"
    path.write_text("specification S [g] : noexit :=\n  library NaturalNumber endlib\n  behaviour q; stop\nendspec\n")
    message = "library sections are not supported; declare finite sorts instead"
    code, out, err = run(capsys, "check", str(path))
    assert code == 1
    assert err == f"{path}:2:3: error[library-not-supported]: {message}\n"
    assert out == f"{path}: 1 error(s)\n"
    code, out, _ = run(capsys, "check", str(path), "--format", "json")
    assert code == 1
    assert json.loads(out)["diagnostics"] == [{
        "severity": "error", "line": 2, "col": 3,
        "code": "library-not-supported", "message": message,
    }]
    code, out, err = run(capsys, "lts", str(path))
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == f"lotoskit: '{path}' is not a valid specification"


def test_unreadable_file_is_operational_error(capsys, tmp_path):
    undecodable = tmp_path / "bad.lot"
    undecodable.write_bytes(b"specification S \xff")
    undecodable_aut = tmp_path / "bad.aut"
    undecodable_aut.write_bytes(b"des (0, 0, 1)\n\xff")
    contract = tmp_path / "bad_bc.asc"
    contract.write_text('component C where\n  bc B from "bad.lot"\nend\n')
    for argv in (
        ["check", "no/such/file.lot"],
        ["check", str(undecodable)],
        ["verify", "deadlock", str(undecodable_aut)],
        ["contract", corpus("observer.asc"), "--facts", str(undecodable)],
        ["contract", str(contract)],
    ):
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert "cannot read" in err, argv


def test_unwritable_output_is_operational_error(capsys, tmp_path):
    for argv in (
        ["lts", corpus("client_server.lot"), "-o", str(tmp_path / "no" / "out.aut")],
        ["lts", corpus("client_server.lot"), "-o", str(tmp_path)],
        ["adl", corpus("client_server.adl"), "--flatten", str(tmp_path)],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith(f"lotoskit: cannot write '{argv[-1]}': "), argv


def test_closed_stdout_exits_quietly(tmp_path):
    # one output that fits the stdout buffer, so that the pipe breaks at
    # the last flush, and one that does not, so that it breaks mid-print
    chain = tmp_path / "chain.lot"
    chain.write_text("specification S [a] : noexit := behaviour " + "a; " * 2000 + "stop endspec\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for path in (corpus("client_server.lot"), str(chain)):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "lotoskit.cli", "lts", path], stdout=write_end,
                                  stderr=subprocess.PIPE, env=env, text=True, timeout=120)
        finally:
            os.close(write_end)
        assert proc.returncode == 2, path
        assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr, proc.stderr


# ----------------------------------------------------------------------
# lts


EXPECTED_AUT = (
    "des (0, 4, 4)\n"
    '(0, "invClt !s1 !op1", 1)\n'
    '(1, "invSrv !s1 !op1", 2)\n'
    '(2, "terSrv !s1 !r1", 3)\n'
    '(3, "terClt !s1 !r1", 0)\n'
)


def test_lts_to_stdout(capsys):
    code, out, _ = run(capsys, "lts", corpus("client_server.lot"))
    assert code == 0
    assert out == EXPECTED_AUT


def test_lts_to_file(capsys, tmp_path):
    target = tmp_path / "out.aut"
    code, out, _ = run(capsys, "lts", corpus("client_server.lot"), "-o", str(target))
    assert code == 0
    assert target.read_text() == EXPECTED_AUT
    assert "4 state(s), 4 transition(s)" in out


def test_lts_minimize(capsys):
    code, out, _ = run(capsys, "lts", corpus("multicast_unordered.lot"), "--minimize")
    assert code == 0
    assert out.startswith("des (0, 9, 9)\n")


def test_lts_reads_an_aut_file_as_verify_does(capsys, tmp_path):
    exported = tmp_path / "cs.aut"
    run(capsys, "lts", corpus("client_server.lot"), "-o", str(exported))
    for file in (corpus("client_server.lot"), str(exported)):
        code, out, _ = run(capsys, "lts", file, "--minimize")
        assert (code, out) == (0, EXPECTED_AUT)
    # the header is held to the budget before any row is built
    code, _, err = run(capsys, "lts", str(exported), "--max-states", "3")
    assert code == 2
    assert err == f"lotoskit: '{exported}' has 4 states, more than the state budget of 3\n"


def test_lts_budget_exhaustion(capsys):
    code, _, err = run(capsys, "lts", corpus("multicast_unordered.lot"), "--max-states", "5")
    assert code == 2
    assert "budget" in err
    assert "after 5 states" in err


def test_lts_invalid_spec_is_operational_error(capsys, tmp_path):
    bad = tmp_path / "bad.lot"
    bad.write_text("specification S [g] : noexit := behaviour q; stop endspec\n")
    code, _, err = run(capsys, "lts", str(bad))
    assert code == 2
    assert "unknown-gate" in err


def test_lts_send_after_rebinding_receive(capsys, tmp_path):
    spec = tmp_path / "rebind.lot"
    spec.write_text(
        "specification Rebind [g] : noexit :=\n  sorts S = { v1, v2 }\n"
        "  behaviour\n    g ?x: S; g ?x: S !x; stop\nendspec\n"
    )
    code, out, err = run(capsys, "lts", str(spec))
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "des (0, 4, 3)",
        '(0, "g !v1", 1)', '(0, "g !v2", 1)', '(1, "g !v1 !v1", 2)', '(1, "g !v2 !v2", 2)',
    ]


def run_at_default_limit(capsys, *argv):
    """run at a fresh interpreter's recursion limit, whatever ran earlier
    in this process"""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        return run(capsys, *argv)
    finally:
        sys.setrecursionlimit(limit)


def write_chain(tmp_path, in_process=False):
    """A spec whose behaviour is a 3,000-action prefix chain: bare, or as
    the body of a process entered on renamed gates, starting with a
    receive whose variable the 2,999 sends after it offer."""
    deep = tmp_path / "deep.lot"
    if in_process:
        deep.write_text(
            "specification Deep [a] : noexit :=\n  sorts S = { v }\n  behaviour\n    P [a]\n"
            "  where\n    process P [g] : noexit :=\n      g ?x: S; "
            + "g !x; " * 2999 + "stop\n    endproc\nendspec\n"
        )
    else:
        deep.write_text(
            "specification Deep [a] : noexit :=\n  behaviour\n    "
            + "a; " * 3000 + "stop\nendspec\n"
        )
    return deep


def test_check_reads_5000_nested_hides_at_the_default_limit(capsys, tmp_path):
    """No command hashes, compares or prints a deep syntax tree: records
    do that through their fields, one level of recursion per level."""
    deep = tmp_path / "hides.lot"
    deep.write_text("specification S [g] : noexit :=\n  behaviour " + "hide g in " * 5000
                    + "g; stop\nendspec\n")
    code, out, err = run_at_default_limit(capsys, "check", str(deep))
    assert (code, out, err) == (0, "S: ok (0 process(es), 0 sort(s))\n", "")


def test_too_deep_input_is_operational_error(capsys, tmp_path):
    deep = tmp_path / "deep.lot"
    deep.write_text(
        "specification Deep [a] : noexit :=\n  behaviour\n    "
        + " [] ".join(["a; stop"] * 600) + "\nendspec\n"
    )
    # the steps of a choice are computed from those of its operands
    code, _, err = run_at_default_limit(capsys, "verify", "deadlock", str(deep))
    assert code == 2
    assert err.startswith("lotoskit: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("in_process", [False, True], ids=["bare", "process-body"])
def test_long_prefix_chain_explores(capsys, tmp_path, in_process):
    deep = write_chain(tmp_path, in_process)
    label = "a !v" if in_process else "a"
    # --no-hide rebuilds the specification without its hides first
    for flags in ((), ("--no-hide",)):
        code, out, err = run_at_default_limit(capsys, "lts", str(deep), *flags)
        assert (code, err) == (0, "")
        assert out.splitlines() == ["des (0, 3000, 3001)"] + [
            f'({k}, "{label}", {k + 1})' for k in range(3000)
        ]
        code, out, err = run_at_default_limit(capsys, "verify", "deadlock", str(deep), *flags)
        assert (code, err) == (1, "")
        assert out == (
            "deadlock: violated (deadlock at state 3000 = stop)\ntrace: "
            + " ; ".join([label] * 3000) + "\n"
        )


def test_adl_composition_of_many_instances(capsys, tmp_path):
    count = 1500
    (tmp_path / "parts.lot").write_text(
        "specification Parts [g] : noexit :=\n  behaviour stop\n  where\n"
        "    process Comp [p] : noexit := p; Comp [p] endproc\n"
        "    process Link [p, q] : noexit := p; q; Link [p, q] endproc\nendspec\n"
    )
    components = ",\n".join(f"    c{k} = Comp [g{k}]" for k in range(count))
    config = tmp_path / "many.adl"
    config.write_text(
        f'configuration Many\n  use "parts.lot"\n  components {{\n{components}\n  }}\n'
        "  connectors {\n    n = Link [g0, g1]\n  }\n  composition {\n    "
        + " ||| ".join(f"c{k}" for k in range(count)) + " ||| n\n  }\nend\n"
    )
    code, out, err = run_at_default_limit(capsys, "adl", str(config))
    assert (code, out, err) == (0, f"Many: ok ({count} component(s), 1 connector(s))\n", "")
    flat = tmp_path / "flat.lot"
    code, out, err = run_at_default_limit(capsys, "adl", str(config), "--flatten", str(flat))
    assert (code, err) == (0, "")
    assert out.splitlines()[1] == f"flattened -> {flat}"
    text = flat.read_text()
    assert text.startswith(
        "specification Many [" + ", ".join(f"g{k}" for k in range(count)) + "] : noexit :=\n"
    )
    assert " ||| ".join(f"Comp [g{k}]" for k in range(count)) + " ||| Link [g0, g1]\n" in text


def test_deadlocked_long_chain_prints_its_state(capsys, tmp_path):
    deep = tmp_path / "deep.lot"
    form = "b; " + "a; " * 2999 + "stop |[b]| stop"
    deep.write_text(
        "specification Deep [a, b] : noexit :=\n  behaviour\n    (b; "
        + "a; " * 2999 + "stop) |[b]| stop\nendspec\n"
    )
    code, out, err = run_at_default_limit(capsys, "verify", "deadlock", str(deep))
    assert (code, err) == (1, "")
    assert out == f"deadlock: violated (deadlock at state 0 = {form})\ntrace: <empty>\n"


def test_check_accepts_a_long_prefix_chain(capsys, tmp_path):
    deep = write_chain(tmp_path)
    code, out, err = run_at_default_limit(capsys, "check", str(deep))
    assert (code, out, err) == (0, "Deep: ok (0 process(es), 0 sort(s))\n", "")


def write_nested(tmp_path, opener, body, closer, depth=5000):
    deep = tmp_path / "deep.lot"
    deep.write_text(
        "specification Deep [a] : noexit :=\n  behaviour\n    "
        + opener * depth + body + closer * depth + "\nendspec\n"
    )
    return deep


@pytest.mark.parametrize("opener, closer", [("(", ")"), ("hide a in ", "")])
def test_check_accepts_deep_nesting(capsys, tmp_path, opener, closer):
    deep = write_nested(tmp_path, opener, "a; stop", closer)
    code, out, err = run_at_default_limit(capsys, "check", str(deep))
    assert (code, out, err) == (0, "Deep: ok (0 process(es), 0 sort(s))\n", "")


def at_depth(frames, call):
    """call() made with frames more Python frames on the stack"""
    return call() if frames == 0 else at_depth(frames - 1, call)


def test_syntax_error_in_deep_nesting_is_the_same_at_any_caller_depth(capsys, tmp_path):
    deep = write_nested(tmp_path, "(", "a; ; stop", ")")
    top = run_at_default_limit(capsys, "check", str(deep))
    nested = at_depth(300, lambda: run_at_default_limit(capsys, "check", str(deep)))
    assert top == nested
    # the second ";" of line 3, after 4 spaces, 5,000 "(" and "a; "
    assert top == (1, f"{deep}: 1 error(s)\n", f"{deep}:3:5008: error[syntax-error]: "
                   "expected a behaviour expression, found ';'\n")


def test_adl_flattens_a_deeply_nested_composition(capsys, tmp_path):
    (tmp_path / "client_server.lot").write_text((CORPUS / "client_server.lot").read_text())
    head, rest = (CORPUS / "client_server.adl").read_text().split("composition {", 1)
    body, tail = rest.split("}", 1)
    config = tmp_path / "deep.adl"
    config.write_text(head + "composition {" + "hide invClt in " * 2000 + "(" * 5000 + body
                      + ")" * 5000 + "}" + tail)
    flat = tmp_path / "flat.lot"
    code, out, err = run_at_default_limit(capsys, "adl", str(config), "--flatten", str(flat))
    assert (code, err) == (0, "")
    assert out.splitlines()[1] == f"flattened -> {flat}"


def test_exit_gate_is_reserved(capsys, tmp_path):
    spec = tmp_path / "exit_gate.lot"
    spec.write_text(
        "specification S [exit] : noexit := behaviour P [exit] where\n"
        "process P [g] : noexit := g; stop endproc endspec\n"
    )
    code, _, err = run(capsys, "check", str(spec))
    assert code == 1
    assert "reserved-name" in err
    code, out, _ = run(capsys, "verify", "deadlock", str(spec))
    assert code == 2
    assert out == ""


def test_bisim_system_without_states_against_one_with_states(capsys, tmp_path):
    empty = tmp_path / "empty.aut"
    empty.write_text("des (0, 0, 0)\n")
    one = tmp_path / "one.aut"
    one.write_text('des (0, 1, 2)\n(0, "a", 1)\n')
    for pair in ((empty, one), (one, empty)):
        code, out, err = run(capsys, "verify", "bisim", *map(str, pair))
        assert code == 1
        assert out == "bisim: violated (not strongly bisimilar; only one system has states)\n"
        assert err == ""


def test_bisim_two_systems_without_states(capsys, tmp_path):
    empty = tmp_path / "empty.aut"
    empty.write_text("des (0, 0, 0)\n")
    code, out, err = run(capsys, "verify", "bisim", str(empty), str(empty))
    assert (code, out, err) == (0, "bisim: ok (strongly bisimilar)\n", "")


@pytest.mark.parametrize("command, target", [
    (["lts"], "generate_lts"),
    # the checks explore in lockstep, through successors
    (["verify", "deadlock"], "successors"),
], ids=["lts", "verify-deadlock"])
def test_out_of_memory_is_operational_error(capsys, monkeypatch, command, target):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(semantics, target, exhausted)
    code, out, err = run(capsys, *command, corpus("client_server.lot"))
    assert code == 2
    assert out == ""
    assert err == "lotoskit: out of memory\n"


@pytest.mark.parametrize("command", [["lts"], ["verify", "deadlock"]])
def test_unguarded_recursion_is_operational_error(capsys, tmp_path, command):
    loop = tmp_path / "loop.lot"
    loop.write_text(
        "specification L [a] : noexit := behaviour P [a]\n"
        "where process P [g] : noexit := P [g] endproc\nendspec\n"
    )
    code, out, err = run(capsys, *command, str(loop))
    assert code == 2
    assert out == ""
    assert err == "lotoskit: process 'P' recurses without an intervening action\n"


# ----------------------------------------------------------------------
# verify


def test_verify_deadlock_ok(capsys):
    code, out, _ = run(capsys, "verify", "deadlock", corpus("client_server.lot"))
    assert code == 0
    assert out.startswith("deadlock: ok")


def test_verify_deadlock_violated(capsys):
    code, out, _ = run(capsys, "verify", "deadlock", corpus("deadlocked.lot"))
    assert code == 1
    assert "violated" in out
    assert "trace: b" in out


def test_verify_deadlock_json(capsys):
    code, out, _ = run(
        capsys, "verify", "deadlock", corpus("deadlocked.lot"), "--format", "json"
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["property"] == "deadlock"
    assert payload["ok"] is False
    assert payload["trace"] == ["b"]


def test_verify_reach(capsys):
    code, out, _ = run(
        capsys, "verify", "reach", corpus("multicast.lot"), "terClt !res"
    )
    assert code == 0
    assert "reachable" in out


def test_verify_reach_negative(capsys):
    code, out, _ = run(
        capsys, "verify", "reach", corpus("multicast.lot"), "inv !Service1 !*"
    )
    assert code == 1  # hidden gates are not observable without --no-hide


def test_verify_reach_no_hide(capsys):
    code, out, _ = run(
        capsys, "verify", "reach", corpus("multicast.lot"), "inv !Service1 !*", "--no-hide"
    )
    assert code == 0
    assert "trace: invClt !op1 ; inv !Service1 !op1" in out


def test_verify_reach_bad_pattern(capsys):
    code, _, err = run(capsys, "verify", "reach", corpus("multicast.lot"), "!!")
    assert code == 3
    assert "bad pattern" in err


def test_verify_safety(capsys, tmp_path):
    code, out, _ = run(
        capsys, "verify", "safety", corpus("multicast.lot"),
        corpus("multicast_order.mon"), "--no-hide",
    )
    assert code == 0
    assert out == "safety: ok (monitor stays out of 'violation')\n"
    # the bad states are quoted as a violation quotes one, and sorted
    two = tmp_path / "two.mon"
    two.write_text("states waiting zz aa\ninitial waiting\nbad zz aa\n"
                   "trans waiting zz nosuch !*\n")
    code, out, _ = run(capsys, "verify", "safety", corpus("multicast.lot"), str(two),
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["detail"] == "monitor stays out of 'aa', 'zz'"

    code, out, _ = run(
        capsys, "verify", "safety", corpus("multicast_unordered.lot"),
        corpus("multicast_order.mon"), "--no-hide",
    )
    assert code == 1
    assert "trace: invClt !op1 ; inv !Service2 !op1" in out


def test_violation_within_budget_is_reported(capsys):
    # the monitor is violated two steps in, before the state space
    # outgrows the budget; lts and an ok verdict still need every state
    lot, budget = corpus("multicast_unordered.lot"), ["--no-hide", "--max-states", "10"]
    code, out, err = run(capsys, "verify", "safety", lot, corpus("multicast_order.mon"), *budget)
    assert (code, err) == (1, "")
    assert out == ("safety: violated (monitor reaches bad state 'violation')\n"
                   "trace: invClt !op1 ; inv !Service2 !op1\n")

    code, out, err = run(capsys, "lts", lot, *budget)
    assert (code, out) == (2, "")
    assert err == ("lotoskit: state space exceeds the state budget of 10 "
                   "(stopped after 10 states and 12 transitions at depth 2)\n")

    code, out, err = run(capsys, "verify", "safety", corpus("multicast.lot"),
                         corpus("multicast_order.mon"), "--no-hide", "--max-states", "5")
    assert (code, out) == (2, "")
    assert err == ("lotoskit: state space exceeds the state budget of 5 "
                   "(stopped after 5 states and 4 transitions at depth 4)\n")


def test_a_monitor_with_no_bad_state_says_so(capsys, tmp_path):
    aut, mon = tmp_path / "g.aut", tmp_path / "m.mon"
    aut.write_text('des (0, 2, 2)\n(0, "a", 1)\n(1, "b", 0)\n')
    mon.write_text("states a\ninitial a\n")
    code, out, err = run(capsys, "verify", "safety", str(aut), str(mon))
    assert (code, out, err) == (0, "safety: ok (monitor has no bad state)\n", "")
    code, out, _ = run(capsys, "verify", "safety", str(aut), str(mon), "--format", "json")
    assert code == 0
    assert json.loads(out)["detail"] == "monitor has no bad state"


def test_verify_safety_bad_monitor(capsys, tmp_path):
    mon = tmp_path / "bad.mon"
    mon.write_text("states a\n")
    code, _, err = run(capsys, "verify", "safety", corpus("multicast.lot"), str(mon))
    assert code == 2
    assert "not a valid monitor" in err


@pytest.mark.parametrize("text, where", [
    ("states a b\ninitial a\nbad c\n", "3:1: error[syntax-error]: state 'c'"),
    ("states a b\n\ninitial c\nbad b\n", "3:1: error[syntax-error]: state 'c'"),
    ("states a b\ninitial a\nbad b\n# a comment\ntrans a b g\ntrans b z g\n",
     "6:1: error[syntax-error]: state 'z'"),
], ids=["bad", "initial", "trans"])
def test_an_unlisted_monitor_state_is_reported_where_it_is_named(capsys, tmp_path, text, where):
    aut, mon = tmp_path / "x.aut", tmp_path / "bad.mon"
    aut.write_text('des (0, 1, 2)\n(0, "a", 1)\n')
    mon.write_text(text)
    code, out, err = run(capsys, "verify", "safety", str(aut), str(mon))
    assert (code, out) == (2, "")
    assert err.splitlines() == [f"{mon}:{where} is not listed under 'states'",
                                f"lotoskit: '{mon}' is not a valid monitor"]


def test_verify_bisim(capsys):
    code, out, _ = run(
        capsys, "verify", "bisim",
        corpus("multicast.lot"), corpus("multicast_unordered.lot"),
    )
    assert code == 0
    assert "strongly bisimilar" in out


def test_verify_bisim_negative(capsys):
    code, out, _ = run(
        capsys, "verify", "bisim",
        corpus("client_server.lot"), corpus("deadlocked.lot"),
    )
    assert code == 1
    assert "trace:" in out


def test_verify_accepts_aut_input(capsys, tmp_path):
    target = tmp_path / "cs.aut"
    run(capsys, "lts", corpus("client_server.lot"), "-o", str(target))
    code, out, _ = run(
        capsys, "verify", "bisim", str(target), corpus("client_server.lot")
    )
    assert code == 0

    code, _, err = run(capsys, "verify", "deadlock", str(tmp_path / "junk.aut"))
    assert code == 2


SMALL_AUT = 'des (0, 2, 3)\n(0, "a", 1)\n(1, "b", 2)\n'
LONGER_AUT = 'des (0, 3, 4)\n(0, "a", 1)\n(1, "b", 2)\n(2, "c", 3)\n'


def test_budget_bounds_aut_input(capsys, tmp_path):
    small = tmp_path / "small.aut"
    small.write_text(SMALL_AUT)
    code, out, err = run(capsys, "verify", "deadlock", str(small),
                         "--max-states", "1", "--max-transitions", "1")
    assert (code, out) == (2, "")
    assert err == f"lotoskit: '{small}' has 3 states, more than the state budget of 1\n"

    code, out, err = run(capsys, "verify", "deadlock", str(small), "--max-transitions", "1")
    assert (code, out) == (2, "")
    assert err == f"lotoskit: '{small}' has 2 transitions, more than the transition budget of 1\n"

    # a file exactly at its budget is read
    code, out, _ = run(capsys, "verify", "deadlock", str(small),
                       "--max-states", "3", "--max-transitions", "2")
    assert code == 1 and "trace: a ; b" in out


@pytest.mark.parametrize("header", ["des (0, 1, 2000000)", "  des( 0 ,1, 2000000 )  "],
                         ids=["canonical", "spaced"])
def test_aut_header_over_budget_builds_no_rows(capsys, tmp_path, header):
    # the header is held to the budget before the rows are made, so a
    # short file that claims millions of states costs next to nothing
    big = tmp_path / "big.aut"
    big.write_text(f'{header}\n(1999999, "a", 0)\n')
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "verify", "deadlock", str(big), "--max-states", "10")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert err == f"lotoskit: '{big}' has 2000000 states, more than the state budget of 10\n"
    assert peak < 5_000_000


@pytest.mark.parametrize("over_budget", [0, 1], ids=["first", "second"])
def test_bisim_with_an_aut_file_over_budget(capsys, tmp_path, over_budget):
    small, longer = tmp_path / "small.aut", tmp_path / "longer.aut"
    small.write_text(SMALL_AUT)
    longer.write_text(LONGER_AUT)
    files = [small, small]
    files[over_budget] = longer
    code, out, err = run(capsys, "verify", "bisim", *map(str, files), "--max-states", "3")
    assert (code, out) == (2, "")
    assert err == f"lotoskit: '{longer}' has 4 states, more than the state budget of 3\n"


@pytest.mark.parametrize("command, rest", [(["lts"], []), (["verify", "deadlock"], []),
                                           (["verify", "reach"], ["a"])],
                         ids=["lts", "deadlock", "reach"])
def test_zero_state_budget_refuses_the_initial_state(capsys, tmp_path, command, rest):
    # a behaviour file with one state is over a state budget of 0, as the
    # .aut file exported from it is
    lot, aut = tmp_path / "one.lot", tmp_path / "one.aut"
    lot.write_text("specification One [a] : noexit := behaviour stop endspec\n")
    assert run(capsys, "lts", str(lot), "-o", str(aut))[0] == 0
    code, out, err = run(capsys, *command, str(lot), *rest, "--max-states", "0")
    assert (code, out) == (2, "")
    assert err == ("lotoskit: state space exceeds the state budget of 0 "
                   "(stopped after 0 states and 0 transitions at depth 0)\n")
    if command[0] == "verify":  # lts reads behaviour files only
        code, out, err = run(capsys, *command, str(aut), *rest, "--max-states", "0")
        assert (code, out) == (2, "")
        assert err == f"lotoskit: '{aut}' has 1 states, more than the state budget of 0\n"


@pytest.mark.parametrize("argv", [["lts"], ["verify", "deadlock"]], ids=["lts", "deadlock"])
def test_transition_budget_counts_only_admitted_states(capsys, tmp_path, argv):
    # the one transition is refused, so its target is never admitted
    lot = tmp_path / "two.lot"
    lot.write_text("specification Two [a] : noexit := behaviour a; stop endspec\n")
    code, out, err = run(capsys, *argv, str(lot), "--max-transitions", "0")
    assert (code, out) == (2, "")
    assert err == ("lotoskit: state space exceeds the transition budget of 0 "
                   "(stopped after 1 states and 0 transitions at depth 0)\n")


@pytest.mark.parametrize("label", ["", "   "], ids=["empty", "spaces"])
def test_blank_aut_label_is_operational_error(capsys, tmp_path, label):
    blank = tmp_path / "blank.aut"
    line = f'(0, "{label}", 1)'
    blank.write_text(f"des (0, 1, 2)\n{line}\n")
    for argv in (("reach", str(blank), "a"), ("safety", str(blank), corpus("multicast_order.mon"))):
        code, out, err = run(capsys, "verify", *argv)
        assert (code, out) == (2, "")
        assert err == f"lotoskit: '{blank}': blank label in .aut transition: {line!r}\n"


# ----------------------------------------------------------------------
# contract


def test_contract_ok(capsys):
    code, out, _ = run(
        capsys, "contract", corpus("observer.asc"),
        "--facts", corpus("observer.facts"),
    )
    assert code == 0
    assert "contract ObserverContract: ok" in out
    assert "witness" in out


def test_contract_json(capsys):
    code, out, _ = run(
        capsys, "contract", corpus("observer.asc"),
        "--facts", corpus("observer.facts"), "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["sc"]["witness"]["s"] == "Subject"
    assert payload["ic"] == []
    assert payload["bc"]["ok"] is True


def test_contract_violation_exit_code(capsys):
    code, out, _ = run(
        capsys, "contract", str(CORPUS / "mutations" / "observer_dup_in_port.asc"),
        "--facts", corpus("observer.facts"),
    )
    assert code == 1
    assert "[C1]" in out


def test_long_query_is_answered_at_default_limit(capsys, tmp_path):
    # the search keeps one iterator per conjunct, not one stack frame
    deep = tmp_path / "deep.asc"
    atoms = " and ".join(["class(x)", "inherit(x, y)", "class(A)"] * 1000)
    deep.write_text(f"component Deep where\n  sc {{ exists x, y . {atoms} }}\nend\n")
    facts = tmp_path / "deep.facts"
    facts.write_text("class(A).\nclass(B).\ninherit(B, A).\n")
    code, out, err = run_at_default_limit(capsys, "contract", str(deep), "--facts", str(facts))
    assert (code, err) == (0, "")
    assert out.splitlines() == ["contract Deep: ok", "  sc: witness x=B, y=A"]


def test_independent_conjuncts_are_answered_quickly(capsys, tmp_path):
    # the inherit conjunct fails for every binding of x0 and x1; searched
    # in written order, the query tried all 40^6 bindings of x0..x5
    query = tmp_path / "six.asc"
    variables = [f"x{k}" for k in range(6)]
    atoms = " and ".join([f"class({v})" for v in variables] + ["inherit(x0, x1)"])
    query.write_text(f"component Six where\n  sc {{ exists {', '.join(variables)} . {atoms} }}\nend\n")
    facts = tmp_path / "six.facts"
    facts.write_text("".join(f"class(C{k:02}).\n" for k in range(40))
                     + "abstract_class(A).\ninherit(D1, D2).\n")
    started = time.perf_counter()
    code, out, err = run(capsys, "contract", str(query), "--facts", str(facts))
    assert time.perf_counter() - started < 1.0
    assert (code, err) == (1, "")
    assert out.splitlines() == ["contract Six: FAILED", "  sc: no witness satisfies the structural query"]


def test_contract_with_a_deadlocking_behaviour(capsys, tmp_path):
    # the trace prints as verify prints it: "trace: a"
    (tmp_path / "dead.lot").write_text(
        "specification X [a] : noexit :=\n  behaviour a; stop\nendspec\n")
    contract = tmp_path / "c.asc"
    contract.write_text('component C where\n  sc { class(A) }\n  bc B from "dead.lot"\nend\n')
    facts = tmp_path / "c.facts"
    facts.write_text("class(A).\n")
    code, out, err = run(capsys, "contract", str(contract), "--facts", str(facts))
    assert (code, err) == (1, "")
    assert out.splitlines() == ["contract C: FAILED", "  sc: holds",
                                "  bc: deadlock at state 1 = stop", "  bc: trace a"]


def test_contract_with_an_invalid_behaviour_is_operational(capsys, tmp_path):
    (tmp_path / "invalid.lot").write_text(
        "specification X [a] : noexit :=\n  behaviour b; stop\nendspec\n")
    contract = tmp_path / "d.asc"
    contract.write_text('component D where\n  bc X from "invalid.lot"\nend\n')
    code, out, err = run(capsys, "contract", str(contract))
    invalid = tmp_path / "invalid.lot"
    assert (code, out) == (2, "")
    assert err.splitlines() == [f"{invalid}:2:13: error[unknown-gate]: gate 'b' is not in scope",
                                f"lotoskit: '{invalid}' is not a valid specification"]


def test_contract_missing_facts_is_operational(capsys):
    code, _, err = run(capsys, "contract", corpus("observer.asc"))
    assert code == 2
    assert "no facts" in err


def test_contract_unparseable_file(capsys, tmp_path):
    bad = tmp_path / "bad.asc"
    bad.write_text("component ???")
    code, _, err = run(capsys, "contract", str(bad))
    assert code == 2


# ----------------------------------------------------------------------
# adl


def test_adl_ok(capsys):
    code, out, _ = run(capsys, "adl", corpus("multicast.adl"))
    assert code == 0
    assert "Multicast: ok (3 component(s), 2 connector(s))" in out


def test_adl_flatten_round_trip(capsys, tmp_path):
    flat = tmp_path / "flat.lot"
    code, out, _ = run(
        capsys, "adl", corpus("client_server.adl"), "--flatten", str(flat)
    )
    assert code == 0
    assert flat.exists()
    code, _, _ = run(capsys, "verify", "bisim", str(flat), corpus("client_server.lot"))
    assert code == 0


def test_adl_flatten_diagnostics_point_into_the_configuration(capsys, tmp_path):
    # wiring a component to the reserved gate "i" passes the architectural
    # checks; the flattened specification's validation catches it
    for name in ("client_server.adl", "client_server.lot"):
        (tmp_path / name).write_text((CORPUS / name).read_text())
    config = tmp_path / "client_server.adl"
    config.write_text(config.read_text().replace("Client [invClt, terClt]", "Client [i, terClt]"))
    flat = tmp_path / "flat.lot"
    code, out, err = run(capsys, "adl", str(config), "--flatten", str(flat))
    assert (code, out) == (2, "")
    # the derived top gate list has no position of its own
    assert err.splitlines() == [
        f"{config}:1:1: error[reserved-name]: 'i' is reserved for the internal action",
        f"{config}:13:7: error[reserved-name]: 'i' is reserved for the internal action",
        "lotoskit: flattened specification is not valid",
    ]
    assert not flat.exists()


def test_adl_violations_exit_code(capsys, tmp_path):
    bad = tmp_path / "coupled.adl"
    bad.write_text("""
configuration Coupled
  use "client_server.lot"
  components {
    a = Client [g, h],
    b = Server [g, h]
  }
  connectors {
    conn = Connector [g, h, g2, h2]
  }
  composition { ( a || b ) ||| conn }
end
""")
    (tmp_path / "client_server.lot").write_text(
        (CORPUS / "client_server.lot").read_text()
    )
    code, out, _ = run(capsys, "adl", str(bad))
    assert code == 1
    assert "direct-component-coupling" in out


def test_adl_missing_source_is_operational(capsys, tmp_path):
    orphan = tmp_path / "orphan.adl"
    orphan.write_text((CORPUS / "client_server.adl").read_text())
    code, _, err = run(capsys, "adl", str(orphan))
    assert code == 2


# ----------------------------------------------------------------------
# invalid inputs, one per kind of file


INVALID_INPUTS = {
    "specification": (
        "bad.lot", "specification S [g] : noexit :=\n  behaviour\n    q; stop\nendspec\n",
        ["lts", "{}"], ["3:5: error[unknown-gate]: gate 'q' is not in scope"],
    ),
    "monitor": (
        "bad.mon", "states a\n",
        ["verify", "safety", corpus("multicast.lot"), "{}"],
        ["1:1: error[syntax-error]: monitor has no initial state"],
    ),
    "contract": (
        "bad.asc", "component C where\n  sc { exists x . nosuch(x) }\nend\n",
        ["contract", "{}"], ["2:19: error[unknown-predicate]: unknown predicate 'nosuch'"],
    ),
    "fact base": (
        "bad.facts", "inherit(A).\nclass(B)\nbogus\n",
        ["contract", corpus("observer.asc"), "--facts", "{}"],
        ["1:1: error[bad-arity]: 'inherit' takes 2 argument(s)",
         "3:1: error[syntax-error]: cannot read fact: 'bogus'"],
    ),
    "configuration": (
        "bad.adl", "configuration C\n  components { a = }\nend\n",
        ["adl", "{}"], ["2:20: error[syntax-error]: expected a process name, found '}'"],
    ),
}


@pytest.mark.parametrize("kind", INVALID_INPUTS)
def test_invalid_input_prints_its_diagnostics(capsys, tmp_path, kind):
    name, text, argv, diagnostics = INVALID_INPUTS[kind]
    path = tmp_path / name
    path.write_text(text)
    code, out, err = run(capsys, *(arg.format(path) for arg in argv))
    assert (code, out) == (2, "")
    assert err.splitlines() == [f"{path}:{d}" for d in diagnostics] + [
        f"lotoskit: '{path}' is not a valid {kind}"
    ]


# ----------------------------------------------------------------------
# usage errors


def test_unknown_flag_exits_3(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["lts", "--bogus"])
    assert exc.value.code == 3


def test_missing_subcommand_exits_3(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 3


def test_verify_requires_property(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify"])
    assert exc.value.code == 3


@pytest.mark.parametrize("flag", ["--max-states", "--max-transitions"])
@pytest.mark.parametrize("argv", [
    ["verify", "deadlock", corpus("client_server.lot")],
    ["verify", "deadlock", "small.aut"],
    ["contract", corpus("observer.asc"), "--facts", corpus("observer.facts")],
], ids=["lot", "aut", "contract"])
def test_negative_budget_is_a_usage_error(capsys, tmp_path, monkeypatch, argv, flag):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "small.aut").write_text(SMALL_AUT)
    with pytest.raises(SystemExit) as exc:
        main([*argv, flag, "-1"])
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (3, "")
    assert captured.err.endswith(f"error: argument {flag}: a budget cannot be negative: '-1'\n")
    # zero is a budget, and the file is read and checked against it
    assert main([*argv, flag, "0"]) == 2


# ----------------------------------------------------------------------
# the parser: only the subtree the command line names

F = "spec.lot"
ARGVS = [
    [], ["-h"], ["--help"], ["bogus"], ["-x"],
    *([command, "--help"] for command in cli._COMMANDS),
    *(["verify", prop, "--help"] for prop in cli._PROPERTIES),
    ["verify", "-h", "deadlock"], ["verify"], ["verify", "bogus"],
    # missing positionals
    ["check"], ["lts"], ["contract"], ["adl"], ["verify", "deadlock"],
    ["verify", "reach", F], ["verify", "safety", F], ["verify", "bisim", F],
    # leftovers are reported by the top-level parser
    ["check", "a", "b"], ["verify", "deadlock", "a", "b"],
    # bad and abbreviated options
    ["lts", F, "--max-states", "zz"], ["check", F, "--format", "xml"], ["lts", F, "--bogus"],
    ["lts", F, "--max-st", "3", "--help"],
    # command lines that parse
    ["check", F], ["lts", F, "--max-st", "3", "-o", "x.aut", "--minimize", "--no-hide"],
    ["verify", "reach", F, "g !*", "--format=json"], ["verify", "safety", F, "m.mon"],
    ["verify", "bisim", F, "b.aut", "--max-transitions", "7"], ["contract", "c.asc", "--facts", "f"],
    ["adl", "a.adl", "--flatten", "flat.lot"],
]


def parse(capsys, parser, argv):
    """Exit code (None when argv parses), stdout, stderr and Namespace."""
    try:
        code, namespace = None, parser.parse_args(argv)
    except SystemExit as exc:
        code, namespace = exc.code, None
    captured = capsys.readouterr()
    return code, captured.out, captured.err, namespace


@pytest.mark.parametrize("argv", ARGVS, ids=lambda argv: " ".join(argv) or "<none>")
def test_narrowed_parser_answers_as_the_whole_tree(capsys, argv):
    # argparse's wording differs between Python versions, so the whole
    # tree is the reference, built in the same interpreter
    narrowed = parse(capsys, cli._build_parser(argv), argv)
    assert narrowed == parse(capsys, cli._build_parser([]), argv)


VERIFY_DEADLOCK_HELP = """\
usage: lotoskit verify deadlock [-h] [--no-hide] [--max-states N]
                                [--max-transitions N] [--format {text,json}]
                                file

positional arguments:
  file                  behaviour file or .aut file

options:
  -h, --help            show this help message and exit
  --no-hide             treat hidden gates as observable
  --max-states N        abort exploration beyond N states (default 100000)
  --max-transitions N   abort exploration beyond N transitions (default
                        500000)
  --format {text,json}  output format (default text)
"""


def test_budget_defaults_come_from_the_exploration_budget(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(["verify", "deadlock", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == VERIFY_DEADLOCK_HELP
    budget = semantics.ExplorationBudget()
    args = cli._build_parser(["lts", F]).parse_args(["lts", F])
    assert (args.max_states, args.max_transitions) == (budget.max_states, budget.max_transitions)


def choices(parser):
    """The command tree parser holds, as nested dicts of choice names."""
    tree = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            tree.update((name, choices(sub)) for name, sub in action.choices.items())
    return tree


def test_parser_builds_only_the_named_command():
    properties = dict.fromkeys(cli._PROPERTIES, {})
    whole = {**dict.fromkeys(cli._COMMANDS, {}), "verify": properties}
    assert choices(cli._build_parser([])) == whole
    assert choices(cli._build_parser(["check", F])) == {"check": {}}
    assert choices(cli._build_parser(["verify", "reach", F])) == {"verify": {"reach": {}}}
    for argv in (["-h", "check"], ["chec", F], ["--", "check", F]):
        assert choices(cli._build_parser(argv)) == whole
    assert choices(cli._build_parser(["verify", "-h", "deadlock"])) == {"verify": properties}
    assert choices(cli._build_parser(["verify", "dead"])) == {"verify": properties}


@pytest.mark.parametrize("argv", [
    ["verify", "deadlock", corpus("deadlocked.lot")],
    ["check", corpus("client_server.lot"), "--format", "json"],
    ["check", "a", "b"],
    ["verify"],
])
def test_main_reads_the_command_line_from_sys_argv(capsys, monkeypatch, argv):
    def answer(call):
        try:
            code = call()
        except SystemExit as exc:
            code = ("exit", exc.code)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    built = []
    build = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda words: built.append(list(words)) or build(words))
    monkeypatch.setattr(sys, "argv", ["lotoskit", *argv])
    assert answer(main) == answer(lambda: main(argv))
    assert built == [argv, argv]
