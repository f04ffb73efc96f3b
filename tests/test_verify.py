import gc
import random
import sys
import weakref

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import aut_oracle
import check_oracle
import refine_oracle
from behavior_gen import gen_behavior, gen_system, wrap
from conftest import LOT_FILES, load_spec
from lotoskit import (
    BudgetExceededError,
    Exploration,
    ExplorationBudget,
    Lts,
    UnguardedRecursionError,
    VerifyResult,
    bisim_equiv,
    check_deadlock,
    check_reachable,
    check_safety,
    export_aut,
    generate_lts,
    minimize,
    parse_label_pattern,
    parse_monitor,
    parse_spec,
    read_aut,
    semantics,
    successors,
    validate_spec,
)
from lotoskit.cli import main
from lotoskit.semantics import strip_hiding
from lotoskit.verify import _block_at, _joined, _refine, aut_header
from lotoskit.syntax import ast, parse_behavior


def behavior(text):
    b, diags = parse_behavior(text)
    assert b is not None, [str(d) for d in diags]
    return b


def lts_of(text):
    return generate_lts(wrap(behavior(text)))


# ----------------------------------------------------------------------
# label patterns


def test_pattern_exact_match():
    p = parse_label_pattern("g !v1 !v2")
    assert p.matches("g !v1 !v2")
    assert not p.matches("g !v1")
    assert not p.matches("g !v1 !v3")
    assert not p.matches("h !v1 !v2")
    # an .aut label may spell anything after its gate; a word that does
    # not start with "!" is not an offer
    assert not p.matches("g xv1 !v2")
    assert not p.matches("") and not p.matches(" ")
    assert not parse_label_pattern("i").matches("i x")
    lts = read_aut('des (0, 1, 2)\n(0, "g xv1", 1)\n')
    assert not check_reachable(lts, parse_label_pattern("g !v1")).ok


def test_pattern_wildcards():
    assert parse_label_pattern("g !*").matches("g !anything")
    assert not parse_label_pattern("g !*").matches("g anything")
    assert parse_label_pattern("* !v").matches("g !v")
    assert parse_label_pattern("*").matches("g")
    assert not parse_label_pattern("*").matches("g !v")


def test_pattern_never_matches_internal_or_exit_by_wildcard():
    star = parse_label_pattern("*")
    assert not star.matches("i")
    assert not star.matches("exit")
    assert parse_label_pattern("i").matches("i")
    assert parse_label_pattern("exit").matches("exit")


def test_pattern_for_internal_or_exit_takes_no_offered_label():
    # "i" and "exit" patterns take no offers, so a label that offers after
    # either word is not theirs, as check_deadlock reads "exit !v" too
    lts = read_aut('des (0, 1, 2)\n(0, "exit !v", 1)\n')
    assert not check_reachable(lts, parse_label_pattern("exit")).ok
    deadlock = check_deadlock(lts)
    assert not deadlock.ok and deadlock.trace == ["exit !v"]
    lts = read_aut('des (0, 1, 2)\n(0, "i !v", 1)\n')
    assert not parse_label_pattern("i").matches("i !v")
    assert not check_reachable(lts, parse_label_pattern("i")).ok
    assert not check_deadlock(lts).ok
    mon, _ = parse_monitor("states w bad\ninitial w\nbad bad\ntrans w bad exit\n")
    assert check_safety(read_aut('des (0, 1, 2)\n(0, "exit !v", 1)\n'), mon).ok


def test_pattern_parse_errors():
    for bad in ("", "g v", "g !", "3g", "i !v", "exit !*"):
        with pytest.raises(ValueError):
            parse_label_pattern(bad)


# ----------------------------------------------------------------------
# deadlock


def test_deadlock_free_cycle(client_server_lts):
    result = check_deadlock(client_server_lts)
    assert result.ok
    assert "4 state(s)" in result.detail


def test_plain_stop_is_a_deadlock():
    result = check_deadlock(lts_of("stop"))
    assert not result.ok
    assert result.trace == []


def test_termination_is_not_a_deadlock():
    result = check_deadlock(lts_of("a; exit"))
    assert result.ok


def test_deadlock_after_mixed_entry_is_reported():
    # the final state has an exit edge and an observable edge into it,
    # so it does not count as cleanly terminated
    result = check_deadlock(lts_of("exit [] a; stop"))
    assert not result.ok
    assert result.trace == ["a"]


def test_sync_mismatch_deadlocks_with_shortest_trace(corpus_dir):
    spec = load_spec("deadlocked.lot")
    result = check_deadlock(generate_lts(spec))
    assert not result.ok
    assert result.trace == ["b"]
    assert "a; stop |[a]| stop" in result.detail


def test_deadlock_trace_is_shortest():
    # two roads to a dead state: length 3 and length 1
    result = check_deadlock(lts_of("a; b; c; stop [] d; stop"))
    assert not result.ok
    assert result.trace == ["d"]
    # the same for a file that does not list its transitions breadth-first
    result = check_deadlock(read_aut('des (0, 3, 3)\n(1, "b", 2)\n(0, "a", 1)\n(0, "c", 2)\n'))
    assert not result.ok
    assert result.trace == ["c"]


def test_deadlock_witness_does_not_end_in_exit(tmp_path, capsys):
    # exit and c both lead into the same dead state; only the run through
    # c is stuck, the one through exit has terminated
    result = check_deadlock(lts_of("(a; exit) [] (b; c; stop)"))
    assert not result.ok
    assert result.trace == ["b", "c"]
    spec = tmp_path / "exit_or_stuck.lot"
    spec.write_text(
        "specification S [a, b, c] : noexit :=\n"
        "  behaviour\n    (a; exit) [] (b; c; stop)\nendspec\n"
    )
    assert main(["verify", "deadlock", str(spec)]) == 1
    assert "trace: b ; c" in capsys.readouterr().out.splitlines()


# ----------------------------------------------------------------------
# reachability


def test_reachable_with_trace(client_server_lts):
    result = check_reachable(client_server_lts, parse_label_pattern("terClt !* !*"))
    assert result.ok
    assert result.trace == [
        "invClt !s1 !op1", "invSrv !s1 !op1", "terSrv !s1 !r1", "terClt !s1 !r1",
    ]


def test_unreachable(client_server_lts):
    result = check_reachable(client_server_lts, parse_label_pattern("nothing"))
    assert not result.ok
    assert result.trace is None


def test_reach_ignores_unreachable_transitions():
    # g leaves state 1, which state 0 cannot reach
    lts = read_aut('des (0, 2, 3)\n(0, "e", 0)\n(1, "g", 2)\n')
    result = check_reachable(lts, parse_label_pattern("g"))
    assert not result.ok
    assert result.trace is None
    mon, _ = parse_monitor("states w bad\ninitial w\nbad bad\ntrans w bad g\n")
    assert check_safety(lts, mon).ok


def test_reach_trace_is_shortest():
    lts = lts_of("a; b; g; stop [] c; g; stop")
    result = check_reachable(lts, parse_label_pattern("g"))
    assert result.ok and result.trace == ["c", "g"]


# ----------------------------------------------------------------------
# monitors


GOOD_MONITOR = """
# comments work
states idle busy broken
initial idle
bad broken
trans idle busy req !*
trans busy idle ack
trans busy broken req !*
"""


def test_parse_monitor():
    mon, diags = parse_monitor(GOOD_MONITOR)
    assert mon is not None and not diags
    assert mon.states == ("idle", "busy", "broken")
    assert mon.initial == "idle"
    assert mon.bad == frozenset({"broken"})
    assert len(mon.rules) == 3


def test_monitor_step_first_match_wins():
    mon, _ = parse_monitor(
        "states a b c\ninitial a\nbad c\ntrans a b g !*\ntrans a c g !v\n"
    )
    assert mon.step("a", "g !v") == "b"


def test_monitor_unmatched_label_stays_put():
    mon, _ = parse_monitor(GOOD_MONITOR)
    assert mon.step("idle", "unrelated") == "idle"


def test_monitor_parse_errors():
    bad = [
        "states a\nbad a\ntrans a a g",          # no initial
        "states a\ninitial a b\n",               # initial arity
        "states a\ninitial b\n",                 # unknown state
        "states a\ninitial a\ntrans a a\n",      # trans too short
        "states a\ninitial a\ntrans a a 3x\n",   # bad pattern
        "states a\ninitial a\nfoo bar\n",        # unknown directive
    ]
    for text in bad:
        mon, diags = parse_monitor(text)
        assert mon is None and diags, text


def test_monitor_with_two_initial_lines_is_an_error():
    # a second initial line would otherwise silently move the start state
    mon, diags = parse_monitor("states a b\ninitial a\ninitial b\nbad b\n")
    assert mon is None
    assert [(d.span.line, d.code, d.message) for d in diags] == [
        (3, "syntax-error", "initial appears twice")]


def test_a_monitor_reports_every_problem_at_its_line():
    # each unlisted state once, at the first line that names it, and the
    # reading goes on past each problem
    mon, diags = parse_monitor("states a\ninitial a\nbad c\ntrans a b g\nfoo\n"
                               "trans c b g\ninitial a\ntrans a\n")
    assert mon is None
    assert [(d.span.line, d.code, d.message) for d in diags] == [
        (3, "unknown-state", "state 'c' is not listed under 'states'"),
        (4, "unknown-state", "state 'b' is not listed under 'states'"),
        (5, "syntax-error", "unknown directive 'foo'"),
        (7, "syntax-error", "initial appears twice"),
        (8, "syntax-error", "trans needs: source, target, label pattern"),
    ]


def test_safety_holds(client_server_lts):
    # terClt only ever carries r1, so watching for r2 never trips
    mon, _ = parse_monitor(
        "states ok bad\ninitial ok\nbad bad\ntrans ok bad terClt !s1 !r2\n"
    )
    assert check_safety(client_server_lts, mon).ok


def test_safety_violation_trace_is_shortest(client_server_lts):
    mon, _ = parse_monitor(
        "states w seen bad\ninitial w\nbad bad\n"
        "trans w seen invClt !* !*\ntrans seen bad invSrv !* !*\n"
    )
    result = check_safety(client_server_lts, mon)
    assert not result.ok
    assert result.trace == ["invClt !s1 !op1", "invSrv !s1 !op1"]
    assert "bad" in result.detail


def test_safety_bad_initial_state():
    mon, _ = parse_monitor("states a\ninitial a\nbad a\n")
    result = check_safety(lts_of("g; stop"), mon)
    assert not result.ok and result.trace == []


def test_multicast_ordering_monitor(corpus_dir, multicast, multicast_unordered):
    mon, diags = parse_monitor((corpus_dir / "multicast_order.mon").read_text())
    assert mon is not None, [str(d) for d in diags]
    ordered = check_safety(generate_lts(strip_hiding(multicast)), mon)
    assert ordered.ok
    broken = check_safety(generate_lts(strip_hiding(multicast_unordered)), mon)
    assert not broken.ok
    assert broken.trace == ["invClt !op1", "inv !Service2 !op1"]


# ----------------------------------------------------------------------
# bisimulation


def assert_bisim(t1, t2):
    assert bisim_equiv(lts_of(t1), lts_of(t2)).ok, (t1, t2)


def assert_not_bisim(t1, t2):
    assert not bisim_equiv(lts_of(t1), lts_of(t2)).ok, (t1, t2)


def test_bisim_basic_laws():
    assert_bisim("a; stop [] b; stop", "b; stop [] a; stop")
    assert_bisim("a; stop [] stop", "a; stop")
    assert_bisim("a; stop ||| b; stop", "b; stop ||| a; stop")
    assert_bisim("exit >> a; stop", "i; a; stop")


def test_bisim_is_strong():
    # weak equivalences would equate these
    assert_not_bisim("i; a; stop", "a; stop")
    assert_not_bisim("hide b in b; a; stop", "a; stop")


def test_bisim_distinguishes_branching_time():
    result = bisim_equiv(
        lts_of("a; (b; stop [] c; stop)"),
        lts_of("a; b; stop [] a; c; stop"),
    )
    assert not result.ok
    assert result.trace == ["a", "c"] or result.trace == ["a", "b"]


def test_bisim_ignores_state_counts():
    assert_bisim("a; stop [] a; stop", "a; stop")


def test_distinguishing_experiment_on_immediate_difference():
    result = bisim_equiv(lts_of("a; stop"), lts_of("b; stop"))
    assert not result.ok
    assert result.trace in (["a"], ["b"])


def chain_aut(labels):
    lines = [f"des (0, {len(labels)}, {len(labels) + 1})"]
    lines += [f'({k}, "{label}", {k + 1})' for k, label in enumerate(labels)]
    return "\n".join(lines) + "\n"


def test_long_experiment_at_default_recursion_limit():
    # the pair separates one refinement round per chain step, so the
    # experiment walks both chains to the end: 1,101 steps
    labels = [f"a{k}" for k in range(1101)]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        result = bisim_equiv(read_aut(chain_aut(labels[:-1])), read_aut(chain_aut(labels)))
    finally:
        sys.setrecursionlimit(limit)
    assert not result.ok
    assert result.trace == labels


def test_random_pairs_verdict_matches_minimized_iso():
    # two systems are bisimilar exactly when their minimized forms have
    # equal state and transition counts and are themselves bisimilar
    rng = random.Random(21)
    for _ in range(60):
        a = generate_lts(wrap(gen_behavior(rng, rng.randint(0, 3))))
        b = generate_lts(wrap(gen_behavior(rng, rng.randint(0, 3))))
        verdict = bisim_equiv(a, b).ok
        ma, mb = minimize(a), minimize(b)
        same_shape = (
            ma.num_states == mb.num_states
            and ma.num_transitions == mb.num_transitions
        )
        assert verdict == (same_shape and bisim_equiv(ma, mb).ok)


def test_experiment_on_a_long_layered_chain():
    # 5,000 layers of two states each against a chain one step longer:
    # the pair separates in round 5,001, one round per layer, so a
    # refinement that signs every state in every round needs about 5,000
    # passes over 15,000 states
    layers = 5000
    edges = [(2 * k + i, 2 * k + 2 + j) for k in range(layers) for i in (0, 1) for j in (0, 1)
             if (i, j) != (1, 0)]
    lines = [f"des (0, {len(edges)}, {2 * layers + 2})"]
    lines += [f'({src}, "a", {dst})' for src, dst in edges]
    layered = read_aut("\n".join(lines) + "\n")
    result = bisim_equiv(layered, read_aut(chain_aut(["a"] * (layers + 1))))
    assert not result.ok
    assert result.trace == ["a"] * (layers + 1)


def test_experiment_tie_takes_first_listed_move():
    # both a-moves of two's initial state lead where one cannot follow,
    # and the first listed is played; the first side of the pair with
    # such a move plays, so the other order gives one's own a-move
    two = read_aut('des (0, 4, 5)\n(0, "a", 2)\n(0, "a", 1)\n(1, "b", 3)\n(2, "c", 4)\n')
    one = read_aut('des (0, 2, 3)\n(0, "a", 1)\n(1, "d", 2)\n')
    assert bisim_equiv(two, one).trace == ["a", "c"]
    assert bisim_equiv(one, two).trace == ["a", "d"]


def test_bisim_over_a_subset_of_labels():
    # b's labels are a subset of a's, so the joined table is a's own
    a = read_aut('des (0, 3, 4)\n(0, "a", 1)\n(1, "b", 2)\n(3, "z", 3)\n')
    b = read_aut('des (0, 1, 2)\n(0, "a", 1)\n')
    rows = [list(row) for row in a.out]
    assert bisim_equiv(a, b).trace == ["a", "b"]
    assert bisim_equiv(b, a).trace == ["a", "b"]
    assert a.out == rows
    # a label only an unreachable state has changes nothing
    c = read_aut('des (0, 2, 3)\n(0, "a", 1)\n(1, "b", 2)\n')
    assert bisim_equiv(a, c).ok and bisim_equiv(c, a).ok


def test_bisim_over_disjoint_labels():
    a = read_aut('des (0, 1, 2)\n(0, "b", 1)\n')
    b = read_aut('des (0, 1, 2)\n(0, "a", 1)\n')
    assert bisim_equiv(a, b).trace == ["b"]
    assert bisim_equiv(b, a).trace == ["a"]


def test_bisim_over_labels_that_interleave_in_text_order():
    # labels are numbered as the files first meet them, so no table is in
    # text order, and the experiment still takes the owner's smallest
    # label by text
    a = read_aut('des (0, 3, 4)\n(0, "d", 1)\n(0, "b", 2)\n(2, "d", 3)\n')
    b = read_aut('des (0, 3, 4)\n(0, "d", 1)\n(0, "c", 2)\n(0, "a", 3)\n')
    assert a.label_text == ["d", "b"] and b.label_text == ["d", "c", "a"]
    assert bisim_equiv(a, b).trace == ["b"]
    assert bisim_equiv(b, a).trace == ["a"]
    same = read_aut('des (0, 3, 4)\n(0, "b", 1)\n(1, "d", 2)\n(0, "d", 3)\n')
    assert bisim_equiv(a, same).ok


def test_bisim_merges_moves_into_one_block():
    # state 0 has two a-moves into bisimilar states, and 1 lists its
    # b-move twice: each signs as one move, as the chain's states do
    forked = read_aut('des (0, 5, 4)\n(0, "a", 1)\n(0, "a", 2)\n(1, "b", 3)\n'
                      '(2, "b", 3)\n(1, "b", 3)\n')
    chain = read_aut(chain_aut(["a", "b"]))
    assert bisim_equiv(forked, chain).ok and bisim_equiv(chain, forked).ok
    assert export_aut(minimize(forked)) == chain_aut(["a", "b"])


@st.composite
def aut_pairs(draw):
    """Two files of 1-8 states over a, b and c, in random line order and
    with any initial state.  Some lines repeat, and a state often has two
    moves with one label into bisimilar targets (two states without
    moves, or one target named twice), which sign as one move."""
    systems = []
    for _ in range(2):
        n = draw(st.integers(1, 8))
        state = st.integers(0, n - 1)
        edge = st.tuples(state, st.sampled_from("abc"), state)
        edges = draw(st.lists(edge, max_size=3 * n))
        if edges:
            edges += draw(st.lists(st.sampled_from(edges), max_size=n))
            edges = draw(st.permutations(edges))
        lines = [f"des ({draw(state)}, {len(edges)}, {n})"]
        lines += [f'({src}, "{label}", {dst})' for src, label, dst in edges]
        systems.append(read_aut("\n".join(lines) + "\n"))
    return systems


@settings(max_examples=300, deadline=None)
@given(aut_pairs())
def test_refinement_agrees_with_oracle(pair):
    a, b = pair
    offset = a.num_states
    # the oracle reads label texts, per state in row order, from the
    # transitions; _refine reads the joined table of label ids
    out = text_rows(a) + text_rows(b, offset)
    joined, text = _joined(a, b)
    assert [[(text[lab], dst) for lab, dst in row] for row in joined] == out
    history = refine_oracle.refine(out)
    block, parent, born = _refine(joined, len(text))
    assert max(born) == len(history) - 1
    for r, want in enumerate(history):
        got = [_block_at(parent, born, block[s], r) for s in range(len(out))]
        assert refine_oracle.same_partition(got, want), r

    s1, s2 = a.initial, offset + b.initial
    result = bisim_equiv(a, b)
    assert result.ok == (history[-1][s1] == history[-1][s2])
    if not result.ok:
        assert refine_oracle.is_experiment(out, history[-1], s1, s2, result.trace)
        assert result.trace == refine_oracle.experiment(out, history, s1, s2)

    for x in pair:
        moves = text_rows(x)
        want = refine_oracle.quotient_aut(moves, x.initial, refine_oracle.refine(moves)[-1])
        assert export_aut(minimize(x)) == want


def text_rows(lts, offset=0):
    """Per state, its (label text, target + offset) moves in row order."""
    rows = [[] for _ in range(lts.num_states)]
    for src, label, dst in lts.transitions:
        rows[src].append((label, dst + offset))
    return rows


def relabelled(lts, perm):
    """lts with each label id k renumbered perm[k], in its rows and its
    table alike: the same system under another label numbering."""
    text = [""] * len(perm)
    for k, new in enumerate(perm):
        text[new] = lts.label_text[k]
    out = [[(perm[lab], dst) for lab, dst in row] for row in lts.out]
    return Lts(out, text, lts.initial)


def assert_numbering_changes_no_answer(x, y, perm):
    z = relabelled(x, perm)
    assert z.transitions == x.transitions
    assert export_aut(minimize(z)) == export_aut(minimize(x))
    # a VerifyResult compares ok, detail and trace
    assert bisim_equiv(z, y) == bisim_equiv(x, y) and bisim_equiv(y, z) == bisim_equiv(y, x)
    assert check_deadlock(z) == check_deadlock(x)
    for label in sorted(set(x.label_text) | {"*"}):
        pattern = parse_label_pattern(label)
        assert check_reachable(z, pattern) == check_reachable(x, pattern)


@settings(max_examples=300, deadline=None)
@given(aut_pairs(), st.data())
def test_label_numbering_changes_no_answer(pair, data):
    x, y = pair
    perm = data.draw(st.permutations(range(len(x.label_text))))
    assert_numbering_changes_no_answer(x, y, perm)


def test_minimize_orders_moves_by_text_whatever_the_numbering():
    x = read_aut('des (0, 4, 5)\n(0, "a", 1)\n(0, "b", 2)\n(0, "c", 3)\n(0, "d", 4)\n')
    y = read_aut('des (0, 1, 2)\n(0, "c", 1)\n')
    assert_numbering_changes_no_answer(x, y, [3, 2, 1, 0])
    assert export_aut(minimize(relabelled(x, [3, 2, 1, 0]))).splitlines()[1] == '(0, "a", 1)'


# ----------------------------------------------------------------------
# minimization


def test_minimize_collapses_duplicate_branches():
    lts = lts_of("a; b; stop [] a; b; stop")
    small = minimize(lts)
    assert small.num_states == 3
    assert small.transitions == [(0, "a", 1), (1, "b", 2)]


def test_minimize_keeps_behaviour(multicast_unordered):
    lts = generate_lts(multicast_unordered)
    small = minimize(lts)
    assert small.num_states == 9
    assert bisim_equiv(lts, small).ok


def test_minimize_is_idempotent(multicast_unordered):
    small = minimize(generate_lts(multicast_unordered))
    again = minimize(small)
    assert again.num_states == small.num_states
    assert again.transitions == small.transitions


def test_minimize_drops_labels_of_unreachable_states():
    lts = read_aut('des (0, 2, 3)\n(0, "a", 1)\n(2, "z", 2)\n')
    small = minimize(lts)
    assert lts.label_text == ["a", "z"] and small.label_text == ["a"]
    assert small == read_aut(export_aut(small))


def test_minimize_keeps_representative_forms():
    small = minimize(lts_of("a; stop [] a; stop"))
    assert small.forms is not None
    assert small.form_text(1) == "stop"


def test_minimize_random_terms_stay_equivalent():
    rng = random.Random(22)
    for _ in range(40):
        lts = generate_lts(wrap(gen_behavior(rng, rng.randint(0, 4))))
        small = minimize(lts)
        assert small.num_states <= lts.num_states
        assert bisim_equiv(lts, small).ok


# ----------------------------------------------------------------------
# .aut round trip


def test_export_format(client_server_lts):
    text = export_aut(client_server_lts)
    lines = text.splitlines()
    assert lines[0] == "des (0, 4, 4)"
    assert lines[1] == '(0, "invClt !s1 !op1", 1)'
    assert text.endswith("\n")


def test_round_trip(client_server_lts):
    text = export_aut(client_server_lts)
    back = read_aut(text)
    assert back.num_states == client_server_lts.num_states
    assert back.transitions == client_server_lts.transitions
    assert export_aut(back) == text


@pytest.mark.parametrize("hide", [True, False])
@pytest.mark.parametrize("name", LOT_FILES)
def test_read_aut_gives_back_what_export_aut_wrote(name, hide):
    spec = load_spec(name)
    systems = [generate_lts(spec if hide else strip_hiding(spec))]
    systems.append(minimize(systems[0]))
    for x in systems:
        back = read_aut(export_aut(x))
        assert (back.num_states, back.initial) == (x.num_states, x.initial)
        assert back.label_text == x.label_text
        assert back.transitions == x.transitions


def test_read_aut_tolerates_blank_lines_and_spacing():
    lts = read_aut('des ( 0 , 1 , 2 )\n\n( 0 , "a b" , 1 )\n')
    assert lts.num_states == 2
    assert lts.transitions == [(0, "a b", 1)]


def test_read_aut_errors():
    cases = [
        "",                                     # empty
        "not a header",                         # bad header
        'des (0, 1, 1)\n(0, "a", 1)',           # target out of range
        'des (0, 2, 2)\n(0, "a", 1)',           # count mismatch
        'des (0, 1, 2)\nnope',                  # bad transition line
        'des (5, 0, 2)',                        # initial out of range
        'des (0, 1, 2)\n(0, "", 1)',            # empty label
        'des (0, 1, 2)\n(0, "   ", 1)',         # blank label
    ]
    for text in cases:
        with pytest.raises(ValueError):
            read_aut(text)


# characters str.splitlines breaks a line at, besides \n and \r
LINE_BREAKS = ("\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
SPACES = (" ", "  ", "\t", " \t ")
# each ASCII digit respelled as itself, in Arabic-Indic and in fullwidth
DIGIT_SPELLINGS = {str(k): (str(k), chr(0x660 + k), chr(0xFF10 + k)) for k in range(10)}


MUTATIONS = ("crlf", "no final newline", "blank line", "spacing", "line break", "digits", "zeros")


@st.composite
def aut_texts(draw):
    """.aut text as export_aut writes it, with states, the initial state
    and the header count in or just out of range and blank labels or
    labels holding a line break, then up to three of MUTATIONS applied:
    CRLF, no final newline, a blank line anywhere (also first), spaces
    and tabs in and around one line's tuple (also the header's), a line
    break other than \n anywhere, one number in non-ASCII digits and
    one zero-padded."""
    n = draw(st.integers(0, 4))
    state = st.sampled_from([*range(n)] * 3 + [n])  # n itself is out of range
    label = st.sampled_from(["a", "b !v", "c", " a", "a\x1fb"] * 3 + ["", "  ", "\t"]
                            + [f"a{c}b" for c in LINE_BREAKS])
    edges = draw(st.lists(st.tuples(state, label, state), max_size=6))
    count = len(edges) + draw(st.sampled_from([0, 0, 0, -1, 1]))
    # each line as its separators and numbers: (text, number, text, ...)
    lines = [["des (", str(draw(state)), ", ", str(count), ", ", str(n), ")"]]
    lines += [["(", str(src), f', "{lab}", ', str(dst), ")"] for src, lab, dst in edges]
    mutations = draw(st.sets(st.sampled_from(MUTATIONS), max_size=3))
    pick = st.integers(0, len(lines) - 1)
    if "digits" in mutations or "zeros" in mutations:
        line = lines[draw(pick)]
        k = draw(st.sampled_from(range(1, len(line), 2)))
        if "zeros" in mutations:
            line[k] = "0" * draw(st.integers(1, 2)) + line[k]
        if "digits" in mutations and line[k].isdigit():
            line[k] = "".join(draw(st.sampled_from(DIGIT_SPELLINGS[c])) for c in line[k])
    if "spacing" in mutations:
        line = lines[draw(pick)]
        space = st.sampled_from(SPACES)
        for k in range(0, len(line), 2):
            if draw(st.booleans()):
                line[k] = draw(space) + line[k].strip(" ") + draw(space)
    texts = ["".join(line) for line in lines]
    if "blank line" in mutations:
        texts.insert(draw(st.integers(0, len(texts))), draw(st.sampled_from(["", " ", "\t"])))
    text = ("\r\n" if "crlf" in mutations else "\n").join(texts)
    if "no final newline" not in mutations:
        text += "\r\n" if "crlf" in mutations else "\n"
    if "line break" in mutations:
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(LINE_BREAKS)) + text[at:]
    return text


def read_or_error(reader, text):
    try:
        lts = reader(text)
    except ValueError as exc:
        return "error", str(exc)
    return lts.num_states, lts.initial, lts.label_text, lts.transitions


def header_or_error(reader, text):
    try:
        return reader(text)
    except ValueError as exc:
        return "error", str(exc)


@settings(max_examples=500, deadline=None)
@given(aut_texts())
def test_read_aut_agrees_with_the_per_line_reader(text):
    assert read_or_error(read_aut, text) == read_or_error(aut_oracle.read_aut, text)


@settings(max_examples=500, deadline=None)
@given(aut_texts())
def test_aut_header_agrees_with_the_per_line_reader(text):
    # the CLI holds the header's counts to the budget before read_aut runs
    want = header_or_error(aut_oracle.aut_header, text)
    assert header_or_error(aut_header, text) == want


def test_checks_work_on_read_back_systems(client_server_lts):
    back = read_aut(export_aut(client_server_lts))
    assert back.form_text(0) is None
    assert check_deadlock(back).ok
    assert check_reachable(back, parse_label_pattern("invSrv !* !*")).ok
    assert bisim_equiv(back, client_server_lts).ok


def test_checks_on_a_system_without_states():
    lts = read_aut("des (0, 0, 0)\n")
    mon, _ = parse_monitor("states a\ninitial a\nbad a\n")
    assert check_deadlock(lts).ok
    assert not check_reachable(lts, parse_label_pattern("*")).ok
    assert check_safety(lts, mon).ok


def test_minimize_system_without_states():
    small = minimize(read_aut("des (0, 0, 0)\n"))
    assert export_aut(small) == "des (0, 0, 0)\n"


def test_deadlock_only_counts_reachable_sinks():
    # state 1 has no moves; state 0 cannot reach it, state 2 can
    transitions = '(0, "e", 0)\n(2, "a", 3)\n(3, "b", 2)\n(3, "d", 1)\n'
    assert check_deadlock(read_aut("des (0, 4, 4)\n" + transitions)).ok
    result = check_deadlock(read_aut("des (2, 4, 4)\n" + transitions))
    assert not result.ok
    assert result.detail == "deadlock at state 1"
    assert result.trace == ["a", "d"]


# ----------------------------------------------------------------------
# deadlock, reach and safety against the oracle on random .aut files


LABELS = ("a", "b", "c !v1", "c !v2", "i", "exit")
PATTERNS = ("a", "b", "*", "c !*", "c !v2", "* !v1", "i", "exit")


@st.composite
def aut_systems(draw):
    """Small files in random line order, with any initial state, so that
    some states are unreachable and exit edges lead anywhere."""
    n = draw(st.integers(1, 8))
    state = st.integers(0, n - 1)
    edge = st.tuples(state, st.sampled_from(LABELS), state)
    edges = draw(st.lists(edge, min_size=n - 1, max_size=2 * n + 2, unique=True))
    lines = [f"des ({draw(state)}, {len(edges)}, {n})"]
    lines += [f'({src}, "{label}", {dst})' for src, label, dst in edges]
    return read_aut("\n".join(lines) + "\n")


@st.composite
def monitors(draw):
    """Two to four states, the last one bad; a bad initial state has its
    own test."""
    names = [f"m{k}" for k in range(draw(st.integers(2, 4)))]
    name = st.sampled_from(names)
    rules = draw(st.lists(st.tuples(name, name, st.sampled_from(PATTERNS)), min_size=2, max_size=8))
    lines = [f"states {' '.join(names)}", f"initial {names[0]}", f"bad {names[-1]}"]
    lines += [f"trans {src} {dst} {pat}" for src, dst, pat in rules]
    mon, diags = parse_monitor("\n".join(lines))
    assert mon is not None, [str(d) for d in diags]
    return mon


@settings(max_examples=300, deadline=None)
@given(aut_systems())
def test_deadlock_agrees_with_oracle(lts):
    result = check_deadlock(lts)
    want = check_oracle.deadlock_distance(lts)
    assert result.ok == (want is None)
    if not result.ok:
        assert len(result.trace) == want
        state = int(result.detail.split()[-1])
        assert check_oracle.is_deadlock_witness(lts, result.trace, state)


@settings(max_examples=300, deadline=None)
@given(aut_systems(), st.sampled_from(PATTERNS))
def test_reach_agrees_with_oracle(lts, text):
    pattern = parse_label_pattern(text)
    result = check_reachable(lts, pattern)
    want = check_oracle.reach_distance(lts, pattern)
    assert result.ok == (want is not None)
    if result.ok:
        assert len(result.trace) == want
        assert check_oracle.is_reach_witness(lts, result.trace, pattern)


@settings(max_examples=300, deadline=None)
@given(aut_systems(), monitors())
def test_safety_agrees_with_oracle(lts, mon):
    result = check_safety(lts, mon)
    want = check_oracle.safety_distance(lts, mon)
    assert result.ok == (want is None)
    if not result.ok:
        assert len(result.trace) == want
        assert check_oracle.is_safety_witness(lts, result.trace, mon)


# ----------------------------------------------------------------------
# deadlock, reach and safety in lockstep with exploration


LOCKSTEP_MONITOR = parse_monitor(
    "states m0 m1 bad\ninitial m0\nbad bad\n"
    "trans m0 m1 a\ntrans m1 m0 c !*\ntrans m1 bad b !*\ntrans m0 bad exit\n"
)[0]
LOCKSTEP_PATTERNS = ("*", "a", "b !*", "c !v1 !*", "c !* !v2", "i", "exit")


def lockstep_checks():
    """(name, check, what makes its result a witness) for every check the
    search serves."""
    out = [("deadlock", check_deadlock, False)]
    for text in LOCKSTEP_PATTERNS:
        pattern = parse_label_pattern(text)
        out.append((f"reach {text}", lambda s, p=pattern: check_reachable(s, p), True))
    out.append(("safety", lambda s: check_safety(s, LOCKSTEP_MONITOR), False))
    return out


def outcome(check, system):
    try:
        result = check(system())
    except BudgetExceededError as exc:
        return str(exc)
    return result.ok, result.detail, result.trace


def assert_lockstep_agrees(spec, budget=None):
    """Each check on an Exploration gives what it gives on the generated
    system; or, where generation ran out of budget, a witness found within
    it that the oracle accepts as shortest on the whole system."""
    whole = None
    for name, check, witness in lockstep_checks():
        want = outcome(check, lambda: generate_lts(spec, budget))
        got = outcome(check, lambda: Exploration(spec, budget))
        if got == want:
            continue
        assert isinstance(want, str) and not isinstance(got, str), (name, want, got)
        ok, detail, trace = got
        assert ok == witness, (name, got)
        if whole is None:
            whole = generate_lts(spec)
        if name == "deadlock":
            state = int(detail.split()[3])
            assert len(trace) == check_oracle.deadlock_distance(whole)
            assert check_oracle.is_deadlock_witness(whole, trace, state)
        elif name == "safety":
            assert len(trace) == check_oracle.safety_distance(whole, LOCKSTEP_MONITOR)
            assert check_oracle.is_safety_witness(whole, trace, LOCKSTEP_MONITOR)
        else:
            pattern = parse_label_pattern(name.split(" ", 1)[1])
            assert len(trace) == check_oracle.reach_distance(whole, pattern)
            assert check_oracle.is_reach_witness(whole, trace, pattern)


@pytest.mark.parametrize("name", LOT_FILES)
@pytest.mark.parametrize("hide", [True, False], ids=["hide", "strip"])
@pytest.mark.parametrize("max_states", [None, 2, 5, 12], ids=["unbounded", "2", "5", "12"])
def test_lockstep_agrees_on_the_corpus(name, hide, max_states):
    spec = load_spec(name)
    if not hide:
        spec = strip_hiding(spec)
    assert_lockstep_agrees(spec, None if max_states is None else ExplorationBudget(max_states))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 2**16), st.integers(0, 2**16))
def test_lockstep_agrees_on_random_systems(seed, states, transitions):
    spec = gen_system(random.Random(seed))
    try:
        whole = generate_lts(spec, ExplorationBudget(2000, 20000))
    except (BudgetExceededError, UnguardedRecursionError, ValueError):
        assume(False)
    assert_lockstep_agrees(spec, ExplorationBudget(whole.num_states, whole.num_transitions))
    # budgets of at most the whole system, so that most of them run out
    assert_lockstep_agrees(spec, ExplorationBudget(1 + states % whole.num_states,
                                                   1 + transitions % (whole.num_transitions or 1)))


def spec_of(text):
    spec, diags = parse_spec(text)
    assert spec is not None, [str(d) for d in diags]
    assert not validate_spec(spec)
    return spec


def pipeline(cells):
    """cells one-place buffers of two values chained on hidden gates; the
    value put in first reaches the output after cells - 1 internal steps."""
    pipe = " |[".join(f"m{k}]| Cell [m{k}, m{k + 1}]" for k in range(1, cells))
    hidden = ", ".join(f"m{k}" for k in range(1, cells))
    return spec_of(
        f"specification Pipe [m0, m{cells}] : noexit :=\n"
        f"  sorts D = {{ d0, d1 }}\n"
        f"  behaviour hide {hidden} in Cell [m0, m1] |[{pipe}\n"
        f"  where process Cell [a, b] : noexit := a ?x: D; b !x; Cell [a, b] endproc\n"
        f"endspec\n"
    )


def chains(copies, steps):
    """copies interleaved runs of steps actions each, then stop."""
    gates = ", ".join(f"g{k}" for k in range(steps))
    top = " ||| ".join([f"C [{gates}]"] * copies)
    return spec_of(
        f"specification Chains [{gates}] : noexit := behaviour {top}\n"
        f"  where process C [{gates}] : noexit := {'; '.join(gates.split(', '))}; stop endproc\n"
        f"endspec\n"
    )


def expanded(monkeypatch, check):
    """The states check expands, counted as calls of semantics.successors,
    the name exploration steps states through."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return successors(*args, **kwargs)

    monkeypatch.setattr(semantics, "successors", counted)
    result = check()
    monkeypatch.undo()
    return result, len(calls)


def test_lockstep_expands_only_what_the_search_reads(monkeypatch):
    spec = pipeline(4)
    whole, all_states = expanded(monkeypatch, lambda: generate_lts(spec))
    assert all_states == whole.num_states == 3 ** 4
    pattern = parse_label_pattern("m4 !d1")
    found, some = expanded(monkeypatch, lambda: check_reachable(Exploration(spec), pattern))
    assert found == check_reachable(whole, pattern)
    assert found.trace == ["m0 !d1", "i", "i", "i", "m4 !d1"]
    assert some < all_states / 2

    # a chain's only deadlock is its last state, so the search needs them all
    spec = chains(3, 3)
    whole, all_states = expanded(monkeypatch, lambda: generate_lts(spec))
    found, expanded_states = expanded(monkeypatch, lambda: check_deadlock(Exploration(spec)))
    assert found == check_deadlock(whole)
    assert found.detail.startswith(f"deadlock at state {whole.num_states - 1} = ")
    assert expanded_states == all_states == 4 ** 3


# each reads a system and, for bisim_equiv, a second one
WHOLE_TABLE_READERS = {
    "export_aut": lambda lts, _: export_aut(lts),
    "minimize": lambda lts, _: minimize(lts),
    "bisim_equiv": bisim_equiv,
    "num_transitions": lambda lts, _: lts.num_transitions,
    "transitions": lambda lts, _: lts.transitions,
}


@pytest.mark.parametrize("name", LOT_FILES)
@pytest.mark.parametrize("reader", WHOLE_TABLE_READERS)
@pytest.mark.parametrize("rows", [0, 1], ids=["fresh", "one-row"])
def test_exploration_whole_table_readers_finish_it_first(name, reader, rows):
    # a reader of the whole table on an exploration, fresh or with some
    # rows built, gives what it gives on the generated system
    spec, other = load_spec(name), strip_hiding(load_spec(name))
    explored = Exploration(spec)
    for s in range(rows):
        explored.row(s)
    read = WHOLE_TABLE_READERS[reader]
    assert read(explored, Exploration(other)) == read(generate_lts(spec), generate_lts(other))
    assert explored == generate_lts(spec)
    # equality reads the whole table too, from either side
    assert generate_lts(other) == Exploration(other) and Exploration(other) == generate_lts(other)


def test_lockstep_ok_verdict_still_needs_the_whole_budget():
    spec = pipeline(3)
    pattern = parse_label_pattern("m3 !d2")  # no such value
    budget = ExplorationBudget(max_states=10)
    with pytest.raises(BudgetExceededError) as full:
        generate_lts(spec, budget)
    with pytest.raises(BudgetExceededError) as lockstep:
        check_reachable(Exploration(spec, budget), pattern)
    assert str(lockstep.value) == str(full.value)
    whole = Exploration(spec)
    assert check_reachable(whole, pattern) == VerifyResult(False, "no transition matches 'm3 !d2'")
    assert len(whole.out) == whole.num_states == 3 ** 3


def test_lockstep_stops_before_a_recursion_it_does_not_reach():
    # P recurses unguarded; generation reaches it, while the search for b
    # stops at the first level
    spec = spec_of(
        "specification U [a, b] : noexit := behaviour b; stop [] a; P [a]\n"
        "  where process P [g] : noexit := P [g] endproc\nendspec\n"
    )
    with pytest.raises(UnguardedRecursionError):
        generate_lts(spec)
    assert check_reachable(Exploration(spec), parse_label_pattern("b")).trace == ["b"]
    with pytest.raises(UnguardedRecursionError):
        check_deadlock(Exploration(spec))


UNGUARDED = ("specification U [a] : noexit := behaviour a; a; P [a]\n"
             "  where process P [g] : noexit := P [g] endproc\nendspec\n")


@pytest.mark.parametrize("error, make", [
    (BudgetExceededError, lambda: Exploration(load_spec("multicast.lot"), ExplorationBudget(5))),
    (UnguardedRecursionError, lambda: Exploration(spec_of(UNGUARDED))),
    # state 2 has three moves, and the second is one too many; a refused
    # transition repeats with the same counts, however early they were kept
    (BudgetExceededError,
     lambda: Exploration(load_spec("multicast_unordered.lot"), ExplorationBudget(max_transitions=5))),
    # state 1 has three moves, and the second's target is one state too
    # many: the error shows the transitions counted, so it repeats only if
    # the first move is not counted until its row is built
    (BudgetExceededError,
     lambda: Exploration(load_spec("multicast_unordered.lot"), ExplorationBudget(max_states=3))),
], ids=["budget", "unguarded", "transitions-mid-row", "states-mid-row"])
def test_exploration_raises_its_error_again(error, make):
    # a state whose expansion raised has no row, so every later row and
    # finish that needs it expands it again and must raise the same error
    explored = make()
    with pytest.raises(error) as first:
        check_deadlock(explored)
    built = len(explored.out)
    for again in (lambda: check_deadlock(explored), explored.finish,
                  lambda: explored.row(explored.num_states - 1), explored.finish):
        with pytest.raises(error) as later:
            again()
        assert later.value is not first.value
        assert str(later.value) == str(first.value)
        assert vars(later.value) == vars(first.value)
    assert len(explored.out) == built


def test_exploration_recovers_from_a_memory_error_while_printing(monkeypatch):
    # a term enters the table only with its printed form, so a MemoryError
    # while printing one leaves no half-interned term for the next check
    spec = wrap(behavior("(a; b; stop) ||| (a; b; stop)"))
    printed, pretty_node = [], semantics.pretty_node

    def failing(node, text):
        printed.append(node)
        if len(printed) == 6:
            raise MemoryError
        return pretty_node(node, text)

    monkeypatch.setattr(semantics, "pretty_node", failing)
    explored = Exploration(spec)
    with pytest.raises(MemoryError):
        check_deadlock(explored)
    monkeypatch.undo()
    again = check_deadlock(explored)
    assert again == check_deadlock(Exploration(spec))
    assert not again.ok and again.trace == ["a", "a", "b", "b"]


def test_exploration_that_raised_is_freed_without_the_collector():
    # an exploration keeps nothing of what it raised, so the traceback,
    # whose frames hold the exploration, makes no cycle with it
    gc.disable()
    try:
        explored = Exploration(load_spec("multicast.lot"), ExplorationBudget(5))
        alive = weakref.ref(explored)
        for _ in range(2):
            with pytest.raises(BudgetExceededError):
                check_deadlock(explored)
        del explored
        assert alive() is None
    finally:
        gc.enable()
