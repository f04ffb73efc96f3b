import gc
import hashlib
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sos_oracle
from behavior_gen import GATES, gen_behavior, gen_system, wrap
from conftest import LOT_FILES, load_spec
from lotoskit import (
    BudgetExceededError,
    Exploration,
    ExplorationBudget,
    UnguardedRecursionError,
    generate_lts,
    parse_spec,
    successors,
)
from lotoskit.semantics import normalize, strip_hiding
from lotoskit.syntax import ast, parse_behavior
from lotoskit.syntax.printer import pretty_behavior


EMPTY = ast.Specification("T", (), (), (), ast.Stop())


def behavior(text, value_sorts=None):
    b, diags = parse_behavior(text, value_sorts=value_sorts)
    assert b is not None, [str(d) for d in diags]
    return b


def labels_of(b, spec=EMPTY):
    return sorted(a for a, _ in successors(b, spec))


# ----------------------------------------------------------------------
# single steps


def test_stop_has_no_steps():
    assert successors(ast.Stop(), EMPTY) == []


def test_exit_terminates_once():
    steps = successors(ast.Exit(), EMPTY)
    assert steps == [("exit", ast.Stop())]


def test_prefix_steps_to_rest():
    steps = successors(behavior("a; stop"), EMPTY)
    assert steps == [("a", ast.Stop())]


def test_internal_prefix():
    steps = successors(behavior("i; stop"), EMPTY)
    assert steps == [("i", ast.Stop())]


def test_choice_offers_both_sides():
    assert labels_of(behavior("a; stop [] b; stop")) == ["a", "b"]


def test_interleave_never_syncs_observables():
    assert labels_of(behavior("a; stop ||| a; stop")) == ["a", "a"]


def test_gate_sync_required():
    b = behavior("a; stop |[a]| a; stop")
    steps = successors(b, EMPTY)
    assert [a for a, _ in steps] == ["a"]


def test_gate_sync_blocks_unmatched():
    assert labels_of(behavior("a; stop |[a]| b; a; stop")) == ["b"]


def test_full_sync_on_everything_observable():
    assert labels_of(behavior("a; stop || b; stop")) == []
    assert labels_of(behavior("a; stop || a; stop")) == ["a"]


def test_internal_never_syncs():
    assert labels_of(behavior("i; stop || i; stop")) == ["i", "i"]


def test_termination_syncs_in_all_parallel_kinds():
    for op in ("|||", "||", "|[a]|"):
        b = behavior(f"exit {op} exit")
        assert labels_of(b) == ["exit"], op


def test_one_sided_exit_blocks_interleaving_termination():
    assert labels_of(behavior("exit ||| a; stop")) == ["a"]


def test_hide_makes_internal():
    assert labels_of(behavior("hide a in a; b; stop")) == ["i"]


def test_hide_keeps_other_gates():
    assert labels_of(behavior("hide a in b; stop")) == ["b"]


def test_enable_turns_termination_into_internal():
    b = behavior("exit >> a; stop")
    steps = successors(b, EMPTY)
    assert steps == [("i", behavior("a; stop"))]


def test_enable_waits_for_termination():
    assert labels_of(behavior("a; exit >> b; stop")) == ["a"]


def test_disrupt_offers_both_until_left_ends():
    assert labels_of(behavior("a; stop [> b; stop")) == ["a", "b"]


def test_disrupt_survives_left_steps():
    b = behavior("a; a; stop [> b; stop")
    (_, after_a), _ = successors(b, EMPTY)
    assert after_a == behavior("a; stop [> b; stop")


def test_termination_discharges_disruption():
    b = behavior("exit [> b; stop")
    steps = successors(b, EMPTY)
    assert ("exit", ast.Stop()) in steps


# value offers


SORTED = ast.Specification(
    "T", ("g", "h"), (ast.SortDecl("V", ("v1", "v2")),), (), ast.Stop()
)


def test_receive_expands_in_declaration_order():
    b = behavior("g ?x: V; stop")
    steps = successors(b, SORTED)
    assert [a for a, _ in steps] == ["g !v1", "g !v2"]


def test_received_value_flows_into_continuation():
    b = behavior("g ?x: V; h !x; stop")
    steps = successors(b, SORTED)
    conts = {a: labels_of(nxt, SORTED) for a, nxt in steps}
    assert conts == {"g !v1": ["h !v1"], "g !v2": ["h !v2"]}


def test_send_after_receive_in_same_action():
    b = behavior("g ?x: V !x; stop")
    assert labels_of(b, SORTED) == ["g !v1 !v1", "g !v2 !v2"]


def test_two_receives_expand_as_a_product():
    b = behavior("g ?x: V ?y: V; stop")
    assert labels_of(b, SORTED) == [
        "g !v1 !v1", "g !v1 !v2", "g !v2 !v1", "g !v2 !v2",
    ]


def test_rebinding_receive_shields_inner_use():
    b = behavior("g ?x: V; g ?x: V; h !x; stop")
    # the inner receive decides what h sends, whatever the outer picked,
    # so both outer choices collapse into one continuation state
    lts = generate_lts(ast.Specification("T", ("g", "h"), SORTED.sorts, (), b))
    outer_targets = {dst for src, _, dst in lts.transitions if src == 0}
    assert len(outer_targets) == 1
    hs = sorted(label for _, label, _ in lts.transitions if label.startswith("h"))
    assert hs == ["h !v1", "h !v2"]


def test_send_after_a_rebinding_receive_sends_what_it_received():
    spec = ast.Specification("T", ("g",), SORTED.sorts, (), behavior("g ?x: V; g ?x: V !x; stop"))
    assert_graph_equal(spec)
    lts = generate_lts(spec)
    assert (lts.num_states, lts.transitions) == (3, [
        (0, "g !v1", 1), (0, "g !v2", 1), (1, "g !v1 !v1", 2), (1, "g !v2 !v2", 2),
    ])


def test_value_sync_is_label_equality():
    b = behavior("g ?x: V; stop |[g]| g !v2; stop", value_sorts={"v2": "V"})
    assert labels_of(b, SORTED) == ["g !v2"]


def test_missing_sort_raises():
    b = behavior("g ?x: NOPE; stop")
    with pytest.raises(ValueError):
        successors(b, SORTED)


def test_unbound_send_raises():
    b = behavior("g !x; stop")
    with pytest.raises(ValueError):
        successors(b, SORTED)


# ----------------------------------------------------------------------
# instantiation


def spec_of(text):
    spec, diags = parse_spec(text)
    assert spec is not None, [str(d) for d in diags]
    return spec


RECURSIVE = spec_of("""
specification T [g, h] : noexit :=
  behaviour
    P [g, h]
  where
    process P [a, b] : noexit :=
      a; Q [b]
    endproc
    process Q [c] : noexit :=
      c; stop
    endproc
endspec
""")


def test_instantiation_puts_actuals_for_formals():
    # P [g, h] unfolds to g; Q [h], and Q [h] to h; stop
    (label, nxt), = successors(RECURSIVE.top_behavior, RECURSIVE)
    assert (label, nxt) == ("g", behavior("Q [h]"))
    assert successors(nxt, RECURSIVE) == [("h", ast.Stop())]


def test_instantiation_checks_definition_and_arity():
    with pytest.raises(ValueError, match="gate arity mismatch instantiating 'Q'"):
        successors(ast.Inst("Q", ("g", "h")), RECURSIVE)
    with pytest.raises(ValueError, match="process 'Missing' is not defined"):
        successors(ast.Inst("Missing"), RECURSIVE)


def test_gate_swap_is_simultaneous():
    swap = spec_of("""
    specification T [g, h] : noexit :=
      behaviour
        P [h, g]
      where
        process P [a, b] : noexit :=
          a; b; stop
        endproc
    endspec
    """)
    lts = generate_lts(swap)
    assert [label for _, label, _ in lts.transitions] == ["h", "g"]


def forms_of(lts):
    return [lts.form_text(s) for s in range(lts.num_states)]


def test_renaming_freshens_a_capturing_hide():
    # renaming g to a must not let the hide of a swallow it
    spec = spec_of("""
    specification T [a] : noexit :=
      behaviour P [a]
      where process P [g] : noexit := hide a in g; a; stop endproc
    endspec
    """)
    assert forms_of(generate_lts(spec)) == [
        "P [a]", "hide a#1 in a#1; stop", "hide a#1 in stop",
    ]


def test_fresh_gate_skips_a_name_already_taken():
    # Q is entered with a#1 as an actual gate, so its hide of a, which
    # would capture g's a, must take a#2
    spec = spec_of("""
    specification T [a] : noexit :=
      behaviour P [a]
      where
        process P [g] : noexit := hide a in g; Q [g, a] endproc
        process Q [g, h] : noexit := hide a in g; h; a; stop endproc
    endspec
    """)
    lts = generate_lts(spec)
    assert forms_of(lts) == [
        "P [a]",
        "hide a#1 in Q [a, a#1]",
        "hide a#1 in hide a#2 in a#1; a#2; stop",
        "hide a#1 in hide a#2 in a#2; stop",
        "hide a#1 in hide a#2 in stop",
    ]
    assert [label for _, label, _ in lts.transitions] == ["a", "a", "i", "i"]


def test_capture_avoidance_end_to_end():
    spec = spec_of("""
    specification T [a] : noexit :=
      behaviour
        P [a]
      where
        process P [g] : noexit :=
          hide a in g; a; stop
        endproc
    endspec
    """)
    lts = generate_lts(spec)
    assert [label for _, label, _ in lts.transitions] == ["a", "i"]


def test_unguarded_recursion_direct():
    spec = spec_of("""
    specification T [a] : noexit :=
      behaviour P [a]
      where process P [g] : noexit := P [g] endproc
    endspec
    """)
    with pytest.raises(UnguardedRecursionError):
        generate_lts(spec)


def test_unguarded_recursion_through_choice():
    spec = spec_of("""
    specification T [a] : noexit :=
      behaviour P [a]
      where process P [g] : noexit := P [g] [] g; stop endproc
    endspec
    """)
    with pytest.raises(UnguardedRecursionError):
        generate_lts(spec)


def test_mutual_unguarded_recursion():
    spec = spec_of("""
    specification T [a] : noexit :=
      behaviour P [a]
      where
        process P [g] : noexit := Q [g] endproc
        process Q [g] : noexit := P [g] endproc
    endspec
    """)
    with pytest.raises(UnguardedRecursionError) as exc:
        generate_lts(spec)
    assert exc.value.process in ("P", "Q")


def test_long_guard_free_chain_is_not_unguarded_recursion():
    defs = "".join(
        f"process P{k} [g] : noexit := P{k + 1} [g] endproc\n" for k in range(1001)
    )
    spec = spec_of(
        "specification T [a] : noexit := behaviour P0 [a] where\n"
        + defs
        + "process P1001 [g] : noexit := g; stop endproc\nendspec\n"
    )
    lts = generate_lts(spec)
    assert lts.num_states == 2 and lts.transitions == [(0, "a", 1)]


def test_cycle_entered_below_its_head_names_first_repeat():
    spec = spec_of("""
    specification T [a] : noexit :=
      behaviour P0 [a]
      where
        process P0 [g] : noexit := P1 [g] endproc
        process P1 [g] : noexit := P2 [g] [] g; stop endproc
        process P2 [g] : noexit := P1 [g] endproc
    endspec
    """)
    with pytest.raises(UnguardedRecursionError) as exc:
        generate_lts(spec)
    assert exc.value.process == "P1"


def _guard_free_calls(b):
    """The processes b instantiates before any action prefix."""
    out, stack = set(), [b]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Inst):
            out.add(node.process)
        elif isinstance(node, ast.Hide):
            stack.append(node.body)
        elif isinstance(node, ast.Seq):
            stack.append(node.left)
        elif isinstance(node, (ast.Choice, ast.Par, ast.Disrupt)):
            stack.extend((node.left, node.right))
    return out


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4))
def test_unguarded_recursion_is_a_guard_free_cycle(seed, count):
    rng = random.Random(seed)
    procs = tuple(
        ast.ProcessDef(f"P{k}", GATES, "noexit", gen_behavior(rng, rng.randint(0, 3), procs=count))
        for k in range(count)
    )
    spec = ast.Specification("R", GATES, (), procs, ast.Inst("P0", GATES))
    calls = {p.name: _guard_free_calls(p.body) for p in procs}

    def beyond(name):
        seen, stack = set(), list(calls[name])
        while stack:
            q = stack.pop()
            if q not in seen:
                seen.add(q)
                stack.extend(calls[q])
        return seen

    on_cycle = {p for p in calls if p in beyond(p)}
    try:
        # few states: the printed form of "g; (P [g] || P [g])" doubles per step
        generate_lts(spec, ExplorationBudget(max_states=6, max_transitions=60))
    except UnguardedRecursionError as exc:
        assert exc.process in on_cycle
        return
    except BudgetExceededError:
        pass
    # the initial state unfolds P0 and everything it calls guard-free
    assert not on_cycle & ({"P0"} | beyond("P0"))


def test_exploration_leaves_the_recursion_limit_alone():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        generate_lts(load_spec("multicast_unordered.lot"))
        successors(behavior("a; stop"), EMPTY)
        assert sys.getrecursionlimit() == 1000
    finally:
        sys.setrecursionlimit(limit)


def test_guarded_mutual_recursion_is_fine():
    spec = spec_of("""
    specification T [a, b] : noexit :=
      behaviour P [a, b]
      where
        process P [g, h] : noexit := g; Q [g, h] endproc
        process Q [g, h] : noexit := h; P [g, h] endproc
    endspec
    """)
    lts = generate_lts(spec)
    assert lts.num_states == 2 and lts.num_transitions == 2


# ----------------------------------------------------------------------
# exploration


def test_budget_limits_states():
    spec = load_spec("multicast_unordered.lot")
    with pytest.raises(BudgetExceededError) as exc:
        generate_lts(spec, ExplorationBudget(max_states=10))
    err = exc.value
    assert err.kind == "state"
    # discovering an eleventh state breaks the budget of ten
    assert err.states == 10 and 0 < err.transitions
    assert err.depth >= 1
    assert f"{err.states} states and {err.transitions} transitions at depth {err.depth}" in str(err)


def test_budget_limits_transitions():
    spec = load_spec("multicast_unordered.lot")
    with pytest.raises(BudgetExceededError) as exc:
        generate_lts(spec, ExplorationBudget(max_transitions=20))
    err = exc.value
    assert err.kind == "transition"
    assert (err.states, err.transitions, err.depth) == (16, 20, 3)
    assert f"{err.states} states and {err.transitions} transitions at depth {err.depth}" in str(err)


def test_transition_budget_admits_no_state_it_refuses():
    # under a budget of k transitions, exploration has admitted the states
    # that the first k transitions of the whole system reach, and no state
    # that only the refused one reaches
    spec = load_spec("multicast_unordered.lot")
    whole = generate_lts(spec)
    moves = [(src, dst) for src, row in enumerate(whole.out) for _, dst in row]
    level = {0: 0}
    for src, dst in moves:
        level.setdefault(dst, level[src] + 1)
    for k, (src, _) in enumerate(moves):
        with pytest.raises(BudgetExceededError) as exc:
            generate_lts(spec, ExplorationBudget(max_transitions=k))
        err = exc.value
        admitted = 1 + max((dst for _, dst in moves[:k]), default=0)
        assert (err.kind, err.states, err.transitions, err.depth) == (
            "transition", admitted, k, level[src])


def test_state_budget_of_zero_admits_not_even_the_initial_state():
    spec = spec_of("specification One [a] : noexit := behaviour stop endspec")
    for explore in (Exploration, generate_lts):
        with pytest.raises(BudgetExceededError) as exc:
            explore(spec, ExplorationBudget(max_states=0))
        assert vars(exc.value) == vars(BudgetExceededError("state", 0, 0, 0, 0))
        assert str(exc.value).endswith("(stopped after 0 states and 0 transitions at depth 0)")


def test_budget_reports_breadth_first_depth():
    # a chain of 30 steps reaches depth k after k + 1 states
    spec = spec_of(chain_text(1, 30))
    with pytest.raises(BudgetExceededError) as exc:
        generate_lts(spec, ExplorationBudget(max_states=12))
    assert (exc.value.states, exc.value.transitions, exc.value.depth) == (12, 11, 11)


def test_exploration_keeps_few_objects_for_the_collector():
    # every object the collector tracks is traversed by each full
    # collection; a state's own steps are not kept once it is expanded, so
    # 4 interleaved copies of a 6-step chain keep about 4 per state
    spec = spec_of(chain_text(4, 6))
    gc.collect()
    before = len(gc.get_objects())
    explored = Exploration(spec)
    explored.finish()
    gc.collect()
    added = len(gc.get_objects()) - before
    assert explored.num_states == 7 ** 4
    assert added / explored.num_states < 5


def test_unfinished_exploration_keeps_few_objects_for_the_collector():
    # finish drops the term table, so count with every row built in
    # lockstep and the table still held, as a check of verify holds it
    spec = spec_of(chain_text(4, 6))
    gc.collect()
    before = len(gc.get_objects())
    explored = Exploration(spec)
    s = 0
    while s < explored.num_states:
        explored.row(s)
        s += 1
    gc.collect()
    added = len(gc.get_objects()) - before
    assert len(explored.out) == explored.num_states == 7 ** 4
    assert added / explored.num_states < 5


def test_states_numbered_in_discovery_order(client_server_lts):
    lts = client_server_lts
    assert lts.initial == 0
    assert lts.num_states == 4
    firsts = {}
    for src, _, dst in lts.transitions:
        firsts.setdefault(dst, src)
    assert all(firsts[s] < s for s in range(1, lts.num_states))


def test_transitions_deduplicated():
    # both branches step to the same state with the same label
    lts = generate_lts(wrap(behavior("a; stop [] a; stop")))
    assert lts.num_transitions == 1


def test_generation_is_deterministic():
    for name in LOT_FILES:
        a = generate_lts(load_spec(name))
        b = generate_lts(load_spec(name))
        assert a.transitions == b.transitions and a.num_states == b.num_states


def test_source_locations_do_not_split_states():
    # both branches continue as "c; stop"; different spellings (hence
    # different source spans) must still land in one shared state
    lts = generate_lts(wrap(behavior("a; c; stop [] b;    c; stop")))
    assert lts.num_states == 3
    assert lts.transitions == [(0, "a", 1), (0, "b", 1), (1, "c", 2)]
    assert normalize(behavior("  c ; stop  ")) == normalize(behavior("c; stop"))


def test_strip_hiding_reveals_gates(multicast):
    hidden = generate_lts(multicast)
    revealed = generate_lts(strip_hiding(multicast))
    assert not any(label.startswith("inv") for label in hidden.label_text if label != "invClt !op1")
    assert any(label.startswith("inv !") for label in revealed.label_text)
    assert any(label.startswith("ter !") for label in revealed.label_text)
    # the internal step the enable operator introduces is untouched
    assert "i" in revealed.label_text and "i" in hidden.label_text


# ----------------------------------------------------------------------
# agreement with the reference stepper


def assert_graph_equal(spec):
    lts = generate_lts(spec)
    got_forms, got_edges = sos_oracle.graph_of_lts(lts)
    want_forms, want_edges = sos_oracle.explore(spec)
    assert got_forms[0] == want_forms[0]
    assert sorted(got_forms) == sorted(want_forms)
    assert got_edges == want_edges


def test_oracle_agrees_on_corpus():
    for name in LOT_FILES:
        assert_graph_equal(load_spec(name))


def test_oracle_agrees_on_random_terms():
    rng = random.Random(11)
    for _ in range(150):
        term = gen_behavior(rng, rng.randint(0, 4))
        assert_graph_equal(wrap(term))


def test_oracle_agrees_on_random_terms_with_offers():
    rng = random.Random(12)
    for _ in range(150):
        term = gen_behavior(rng, rng.randint(0, 4), values=True, sends=True)
        assert_graph_equal(wrap(term))


# Steps on gates g and gg, with and without an offer, and i and exit.  One
# gate name is a prefix of the other, which the random terms never have
# (behavior_gen.GATES is "a", "b", "c"), so a test of a gate-name prefix
# shows here.
GATE_WORDS = "g; stop [] gg; stop [] g !v; stop [] gg !v; stop [] i; stop [] exit"
GATE_WORD_SPEC = ast.Specification("T", ("g", "gg"), (ast.SortDecl("V", ("v",)),), (), ast.Stop())


@pytest.mark.parametrize("shape", [
    "({0}) |[g]| ({0})",
    "({0}) || ({0})",
    "({0}) ||| ({0})",
    "hide g in ({0})",
    # one label meets two gate sets in one exploration, so an answer kept
    # per label alone shows
    "(({0}) |[g]| ({0})) |[gg]| ({0})",
    "hide gg in (({0}) |[g]| ({0}))",
])
def test_each_operator_decides_on_the_exact_gate_word(shape):
    b = behavior(shape.format(GATE_WORDS), value_sorts={"v": "V"})
    sorts = {s.name: s for s in GATE_WORD_SPEC.sorts}
    got = [(a, pretty_behavior(t)) for a, t in successors(b, GATE_WORD_SPEC)]
    want = [(a, pretty_behavior(t)) for a, t in sos_oracle.steps(b, {}, sorts)]
    assert got == want
    assert_graph_equal(ast.Specification("T", ("g", "gg"), GATE_WORD_SPEC.sorts, (), b))


# ----------------------------------------------------------------------
# golden output: .aut text, state numbering and state forms are pinned


def chain_text(n, m):
    gates = ", ".join(f"g{k}" for k in range(m))
    steps = "; ".join(f"g{k}" for k in range(m))
    top = " ||| ".join(f"C [{gates}]" for _ in range(n))
    return f"""
    specification Chain [{gates}] : noexit :=
      behaviour {top}
      where process C [{gates}] : noexit := {steps}; stop endproc
    endspec
    """


def buffer_text(n, d):
    values = ", ".join(f"d{k}" for k in range(d))
    pipe = "B [c0, c1]"
    for k in range(1, n):
        pipe = f"({pipe}) |[c{k}]| B [c{k}, c{k + 1}]"
    inner = ", ".join(f"c{k}" for k in range(1, n))
    return f"""
    specification Pipe [c0, c{n}] : noexit :=
      sorts D = {{ {values} }}
      behaviour hide {inner} in {pipe}
      where
        process B [inp, out] : noexit := inp ?x: D; out !x; B [inp, out] endproc
    endspec
    """


def philosophers_text(n):
    # philosopher k takes fork k, then fork k+1, and releases both; each
    # fork serves its two neighbours one at a time
    def take(p, f):
        return f"t{p}_{f}"

    def rel(p, f):
        return f"r{p}_{f}"

    phils, forks, gates = [], [], []
    for k in range(n):
        left, right = k, (k + 1) % n
        mine = [take(k, left), take(k, right), rel(k, left), rel(k, right)]
        gates += mine
        phils.append(f"P [{', '.join(mine)}]")
    for f in range(n):
        owner, other = f, (f - 1) % n
        forks.append(f"F [{take(owner, f)}, {rel(owner, f)}, {take(other, f)}, {rel(other, f)}]")
    return f"""
    specification Phil [{', '.join(gates)}] : noexit :=
      behaviour ({' ||| '.join(phils)}) |[{', '.join(gates)}]| ({' ||| '.join(forks)})
      where
        process P [tl, tr, rl, rr] : noexit := tl; tr; rl; rr; P [tl, tr, rl, rr] endproc
        process F [a, b, c, d] : noexit := a; b; F [a, b, c, d] [] c; d; F [a, b, c, d] endproc
    endspec
    """


GOLDEN_SPECS = {
    "chain-3x3": lambda: spec_of(chain_text(3, 3)),
    "chain-2x8": lambda: spec_of(chain_text(2, 8)),
    "buffer-4x2": lambda: spec_of(buffer_text(4, 2)),
    "phil-4": lambda: spec_of(philosophers_text(4)),
    **{name: (lambda name=name: load_spec(name)) for name in LOT_FILES},
}

# sha256 of export_aut(lts) followed by every state's form text, one per line
GOLDEN = {
    "buffer-4x2/hide": "edb1e006b8a56de552b86fee2d73d3805c89a88779366a113a999c676a5c3da3",  # 81 states
    "buffer-4x2/strip": "05138c815377f7300690eb63439f400ff0c784082031b9416dbb109b5395490c",  # 81 states
    "chain-2x8/hide": "354d20ba886615a713a1d52e65acb7cc5877a9264366b426d54046c9d49dc8f6",  # 81 states
    "chain-2x8/strip": "354d20ba886615a713a1d52e65acb7cc5877a9264366b426d54046c9d49dc8f6",  # 81 states
    "chain-3x3/hide": "1660658e9b88212e65066477a6ecaa286e27c7520437dd00eb368df3e2b4ed5a",  # 64 states
    "chain-3x3/strip": "1660658e9b88212e65066477a6ecaa286e27c7520437dd00eb368df3e2b4ed5a",  # 64 states
    "client_server.lot/hide": "cddfb5e04814a6f274e240b9154e702f8df124e90fb7f4c0e8e111c56bfa00f0",  # 4 states
    "client_server.lot/strip": "cddfb5e04814a6f274e240b9154e702f8df124e90fb7f4c0e8e111c56bfa00f0",  # 4 states
    "deadlocked.lot/hide": "70e57509ca402e0484e6ff869f5c31291d583476c3dbf71091420f8098a616af",  # 2 states
    "deadlocked.lot/strip": "70e57509ca402e0484e6ff869f5c31291d583476c3dbf71091420f8098a616af",  # 2 states
    "multicast.lot/hide": "78780b2325a86782ee4aaa629c4a5c0425a08262c031b15bdef64b0698b1aa26",  # 9 states
    "multicast.lot/strip": "e1b8dc069e1fe5b66bd4750ce32e8ec252f9669856cbb734752dea3cd1718b99",  # 9 states
    "multicast_unordered.lot/hide": "d9c630e2641660e52cb24b2095da1f439152e0b4630ee085b178e6db410f7a37",  # 29 states
    "multicast_unordered.lot/strip": "2017226c6f4253798aae2c32f59196a2fde92b1d277c57d1bad707834c0509b9",  # 29 states
    "observer.lot/hide": "03cc674d2888f7ac9fd6c67915c80fdeccf0f2ee73c93b096d67893acce99b06",  # 12 states
    "observer.lot/strip": "03cc674d2888f7ac9fd6c67915c80fdeccf0f2ee73c93b096d67893acce99b06",  # 12 states
    "phil-4/hide": "c81fae6eaf51c3e0f170ec9388402d97b8218679837e3ad2137c1e329c831a98",  # 80 states
    "phil-4/strip": "c81fae6eaf51c3e0f170ec9388402d97b8218679837e3ad2137c1e329c831a98",  # 80 states
}


def golden_digest(lts):
    from lotoskit.verify import export_aut

    text = export_aut(lts) + "\n".join(lts.form_text(s) for s in range(lts.num_states))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("hidden", [True, False], ids=["hide", "strip_hiding"])
@pytest.mark.parametrize("name", sorted(GOLDEN_SPECS))
def test_golden_output(name, hidden):
    spec = GOLDEN_SPECS[name]()
    if not hidden:
        spec = strip_hiding(spec)
    assert golden_digest(generate_lts(spec)) == GOLDEN[f"{name}/{'hide' if hidden else 'strip'}"]


def random_system(seed):
    return gen_system(random.Random(seed))


def system_outcome(spec):
    """.aut text and state forms, or the error exploration stops with."""
    from lotoskit.verify import export_aut

    try:
        lts = generate_lts(spec, ExplorationBudget(max_states=60, max_transitions=600))
    except (BudgetExceededError, UnguardedRecursionError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}\n"
    forms = "\n".join(lts.form_text(s) for s in range(lts.num_states))
    return export_aut(lts) + forms + "\n"


def test_golden_random_systems():
    digest = hashlib.sha256()
    for seed in range(300):
        digest.update(system_outcome(random_system(seed)).encode())
    assert digest.hexdigest() == RANDOM_SYSTEMS_GOLDEN


# sha256 over system_outcome(random_system(seed)) for seeds 0..299
RANDOM_SYSTEMS_GOLDEN = "fcdda839a5927d6dabb48d03dda7afb4b1fa87a48f3a0970620cdbfd8a051732"


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1), st.booleans())
def test_no_state_leaks_between_explorations(seed_a, seed_b, values):
    a = wrap(gen_behavior(random.Random(seed_a), 4, values, sends=True))
    b = wrap(gen_behavior(random.Random(seed_b), 4, values, sends=True), name="Other")
    first = generate_lts(a)
    generate_lts(b)
    again = generate_lts(a)
    assert again == first
    assert [again.form_text(s) for s in range(again.num_states)] == [
        first.form_text(s) for s in range(first.num_states)
    ]
