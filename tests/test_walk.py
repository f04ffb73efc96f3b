"""ast.walk and ast.rebuild against recursive oracles, and the passes
built on them on trees too deep for recursion."""
import random

from hypothesis import given, settings
from hypothesis import strategies as st

import walk_oracle
from behavior_gen import GATES, SORT, gen_behavior, wrap
from lotoskit.semantics import collect_gates, strip_hiding
from lotoskit.syntax import ast, parse_behavior, pretty_behavior


def located(term):
    """term as the parser builds it, every node carrying its span"""
    back, diags = parse_behavior(
        pretty_behavior(term), value_sorts={v: SORT.name for v in SORT.values}
    )
    assert back == term, [str(d) for d in diags]
    return back


def hidden_term(seed, depth):
    rng = random.Random(seed)
    term = gen_behavior(rng, depth, values=True, procs=2, sends=True)
    return ast.Hide(frozenset(rng.sample(GATES, 2)), term)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 6))
def test_walk_is_preorder(seed, depth):
    term = located(hidden_term(seed, depth))
    assert list(map(id, ast.walk(term))) == list(map(id, walk_oracle.preorder(term)))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 6))
def test_identity_rebuild_keeps_the_tree(seed, depth):
    term = located(hidden_term(seed, depth))
    assert ast.rebuild(term, lambda n: n) is term


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 6))
def test_strip_hiding_matches_recursive_strip(seed, depth):
    top, body = located(hidden_term(seed, depth)), located(hidden_term(seed + 1, depth))
    process = ast.ProcessDef("P0", GATES, "noexit", body)
    spec = ast.Specification("S", GATES, (SORT,), (process,), top)
    stripped = strip_hiding(spec)
    for got, want in [
        (stripped.top_behavior, walk_oracle.strip(spec.top_behavior)),
        (stripped.processes[0].body, walk_oracle.strip(body)),
    ]:
        assert got == want
        assert not any(isinstance(n, ast.Hide) for n in ast.walk(got))
        # equality ignores locations, so compare them node by node
        assert [n.loc for n in ast.walk(got)] == [n.loc for n in walk_oracle.preorder(want)]


def test_rebuild_applies_f_bottom_up_left_to_right():
    tree = ast.Choice(ast.Prefix(ast.Comm("a"), ast.Stop()), ast.Exit())
    seen = []

    def f(n):
        seen.append(type(n).__name__)
        return ast.Stop() if isinstance(n, ast.Exit) else n

    out = ast.rebuild(tree, f)
    assert seen == ["Stop", "Prefix", "Exit", "Choice"]
    assert out == ast.Choice(tree.left, ast.Stop())
    assert out.left is tree.left


def test_collect_gates_reads_every_node():
    term = ast.Seq(
        ast.Prefix(ast.Comm("a"), ast.Hide(frozenset({"h"}), ast.Inst("P", ("p",)))),
        ast.Par(ast.Prefix(ast.InternalAction(), ast.Exit()), ast.ParKind.GATES,
                frozenset({"s"}), ast.Disrupt(ast.Stop(), ast.Inst("Q", ("q", "r")))),
    )
    assert collect_gates(term) == {"a", "h", "p", "s", "q", "r"}


def test_deep_trees_need_no_recursion():
    # deeper than the default recursion limit of 1000 on the left spine
    chain = ast.Stop()
    for k in range(3000):
        chain = ast.Prefix(ast.Comm(f"g{k % 3}"), ast.Hide(frozenset({"g0"}), chain))
    deep = ast.Inst("P", ("x",))
    for _ in range(3000):
        deep = ast.Par(deep, ast.ParKind.INTERLEAVE, frozenset(), ast.Inst("P", ("y",)))
    assert sum(1 for _ in ast.walk(chain)) == 6001
    assert ast.rebuild(deep, lambda n: n) is deep
    assert collect_gates(chain) == {"g0", "g1", "g2"}
    assert collect_gates(deep) == {"x", "y"}
    stripped = strip_hiding(wrap(chain)).top_behavior
    assert not any(isinstance(n, ast.Hide) for n in ast.walk(stripped))
    assert pretty_behavior(stripped) == "".join(f"g{k % 3}; " for k in reversed(range(3000))) + "stop"
