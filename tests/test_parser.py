import random
import sys

import pytest

from behavior_gen import GATES, SORT, gen_behavior
from lotoskit.syntax import ast, parse_behavior, parse_spec, pretty_behavior, pretty_spec
from lotoskit.syntax.adlparse import parse_adl
from lotoskit.syntax.asc import parse_asc
from lotoskit.syntax.diagnostics import NESTING_TOO_DEEP
from lotoskit.syntax.lexer import EOF, IDENT, PUNCT, STRING, LexFailure, TokenStream


# ----------------------------------------------------------------------
# lexer


def test_lexer_kinds_and_spans():
    ts = TokenStream("alpha |[ beta\n]| ;")
    tok = ts.next()
    assert tok.kind == IDENT and tok.text == "alpha"
    assert (tok.span.line, tok.span.col) == (1, 1)
    assert ts.next().text == "|["
    beta = ts.next()
    assert (beta.span.line, beta.span.col) == (1, 10)
    assert ts.next().text == "]|"
    assert ts.next().kind == PUNCT
    assert ts.next().kind == EOF


def test_lexer_maximal_munch():
    ts = TokenStream("||| || [> [] [ >>")
    texts = []
    while True:
        tok = ts.next()
        if tok.kind == EOF:
            break
        texts.append(tok.text)
    assert texts == ["|||", "||", "[>", "[]", "[", ">>"]


def test_lexer_rejects_lone_bar():
    ts = TokenStream("a | b")
    ts.next()
    with pytest.raises(LexFailure):
        ts.next()


def test_lexer_nested_comments():
    ts = TokenStream("a (* outer (* inner *) still out *) b /* c /* d */ e */ f")
    assert [ts.next().text for _ in range(3)] == ["a", "b", "f"]


def test_lexer_unterminated_comment():
    with pytest.raises(LexFailure) as exc:
        TokenStream("(* never closed").next()
    assert "unterminated" in exc.value.message


def test_lexer_rejects_stray_character():
    ts = TokenStream("a @ b")
    ts.next()
    with pytest.raises(LexFailure) as exc:
        ts.next()
    assert "@" in exc.value.message


def test_lexer_string_token():
    ts = TokenStream('use "dir/file.lot"')
    assert ts.next().text == "use"
    tok = ts.next()
    assert tok.kind == STRING and tok.text == "dir/file.lot"


def test_lexer_hyphenated_identifier():
    ts = TokenStream("set-state x")
    assert ts.next().text == "set-state"
    assert ts.next().text == "x"


# ----------------------------------------------------------------------
# behaviour expressions


def parse_ok(text, value_sorts=None):
    b, diags = parse_behavior(text, value_sorts=value_sorts)
    assert b is not None and not diags, [str(d) for d in diags]
    return b


def test_prefix_binds_tighter_than_choice():
    b = parse_ok("a; b; stop [] c; stop")
    assert b == ast.Choice(
        ast.Prefix(ast.Comm("a"), ast.Prefix(ast.Comm("b"), ast.Stop())),
        ast.Prefix(ast.Comm("c"), ast.Stop()),
    )


def test_choice_binds_tighter_than_parallel():
    b = parse_ok("a; stop [] b; stop ||| c; stop")
    assert isinstance(b, ast.Par) and b.kind is ast.ParKind.INTERLEAVE
    assert isinstance(b.left, ast.Choice)


def test_parallel_binds_tighter_than_disrupt():
    b = parse_ok("a; stop || b; stop [> c; stop")
    assert isinstance(b, ast.Disrupt)
    assert isinstance(b.left, ast.Par) and b.left.kind is ast.ParKind.FULL


def test_disrupt_binds_tighter_than_enable():
    b = parse_ok("a; stop [> b; stop >> c; stop")
    assert isinstance(b, ast.Seq)
    assert isinstance(b.left, ast.Disrupt)


def test_left_associativity():
    b = parse_ok("a; stop [] b; stop [] c; stop")
    assert isinstance(b, ast.Choice) and isinstance(b.left, ast.Choice)
    s = parse_ok("a; stop >> b; stop >> c; stop")
    assert isinstance(s, ast.Seq) and isinstance(s.left, ast.Seq)


def test_synchronising_parallel_gate_set():
    b = parse_ok("a; stop |[a, b]| b; stop")
    assert isinstance(b, ast.Par) and b.kind is ast.ParKind.GATES
    assert b.gates == frozenset({"a", "b"})


def test_hide_extends_right():
    b = parse_ok("hide a in b; stop [] a; stop")
    assert isinstance(b, ast.Hide) and b.gates == frozenset({"a"})
    assert isinstance(b.body, ast.Choice)


def test_parenthesised_hide_stops_early():
    b = parse_ok("(hide a in a; stop) [] b; stop")
    assert isinstance(b, ast.Choice) and isinstance(b.left, ast.Hide)


def test_bare_names_make_choice_not_gate_list():
    b = parse_ok("P [] Q")
    assert b == ast.Choice(ast.Inst("P"), ast.Inst("Q"))


def test_instantiation_with_gates():
    b = parse_ok("P [a, b]")
    assert b == ast.Inst("P", ("a", "b"))


def test_internal_action_prefix():
    b = parse_ok("i; stop")
    assert b == ast.Prefix(ast.InternalAction(), ast.Stop())


def test_send_resolves_declared_values():
    b = parse_ok("g !v1 !w; stop", value_sorts={"v1": "V"})
    action = b.action
    assert action.offers == (
        ast.Send(ast.ValueLit("v1", "V")),
        ast.Send(ast.VarRef("w")),
    )


def test_receive_offer():
    b = parse_ok("g ?x: V; stop")
    assert b.action.offers == (ast.Receive("x", "V"),)


def test_trailing_garbage_is_an_error():
    b, diags = parse_behavior("a; stop stop")
    assert b is None and diags


def test_missing_semicolon_after_offers():
    b, diags = parse_behavior("g !x stop")
    assert b is None and diags
    assert any("';'" in d.message for d in diags)


def test_long_prefix_chain_parses_at_default_recursion_limit():
    text = "specification S [a] : noexit := behaviour " + "a; " * 3000 + "stop endspec"
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        spec, diags = parse_spec(text)
    finally:
        sys.setrecursionlimit(limit)
    assert spec is not None and diags == []
    b, depth = spec.top_behavior, 0
    while isinstance(b, ast.Prefix):
        assert b.action.gate == "a" and b.loc.col == b.action.loc.col
        b, depth = b.rest, depth + 1
    assert depth == 3000 and isinstance(b, ast.Stop)


def _parse_nested(depth, opener, closer):
    """Each entry point on a behaviour nested depth levels deep, at a fresh
    interpreter's recursion limit: (name, tree or None, diagnostics)."""
    body = opener * depth + "g; stop" + closer * depth
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        spec = parse_spec(f"specification S [g] : noexit := behaviour {body} endspec")
        behaviour = parse_behavior(body)
        config = parse_adl(f"configuration C composition {{ {body} }} end")
    finally:
        sys.setrecursionlimit(limit)
    return [("spec", *spec), ("behaviour", *behaviour), ("adl", *config)]


@pytest.mark.parametrize("opener, closer", [("(", ")"), ("hide g in ", "")])
def test_deep_nesting_is_a_diagnostic(opener, closer):
    for name, tree, diags in _parse_nested(250, opener, closer):
        assert tree is not None and diags == [], name
    for name, tree, diags in _parse_nested(1000, opener, closer):
        assert tree is None, name
        assert [d.code for d in diags] == [NESTING_TOO_DEEP], name
        assert diags[0].message == f"'{opener.split()[0]}' nested too deeply to parse"


def test_deeply_nested_contract_block_parses():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        contract, diags = parse_asc("component C where assert {" + "{" * 3000 + "}" * 3000 + "} end")
    finally:
        sys.setrecursionlimit(limit)
    assert diags == [] and contract.assertion == "{" * 3000 + "}" * 3000


# ----------------------------------------------------------------------
# full specifications


MINIMAL = """
specification S [g] : noexit :=
  behaviour
    g; stop
endspec
"""


def test_minimal_specification():
    spec, _ = parse_spec(MINIMAL)
    assert spec is not None
    assert spec.name == "S"
    assert spec.top_gates == ("g",)
    assert spec.sorts == () and spec.processes == ()


def test_spelling_behavior_also_accepted():
    spec, _ = parse_spec(MINIMAL.replace("behaviour", "behavior"))
    assert spec is not None


def test_keywords_are_case_insensitive():
    text = MINIMAL.replace("specification", "SPECIFICATION").replace("endspec", "EndSpec")
    assert parse_spec(text)[0] is not None


def test_sorts_and_processes():
    text = """
    specification S [g] : noexit :=
      sorts
        V = { v1, v2 }
      behaviour
        P [g]
      where
        process P [h] : noexit :=
          h !v1; P [h]
        endproc
    endspec
    """
    spec, _ = parse_spec(text)
    assert spec is not None
    assert spec.sorts == (ast.SortDecl("V", ("v1", "v2")),)
    assert spec.processes[0].name == "P"
    assert spec.processes[0].formal_gates == ("h",)
    # the send resolved against the declared sort
    body = spec.processes[0].body
    assert body.action.offers == (ast.Send(ast.ValueLit("v1", "V")),)


def test_endprocess_accepted():
    text = MINIMAL.replace(
        "endspec",
        "where process P [h] : noexit := h; stop endprocess endspec",
    )
    assert parse_spec(text)[0] is not None


def test_library_clause_is_rejected():
    text = MINIMAL.replace("behaviour", "library Standard endlib\n  behaviour")
    spec, diags = parse_spec(text)
    assert spec is None
    assert [d.code for d in diags] == ["library-not-supported"]


def test_missing_endspec():
    spec, diags = parse_spec(MINIMAL.replace("endspec", ""))
    assert spec is None
    assert any(d.code == "syntax-error" for d in diags)


def test_garbage_after_endspec():
    spec, _ = parse_spec(MINIMAL + "leftover")
    assert spec is None


def test_error_spans_point_at_the_problem():
    spec, diags = parse_spec("specification S [g] : wrong :=\n  behaviour stop\nendspec")
    assert spec is None
    d = diags[0]
    assert d.span.line == 1
    assert "noexit" in d.message


def test_lex_error_reported_as_diagnostic():
    spec, diags = parse_spec("specification S [g] : noexit := behaviour $ endspec")
    assert spec is None
    assert diags[0].code == "lex-error"


def test_corpus_files_parse(corpus_dir):
    for path in sorted(corpus_dir.glob("*.lot")):
        spec, diags = parse_spec(path.read_text())
        assert spec is not None, (path.name, [str(d) for d in diags])


# ----------------------------------------------------------------------
# printing round trips


def test_printer_parenthesises_looser_operators():
    b = parse_ok("(a; stop ||| b; stop) [] c; stop")
    assert pretty_behavior(b) == "(a; stop ||| b; stop) [] c; stop"


def test_printer_parenthesises_right_nesting():
    b = ast.Choice(ast.Inst("P"), ast.Choice(ast.Inst("Q"), ast.Inst("R")))
    assert pretty_behavior(b) == "P [] (Q [] R)"


def test_printer_keeps_prefix_chains_flat():
    assert pretty_behavior(parse_ok("a; b; c; stop")) == "a; b; c; stop"


def _binary(token, left, right):
    """left op right, built from the operator table alone."""
    _, node, kind = ast.OPERATORS[token]
    if kind is None:
        return node(left, right)
    gates = frozenset({"g"}) if kind is ast.ParKind.GATES else frozenset()
    return ast.Par(left, kind, gates, right)


@pytest.mark.parametrize("second", sorted(ast.OPERATORS))
@pytest.mark.parametrize("first", sorted(ast.OPERATORS))
def test_operator_pairs_follow_the_table(first, second):
    p, q, r = ast.Inst("P"), ast.Inst("Q"), ast.Inst("R")
    if ast.OPERATORS[second][0] > ast.OPERATORS[first][0]:
        tree = _binary(first, p, _binary(second, q, r))
    else:  # equal levels associate to the left
        tree = _binary(second, _binary(first, p, q), r)
    op1, op2 = (token + "g]|" if token == "|[" else token for token in (first, second))
    text = f"P {op1} Q {op2} R"
    back = parse_ok(text)
    assert back == tree
    # each binary node is located at its operator token
    binary = [b for b in (back, *ast.children(back)) if ast.children(b)]
    assert sorted(b.loc.col for b in binary) == [3, 6 + len(op1)]
    assert pretty_behavior(tree) == text


def test_each_node_class_has_one_level():
    levels = {}
    for level, node, _ in ast.OPERATORS.values():
        assert levels.setdefault(node, level) == level, node
    assert max(levels.values()) < ast.PREFIX_LEVEL


def test_random_round_trip_plain():
    rng = random.Random(7)
    for _ in range(200):
        term = gen_behavior(rng, rng.randint(0, 4))
        text = pretty_behavior(term)
        back, diags = parse_behavior(text)
        assert back is not None, (text, [str(d) for d in diags])
        assert back == term, text


def test_random_round_trip_with_offers():
    rng = random.Random(8)
    value_sorts = {v: SORT.name for v in SORT.values}
    for _ in range(200):
        term = gen_behavior(rng, rng.randint(0, 4), values=True)
        text = pretty_behavior(term)
        back, diags = parse_behavior(text, value_sorts=value_sorts)
        assert back is not None, (text, [str(d) for d in diags])
        assert back == term, text


def test_corpus_specs_round_trip(corpus_dir):
    for path in sorted(corpus_dir.glob("*.lot")):
        first, _ = parse_spec(path.read_text())
        text = pretty_spec(first)
        second, _ = parse_spec(text)
        assert second is not None
        assert second == first, path.name
