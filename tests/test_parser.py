import random
import sys
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import parse_oracle
from behavior_gen import GATES, SORT, gen_behavior, gen_system
from lex_oracle import EOF, FAILED, IDENT, PUNCT, STRING, stream_kind
from lotoskit.adl import ArchConfig
from lotoskit.syntax import ast, locate, parse_behavior, parse_spec, pretty_behavior, pretty_spec
from lotoskit.syntax.adlparse import parse_adl
from lotoskit.syntax.asc import parse_asc
from lotoskit.syntax.diagnostics import LEX_ERROR
from lotoskit.syntax.lexer import _DEPTH, TokenStream


# ----------------------------------------------------------------------
# lexer


def texts_to_end(ts):
    """The texts of the tokens from the cursor to EOF."""
    out = []
    while stream_kind(ts) != EOF:
        out.append(ts.text)
        ts.advance()
    return out


def test_lexer_kinds_and_spans():
    ts = TokenStream("alpha |[ beta\n]| ;")
    assert stream_kind(ts) == IDENT and ts.text == "alpha"
    i = ts.advance()
    assert ts.spans((i,))[i][:2] == (1, 1)
    assert ts.text == "|["
    ts.advance()
    i = ts.advance()
    assert ts.spans((i,))[i][:2] == (1, 10)
    assert ts.text == "]|"
    ts.advance()
    assert stream_kind(ts) == PUNCT
    ts.advance()
    assert stream_kind(ts) == EOF


def test_lexer_maximal_munch():
    assert texts_to_end(TokenStream("||| || [> [] [ >>")) == ["|||", "||", "[>", "[]", "[", ">>"]


def test_lexer_rejects_lone_bar():
    ts = TokenStream("a | b")
    ts.advance()
    assert stream_kind(ts) == FAILED and ts.failure.code == LEX_ERROR


def test_lexer_nested_comments():
    ts = TokenStream("a (* outer (* inner *) still out *) b /* c /* d */ e */ f")
    assert texts_to_end(ts) == ["a", "b", "f"]


def test_lexer_unterminated_comment():
    ts = TokenStream("(* never closed")
    assert stream_kind(ts) == FAILED
    assert "unterminated" in ts.failure.message


def test_lexer_rejects_stray_character():
    ts = TokenStream("a @ b")
    ts.advance()
    assert stream_kind(ts) == FAILED
    assert "@" in ts.failure.message


def test_lexer_string_token():
    ts = TokenStream('use "dir/file.lot"')
    assert ts.text == "use"
    ts.advance()
    # the raw token text keeps its quotes; the file name is what is inside
    assert stream_kind(ts) == STRING and ts.text == '"dir/file.lot"'
    assert ts.expect_file_name() == "dir/file.lot"


def test_lexer_hyphenated_identifier():
    assert texts_to_end(TokenStream("set-state x")) == ["set-state", "x"]


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
        assert b.action.gate == "a" and b.loc == b.action.loc
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
def test_deep_nesting_parses(opener, closer):
    # the parser keeps its own stacks, so no recursion limit bounds the
    # depth; the tree is read by a loop and printed, never compared or
    # shown with repr, which recurse once per level
    for name, tree, diags in _parse_nested(5000, opener, closer):
        assert tree is not None and diags == [], name
        b = tree.top_behavior if name == "spec" else tree.composition if name == "adl" else tree
        hides = 0
        while isinstance(b, ast.Hide):
            assert b.gates == frozenset({"g"}), name
            b, hides = b.body, hides + 1
        assert hides == (5000 if opener == "hide g in " else 0), name
        assert pretty_behavior(b) == "g; stop", name


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


def test_empty_gate_list():
    spec, diags = parse_spec(MINIMAL.replace("S [g]", "S []").replace("g; stop", "stop"))
    assert diags == [] and spec.top_gates == ()


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


@pytest.mark.parametrize("reader, text, span, message", [
    (parse_spec, "specification S [g] : noexit := behaviour g; stop", (1, 50),
     "expected 'endspec', found end of input"),
    (parse_spec, "specification S [g] : noexit := behaviour g;", (1, 45),
     "expected a behaviour expression, found end of input"),
    (parse_behavior, "g; stop [] (stop", (1, 17), "expected ')', found end of input"),
    (parse_asc, "component C where sc { exists x . class(", (1, 41), "expected a term, found end of input"),
    (parse_adl, 'configuration C use', (1, 20), "expected a quoted file name, found end of input"),
    (parse_adl, 'configuration C\n  use "a.lot"\n', (3, 1), "missing 'end'"),
    (parse_asc, 'component C where\n  bc B from "b.lot"\n', (3, 1), "missing 'end'"),
])
def test_end_of_input_is_named_in_messages(reader, text, span, message):
    _, diags = reader(text)
    assert [(d.span[:2], d.code, d.message) for d in diags] == [(span, "syntax-error", message)]


@pytest.mark.parametrize("reader, text, span, message", [
    (parse_adl, 'configuration C use "" "" end', (1, 24), 'expected a configuration section, found ""'),
    (parse_asc, 'component C where bc B "x" end', (1, 24), 'expected \'from\', found "x"'),
    (parse_asc, 'component C where bc B x end', (1, 24), "expected 'from', found 'x'"),
    (parse_spec, 'specification S [g] : noexit := behaviour "g"', (1, 43),
     'expected a behaviour expression, found "g"'),
])
def test_string_literals_are_quoted_as_written(reader, text, span, message):
    _, diags = reader(text)
    assert [(d.span[:2], d.code, d.message) for d in diags] == [(span, "syntax-error", message)]


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
    assert sorted(locate(text, b.loc).col for b in binary) == [3, 6 + len(op1)]
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


# ----------------------------------------------------------------------
# the token stream against the per-token parsers of parse_oracle

VALUE_SORTS = {v: SORT.name for v in SORT.values}
READERS = {
    "spec": (parse_spec, parse_oracle.parse_spec),
    "behaviour": (lambda t: parse_behavior(t, VALUE_SORTS),
                  lambda t: parse_oracle.parse_behavior(t, VALUE_SORTS)),
    "adl": (parse_adl, parse_oracle.parse_adl),
    "asc": (parse_asc, parse_oracle.parse_asc),
}
CORPUS = Path(__file__).resolve().parent.parent / "corpus"
CORPUS_TEXTS = tuple(p.read_text() for p in sorted(CORPUS.rglob("*"))
                     if p.suffix in (".lot", ".adl", ".asc"))
# pieces that break a text, open or close a comment, string or block, or
# read well in one notation and not in another
SNIPPETS = (
    "@", "$", '"', '"x.lot"', "(*", "*)", "/*", "*/", "{", "}", "(", ")", ";", "[]", "|[",
    "]|", "!", "?", ":", "hide", "stop", "exit", "end", "endspec", "i", "exists", "and",
    "assert { @ # \"x }", "composition { a; stop }", "sc { class(x) }", "\n", " ",
)


@st.composite
def parser_texts(draw):
    """A printed random term or system, or a corpus file, then up to three
    truncations or insertions of SNIPPETS at random offsets."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    source = draw(st.sampled_from(("term", "system", "corpus")))
    if source == "term":
        text = pretty_behavior(gen_behavior(rng, rng.randint(0, 4), values=True, procs=2))
    elif source == "system":
        text = pretty_spec(gen_system(rng))
    else:
        text = draw(st.sampled_from(CORPUS_TEXTS))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        if draw(st.booleans()):
            text = text[:at]
        else:
            text = text[:at] + draw(st.sampled_from(SNIPPETS)) + text[at:]
    return text


def behaviour_nodes(b):
    """Each behaviour node of b in ast.walk order, with its action, offers
    and sent values."""
    out = []
    for node in ast.walk(b):
        out.append(node)
        if isinstance(node, ast.Prefix):
            out.append(node.action)
            for offer in getattr(node.action, "offers", ()):
                out.append(offer)
                if isinstance(offer, ast.Send):
                    out.append(offer.expr)
    return out


def node_locs(value, text=None):
    """The loc of every node of a reader's value: its behaviour nodes, and
    the specification's, sorts' and processes' own.  A contract has none.

    The per-token parsers' nodes hold spans.  With text, the value is a
    reader's: each loc must be a token index, and is resolved to a span
    through the text its definition keeps (a bare behaviour's is text)."""

    def at(nodes, source):
        if text is None:
            return [node.loc for node in nodes]
        assert all(type(node.loc) is int for node in nodes)
        return [locate(source, node.loc) for node in nodes]

    if isinstance(value, ast.Specification):
        out = at([value], value._source)
        for s in value.sorts:
            out += at([s], s._source)
        for p in value.processes:
            out += at([p, *behaviour_nodes(p.body)], p._source)
        return out + at(behaviour_nodes(value.top_behavior), value._source)
    if isinstance(value, ArchConfig):
        return at(behaviour_nodes(value.composition), value._source)
    if isinstance(value, ast.Behavior):
        return at(behaviour_nodes(value), text)
    return []


def read_both(reader, text):
    new, oracle = READERS[reader]
    value, diags = new(text)
    want_value, want_diags = oracle(text)
    return (value, node_locs(value, text), diags), (want_value, node_locs(want_value), want_diags)


@settings(max_examples=500, deadline=None)
@given(parser_texts())
def test_every_reader_agrees_with_the_per_token_parsers(text):
    for reader in READERS:
        got, want = read_both(reader, text)
        assert got == want, reader


def test_corpus_parses_as_the_per_token_parsers_parse():
    for text in CORPUS_TEXTS:
        for reader in READERS:
            got, want = read_both(reader, text)
            assert got == want, (reader, text)


DEEP = "(*" * (_DEPTH + 1) + " deep " + "*)" * (_DEPTH + 1)
# per token reader: a text whose diagnostics lie past a comment nested
# past the token pattern's depth, with their codes, and a clean text
ONE_PASS = {
    # an assert block, then 200 conjuncts of unknown predicates and wrong
    # arities, and a duplicated and an unused variable
    "asc": (f"component C where\n  assert {{ free {{ text }} }}\n  {DEEP}\n"
            "  sc { exists x, y, x, z .\n    "
            + " and\n    ".join(["bogus(x)", "class(x, y)", "inherit(y)", "class(x)"][k % 4]
                                 for k in range(200)) + " }\nend\n",
            {"unknown-predicate": 50, "bad-arity": 100, "duplicate-definition": 1,
             "unknown-query-variable": 1},
            (CORPUS / "observer.asc").read_text()),
    "spec": (f"specification S [g] : noexit :=\n  behaviour {DEEP}\n  g; ; stop\nendspec\n",
             {"syntax-error": 1}, (CORPUS / "client_server.lot").read_text()),
    # a lex failure, where the parser wants an operand
    "behaviour": (f"g; {DEEP}\n  h; stop |||\n  @", {"lex-error": 1}, "g; stop"),
    # no composition: an error at "end"
    "adl": (f"configuration K\n  components {{ c = C [a] }}\n  {DEEP}\nend\n",
            {"syntax-error": 1}, (CORPUS / "client_server.adl").read_text()),
}


@pytest.mark.parametrize("reader", ONE_PASS)
def test_each_reader_locates_all_its_diagnostics_in_one_pass(reader):
    """The per-token parser's diagnostics, located by one call of
    TokenStream.spans; a clean text makes one call too."""
    text, codes, clean = ONE_PASS[reader]
    calls = []
    spans = TokenStream.spans

    def counting(ts, indices):
        calls.append(indices)
        return spans(ts, indices)

    read = READERS[reader][0]
    with mock.patch.object(TokenStream, "spans", counting):
        value, diags = read(text)
        assert len(calls) == 1
        assert read(clean)[1] == [] and len(calls) == 2
    assert value is None
    assert Counter(d.code for d in diags) == codes
    assert diags == READERS[reader][1](text)[1]


def test_expected_brace_spans_the_token_found():
    _, diags = parse_asc("component C where assert abc end")
    assert [(tuple(d.span), d.code, d.message) for d in diags] == [
        ((1, 26, 1, 29), "lex-error", "expected '{'")]


# every comma list of an .asc or .adl file, read by one rule
LIST_KINDS = {
    "names": ("asc", "processes { A, B, }", "a name"),
    "ports": ("asc", "in_ports { p: A, }", "a name"),
    "messages": ("asc", "out_msgs { m -> p, }", "a name"),
    "flows": ("asc", "flows { m: r -> p, }", "a message name"),
    "bindings": ("adl", "c = C [a], d = D [b],", "an instance name"),
}


@pytest.mark.parametrize("kind", LIST_KINDS)
def test_no_list_takes_a_trailing_comma(kind):
    reader, entries, what = LIST_KINDS[kind]
    if reader == "asc":
        text = f"component K where\n  ic {{ {entries} }}\nend\n"
    else:
        text = f"configuration K\n  components {{ {entries} }}\n  composition {{ c ||| d }}\nend\n"
    value, diags = READERS[reader][0](text)
    assert value is None
    assert [(d.code, d.message) for d in diags] == [("syntax-error", f"expected {what}, found '}}'")]
    # at the "}" after the comma
    assert (diags[0].span.line, diags[0].span.col) == (2, text.splitlines()[1].index(", }") + 3)
    got, want = read_both(reader, text)
    assert got == want
    # without the trailing comma the list reads
    assert READERS[reader][0](text.replace(", }", " }"))[1] == []


# ----------------------------------------------------------------------
# a lex failure is raised only where the parser reaches it


@pytest.mark.parametrize("bad", ["@", "(* open"])
def test_syntax_error_before_a_lex_error_wins(bad):
    text = f"specification S [g] : noexit := behaviour g; ; stop\n endspec {bad}"
    spec, diags = parse_spec(text)
    assert spec is None
    assert [(d.code, d.span[:2]) for d in diags] == [("syntax-error", (1, 46))]
    # with the syntax error mended, the lex error is what is reported
    _, diags = parse_spec(text.replace("; ;", ";"))
    assert [d.code for d in diags] == ["lex-error"]


def test_assert_block_is_raw_text_and_what_follows_parses():
    contract, diags = parse_asc('component C where assert { @ # "x } bc none end')
    assert diags == []
    assert contract.assertion == '@ # "x' and contract.bc is None
    _, diags = parse_asc('component C where assert { @ # "x } bc none end @')
    assert [(d.code, d.message) for d in diags] == [("lex-error", "unexpected character '@'")]


def test_a_lex_error_inside_a_comment_is_no_error():
    for text in ("g; (* @ \" $ *) stop", "g; /* \" (* */ stop", "g; (* a (* @ *) \" *) stop"):
        b, diags = parse_behavior(text)
        assert diags == [] and b == ast.Prefix(ast.Comm("g", ()), ast.Stop()), text
