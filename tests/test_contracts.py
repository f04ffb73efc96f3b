import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import query_oracle
from lotoskit import (
    ContractCheckError,
    check_asc,
    check_interface,
    eval_query,
    parse_asc,
    parse_facts,
)
from lotoskit.contracts import Atom, Const, InterfaceContract, Query, Var
from lotoskit.contracts import PREDICATES


# ----------------------------------------------------------------------
# fact bases


def test_parse_facts_basic():
    fb, diags = parse_facts(
        "% static structure\n"
        "class(A).\n"
        "inherit(B, A)\n"          # trailing dot optional
        "invoke(A, B, m, void). % call\n"
        "  associate( B ,A )  .  \n"   # blanks around arguments and dot
        "class(A)\n"              # a fact twice is one fact
    )
    assert not diags
    assert {p: fb.rows(p) for p in PREDICATES if fb.rows(p)} == {
        "class": [("A",)],
        "inherit": [("B", "A")],
        "invoke": [("A", "B", "m", "void")],
        "associate": [("B", "A")],
    }


def test_parse_facts_reports_every_problem():
    fb, diags = parse_facts(
        "classs(A).\n"             # unknown predicate
        "inherit(A).\n"            # wrong arity
        "not a fact\n"             # unparseable
        "class(B).\n"
    )
    assert [d.code for d in diags] == ["unknown-predicate", "bad-arity", "syntax-error"]
    assert fb is None


def test_parse_facts_empty_argument():
    _, diags = parse_facts("inherit(A, ).\n")
    assert [d.code for d in diags] == ["bad-arity"]


def test_parse_facts_diagnostics_are_pinned():
    _, diags = parse_facts(
        "% a comment line\n"
        "class(A). % a comment after a fact\n"
        "class(B)\n"
        "not a fact % with a comment\n"
        "classs(A).\n"
        "inherit(A).\n"
        "inherit(A, ).\n"
        "invoke( , B, m, r)\n"
        "class( )\n"
        "class(A, B) % too many\n"
    )
    assert [(d.span, d.code, d.message) for d in diags] == [
        ((4, 1, 4, 2), "syntax-error", "cannot read fact: 'not a fact'"),
        ((5, 1, 5, 2), "unknown-predicate", "unknown predicate 'classs'"),
        ((6, 1, 6, 2), "bad-arity", "'inherit' takes 2 argument(s)"),
        ((7, 1, 7, 2), "bad-arity", "'inherit' takes 2 argument(s)"),
        ((8, 1, 8, 2), "bad-arity", "'invoke' takes 4 argument(s)"),
        ((9, 1, 9, 2), "bad-arity", "'class' takes 1 argument(s)"),
        ((10, 1, 10, 2), "bad-arity", "'class' takes 1 argument(s)"),
    ]


# every character str.splitlines breaks a line at, "\r\n" as one break
FACT_BREAKS = ("\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
FACT_PIECES = (
    "class", "inherit", "invoke", "classs", "_x", "9", "(", ")", "A", "B", ",", " , ", ".",
    "%", "% note", " ", "\t", "\xa0", "\x1f", "", "x y", "é",
)


@st.composite
def fact_texts(draw):
    """Lines of facts, well formed or mangled, joined by any line break,
    with blanks and comments anywhere."""
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.booleans()):
            pred = draw(st.sampled_from(("class", "inherit", "invoke", "classs")))
            args = draw(st.lists(st.sampled_from(("A", " B ", "", "m", "\xa0C", "% D", "E\x85")), max_size=4))
            tail = draw(st.sampled_from(("", ".", " . ", " % c", ". x", ")")))
            line = draw(st.sampled_from(("", " ", "\t"))) + f"{pred} ( {','.join(args)}){tail}"
        else:
            line = "".join(draw(st.lists(st.sampled_from(FACT_PIECES), max_size=8)))
        lines.append(line)
    text = "".join(line + draw(st.sampled_from(FACT_BREAKS)) for line in lines)
    return text[:-1] if text and draw(st.booleans()) else text


def facts_or_diagnostics(reader, text):
    fb, diags = reader(text)
    return diags if fb is None else [(p, row) for p in PREDICATES for row in fb.rows(p)]


@settings(max_examples=500, deadline=None)
@given(fact_texts())
def test_parse_facts_agrees_with_the_per_line_reader(text):
    assert facts_or_diagnostics(parse_facts, text) == facts_or_diagnostics(query_oracle.parse_facts, text)


def test_rows_sorted():
    fb, _ = parse_facts("class(Zeta).\nclass(Alpha).\n")
    assert fb.rows("class") == [("Alpha",), ("Zeta",)]
    assert fb.rows("inherit") == []


# ----------------------------------------------------------------------
# query evaluation


def base(*lines):
    fb, diags = parse_facts("\n".join(lines))
    assert not diags
    return fb


OBSERVER_FACTS = base(
    "abstract_class(Subject).",
    "abstract_class(Observer).",
    "class(ConcreteSubject).",
    "class(ConcreteObserver).",
    "inherit(ConcreteSubject, Subject).",
    "inherit(ConcreteObserver, Observer).",
    "associate(Subject, Observer).",
)


def q(variables, *atoms):
    return Query(tuple(variables), tuple(atoms))


def a(pred, *terms):
    return Atom(pred, tuple(Var(t) if t.islower() else Const(t) for t in terms))


def test_join_query_backtracks():
    # lexicographically Observer comes first for abstract_class, but only
    # Subject satisfies the associate conjunct, so the search must back up
    query = q(["s", "o"], a("abstract_class", "s"), a("associate", "s", "o"))
    assert eval_query(OBSERVER_FACTS, query) == {"s": "Subject", "o": "Observer"}


def test_constant_filter():
    query = q(["x"], a("inherit", "x", "Subject"))
    assert eval_query(OBSERVER_FACTS, query) == {"x": "ConcreteSubject"}


def test_unsatisfiable():
    query = q(["x"], a("inherit", "Subject", "x"))
    assert eval_query(OBSERVER_FACTS, query) is None


def test_repeated_variable_must_agree():
    fb = base("associate(A, B).", "associate(C, C).")
    query = q(["x"], a("associate", "x", "x"))
    assert eval_query(fb, query) == {"x": "C"}


def test_ground_query():
    query = q([], a("class", "ConcreteSubject"))
    assert eval_query(OBSERVER_FACTS, query) == {}
    assert eval_query(OBSERVER_FACTS, q([], a("class", "Subject"))) is None


def test_eval_is_deterministic():
    query = q(["s", "o"], a("abstract_class", "s"), a("abstract_class", "o"))
    first = eval_query(OBSERVER_FACTS, query)
    assert first == eval_query(OBSERVER_FACTS, query)
    assert first == {"s": "Observer", "o": "Observer"}  # lexicographic facts


def random_instance(rng):
    """A fact base of up to 12 facts and a query of up to 4 conjuncts."""
    consts = ["A", "B", "C", "D"]
    preds = ["class", "inherit", "associate", "invoke"]
    facts = []
    for _ in range(rng.randint(1, 12)):
        pred = rng.choice(preds)
        facts.append((pred, tuple(rng.choice(consts) for _ in range(PREDICATES[pred]))))
    variables = ["x", "y", "z"][: rng.randint(1, 3)]
    atoms = []
    for _ in range(rng.randint(1, 4)):
        pred = rng.choice(preds)
        terms = tuple(
            Var(rng.choice(variables)) if rng.random() < 0.6 else Const(rng.choice(consts))
            for _ in range(PREDICATES[pred])
        )
        atoms.append(Atom(pred, terms))
    used = {t.name for atom in atoms for t in atom.args if isinstance(t, Var)}
    variables = [v for v in variables if v in used]
    if not variables:
        atoms.append(Atom("class", (Var("x"),)))
        variables = ["x"]
    return fact_base(facts), Query(tuple(variables), tuple(atoms))


def test_agrees_with_brute_force_enumeration():
    rng = random.Random(31)
    for _ in range(200):
        fb, query = random_instance(rng)
        witness = eval_query(fb, query)
        solutions = query_oracle.all_solutions(fb, query)
        if witness is None:
            assert solutions == []
        else:
            assert witness in solutions


CONSTANTS = ("A", "B", "C")
# abstract_aspect is never in a generated base
QUERY_PREDICATES = ("class", "aspect", "inherit", "associate", "new", "abstract_aspect")


def _terms(predicate, term):
    width = PREDICATES[predicate]
    return st.tuples(*[term] * width).map(lambda args: (predicate, args))


facts_lists = st.lists(
    st.sampled_from(QUERY_PREDICATES[:-1])
    .flatmap(lambda p: _terms(p, st.sampled_from(CONSTANTS))),
    max_size=12,
)


@st.composite
def queries(draw):
    term = st.one_of(
        st.sampled_from(CONSTANTS).map(Const), st.sampled_from(("x", "y", "z")).map(Var)
    )
    atoms = draw(
        st.lists(
            st.sampled_from(QUERY_PREDICATES).flatmap(lambda p: _terms(p, term)).map(lambda pa: Atom(*pa)),
            min_size=1,
            max_size=4,
        )
    )
    # as parse_asc makes them: every declared variable occurs
    used = list(dict.fromkeys(t.name for atom in atoms for t in atom.args if isinstance(t, Var)))
    return Query(tuple(draw(st.permutations(used))), tuple(atoms))


def in_order(witness):
    return None if witness is None else list(witness.items())


def fact_base(facts):
    """The fact base of (predicate, arguments) pairs, read from their text."""
    return base(*(f"{p}({', '.join(args)})." for p, args in facts))


@settings(max_examples=400, deadline=None)
@given(facts_lists, queries())
@example([], q(["x"], a("class", "x")))  # empty base
@example([("class", ("A",))], q([], a("class", "B")))  # constant, no witness
@example(  # a constant picks two facts, met in order
    [("associate", ("A", "C")), ("associate", ("B", "A")), ("associate", ("A", "B"))],
    q(["y"], a("associate", "A", "y")),
)
@example(  # a variable repeated inside one atom
    [("associate", ("A", "B")), ("associate", ("C", "C"))], q(["x"], a("associate", "x", "x"))
)
@example(  # variables shared across atoms
    [("inherit", ("C", "B")), ("inherit", ("B", "A")), ("inherit", ("C", "A")), ("class", ("C",))],
    q(["y", "x"], a("class", "x"), a("inherit", "x", "y")),
)
@example([("class", ("A",))], q(["x"], a("class", "x"), a("abstract_aspect", "x")))  # absent
def test_agrees_with_first_witness(facts, query):
    fb = fact_base(facts)
    assert in_order(eval_query(fb, query)) == in_order(query_oracle.first_witness(fb, query))


# ----------------------------------------------------------------------
# interface rules


CLEAN_IC = InterfaceContract(
    participants=("A", "B"),
    in_ports=(("pin", "A"),),
    out_ports=(("pout", "B"),),
    in_msgs=(("m", "pin"), ("ext", "pin")),
    out_msgs=(("m", "pout"),),
    external_in=("ext",),
    flows=(("m", "pout", "pin"),),
)


def violation_codes(ic):
    return [v.code for v in check_interface(ic)]


def test_clean_interface():
    assert check_interface(CLEAN_IC) == []


def test_c1_duplicate_input_port():
    ic = InterfaceContract(
        participants=("A",),
        in_ports=(("p", "A"), ("p", "A")),
    )
    assert violation_codes(ic) == ["C1"]


def test_c2_duplicate_output_port():
    ic = InterfaceContract(
        participants=("A",),
        out_ports=(("p", "A"), ("p", "A")),
    )
    assert violation_codes(ic) == ["C2"]


def test_c3_unproduced_input_message():
    ic = InterfaceContract(
        participants=("A",),
        in_ports=(("pin", "A"),),
        in_msgs=(("m", "pin"),),
    )
    assert violation_codes(ic) == ["C3"]


def test_c3_satisfied_by_external_feed():
    ic = InterfaceContract(
        participants=("A",),
        in_ports=(("pin", "A"),),
        in_msgs=(("m", "pin"),),
        external_in=("m",),
    )
    assert violation_codes(ic) == []


def test_c4_unconsumed_output_message():
    ic = InterfaceContract(
        participants=("A",),
        out_ports=(("pout", "A"),),
        out_msgs=(("m", "pout"),),
    )
    assert violation_codes(ic) == ["C4"]


def test_unknown_owner():
    ic = InterfaceContract(
        participants=("A",),
        in_ports=(("p", "Ghost"),),
    )
    assert violation_codes(ic) == ["unknown-owner"]


def test_unknown_port_in_message():
    ic = InterfaceContract(
        participants=("A",),
        in_msgs=(("m", "ghost"),),
        external_in=("m",),
    )
    assert violation_codes(ic) == ["unknown-port"]


def test_unknown_owner_and_port_on_the_output_side():
    ic = InterfaceContract(
        participants=("A",),
        in_ports=(("pin", "A"),),
        out_ports=(("p", "Ghost"),),
        in_msgs=(("m", "pin"),),
        out_msgs=(("m", "ghost"),),
    )
    assert [(v.code, v.message) for v in check_interface(ic)] == [
        ("unknown-owner", "output port 'p' belongs to unknown participant 'Ghost'"),
        ("unknown-port", "output message 'm' names missing output port 'ghost'"),
    ]


def test_bad_flow_ends():
    ic = InterfaceContract(
        participants=("A",),
        in_ports=(("pin", "A"),),
        out_ports=(("pout", "A"),),
        in_msgs=(("m", "pin"),),
        out_msgs=(("m", "pout"),),
        flows=(("m", "pin", "pout"),),  # reversed direction
    )
    assert violation_codes(ic) == ["bad-flow", "bad-flow"]


def test_duplicate_message_reported_once():
    ic = InterfaceContract(
        participants=("A",),
        in_ports=(("p1", "A"), ("p2", "A")),
        in_msgs=(("m", "p1"), ("m", "p2")),
    )
    assert violation_codes(ic) == ["C3"]


def test_message_violations_in_first_declaration_order():
    ic = InterfaceContract(
        participants=("A",),
        in_ports=(("pin", "A"),),
        out_ports=(("pout", "A"),),
        in_msgs=(("z", "pin"), ("b", "pin"), ("z", "pin"), ("a", "pin")),
        out_msgs=(("y", "pout"), ("c", "pout"), ("y", "pout")),
    )
    assert [v.message.split("'")[1] for v in check_interface(ic)] == ["z", "b", "a", "y", "c"]


# ----------------------------------------------------------------------
# contract files


def test_parse_observer_contract(corpus_dir):
    contract, diags = parse_asc((corpus_dir / "observer.asc").read_text())
    assert contract is not None and not diags
    assert contract.name == "ObserverContract"
    assert "state change" in contract.assertion
    assert contract.sc.variables == ("s", "o", "cs", "co")
    assert len(contract.sc.atoms) == 5
    assert contract.ic.participants == (
        "aConcreteSubject", "aConcreteObserver", "anotherConcreteObserver",
    )
    assert ("change", "input") in contract.ic.in_msgs
    assert contract.ic.external_in == ("change",)
    assert contract.bc.name == "ObserverPattern"
    assert contract.bc.path == "observer.lot"


def asc(text):
    return parse_asc(f"component C where\n{text}\nend")


def test_section_appears_at_most_once():
    contract, diags = asc("bc none\nbc none")
    assert contract is None
    assert any("twice" in d.message for d in diags)


def test_duplicate_query_variable():
    contract, diags = asc("  sc { exists x, x . class(x) }")
    assert contract is None
    # at the second x
    assert [(d.span, d.code) for d in diags] == [((2, 18, 2, 19), "duplicate-definition")]


def test_unused_query_variable():
    contract, diags = asc("  sc { exists x, y .\n class(x) }")
    assert contract is None
    # where y is declared
    assert [(d.span, d.code) for d in diags] == [((2, 18, 2, 19), "unknown-query-variable")]


def test_unknown_predicate_in_query():
    contract, diags = asc("sc { exists x . klass(x) }")
    assert contract is None
    assert any(d.code == "unknown-predicate" for d in diags)


def test_wrong_arity_in_query():
    contract, diags = asc("sc { exists x . inherit(x) }")
    assert contract is None
    assert any(d.code == "bad-arity" for d in diags)


def test_duplicate_ic_section():
    contract, diags = asc("ic {\nprocesses { A }\nprocesses { B }\n}")
    assert contract is None
    assert any(d.code == "malformed-ic" for d in diags)


def test_bc_none():
    contract, diags = asc("bc none")
    assert contract is not None and not diags
    assert contract.bc is None


def test_assertion_kept_verbatim():
    contract, _ = asc("assert { anything goes here, even [ brackets ] }")
    assert contract.assertion == "anything goes here, even [ brackets ]"


# ----------------------------------------------------------------------
# whole-contract checking


def observer_contract(corpus_dir):
    contract, _ = parse_asc((corpus_dir / "observer.asc").read_text())
    return contract


def observer_facts(corpus_dir):
    fb, diags = parse_facts((corpus_dir / "observer.facts").read_text())
    assert not diags
    return fb


def test_observer_contract_holds(corpus_dir):
    report = check_asc(
        observer_contract(corpus_dir),
        observer_facts(corpus_dir),
        base_dir=corpus_dir,
    )
    assert report.ok
    assert report.sc_witness == {
        "s": "Subject", "o": "Observer",
        "cs": "ConcreteSubject", "co": "ConcreteObserver",
    }
    assert report.ic_violations == []
    assert report.bc_result.ok
    assert report.lines()[0] == "contract ObserverContract: ok"


def test_structural_query_needs_facts(corpus_dir):
    with pytest.raises(ContractCheckError):
        check_asc(observer_contract(corpus_dir), None, base_dir=corpus_dir)


def test_failing_query_is_a_clean_failure(corpus_dir):
    fb = base("class(Lonely).")
    report = check_asc(observer_contract(corpus_dir), fb, base_dir=corpus_dir)
    assert not report.ok
    assert report.sc_checked and report.sc_witness is None
    assert any("no witness" in line for line in report.lines())


def test_missing_behaviour_file(tmp_path):
    contract, _ = parse_asc('component C where\nbc B from "gone.lot"\nend')
    with pytest.raises(ContractCheckError):
        check_asc(contract, base_dir=tmp_path)


def test_broken_behaviour_file(tmp_path):
    (tmp_path / "bad.lot").write_text("specification X [")
    contract, _ = parse_asc('component C where\nbc B from "bad.lot"\nend')
    with pytest.raises(ContractCheckError):
        check_asc(contract, base_dir=tmp_path)


def test_deadlocking_behaviour_fails_cleanly(tmp_path, corpus_dir):
    text = (corpus_dir / "deadlocked.lot").read_text()
    (tmp_path / "dead.lot").write_text(text)
    contract, _ = parse_asc('component C where\nbc B from "dead.lot"\nend')
    report = check_asc(contract, base_dir=tmp_path)
    assert not report.ok
    assert report.bc_result is not None and not report.bc_result.ok
    assert report.bc_result.trace == ["b"]


def mutation_codes(corpus_dir, name):
    contract, diags = parse_asc((corpus_dir / "mutations" / name).read_text())
    if contract is None:
        return [d.code for d in diags]
    report = check_asc(contract, observer_facts(corpus_dir), base_dir=corpus_dir / "mutations")
    assert not report.ok
    return [v.code for v in report.ic_violations]


def test_mutation_duplicate_in_port(corpus_dir):
    assert mutation_codes(corpus_dir, "observer_dup_in_port.asc") == ["C1"]


def test_mutation_change_not_external(corpus_dir):
    codes = mutation_codes(corpus_dir, "observer_change_not_external.asc")
    assert codes == ["C3"]


def test_mutation_notify_unproduced(corpus_dir):
    codes = mutation_codes(corpus_dir, "observer_notify_unproduced.asc")
    assert codes == ["C3"]


def test_mutation_misspelled_predicate(corpus_dir):
    codes = mutation_codes(corpus_dir, "observer_bad_predicate.asc")
    assert "unknown-predicate" in codes


@pytest.mark.parametrize("behaviour, shown", [("stop", "<empty>"), ("a; a; stop", "a ; a")])
def test_a_failing_bc_trace_prints_as_verify_prints_it(tmp_path, behaviour, shown):
    (tmp_path / "b.lot").write_text(
        f"specification X [a] : noexit :=\n  behaviour {behaviour}\nendspec\n")
    contract, _ = parse_asc('component C where\nbc B from "b.lot"\nend')
    report = check_asc(contract, base_dir=tmp_path)
    assert report.lines()[-1] == f"  bc: trace {shown}"
