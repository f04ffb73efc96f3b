import random
import sys

from behavior_gen import GATES, SORT, gen_behavior
from lotoskit.semantics import strip_hiding
from lotoskit.syntax import ast, parse_spec, pretty_spec, validate_spec


def check(text):
    spec, diags = parse_spec(text)
    assert spec is not None, [str(d) for d in diags]
    return validate_spec(spec)


def codes(diags):
    return [d.code for d in diags]


def spec_with(behaviour, sorts="", where=""):
    sorts_block = f"sorts\n {sorts}\n" if sorts else ""
    where_block = f"where\n {where}\n" if where else ""
    return (
        f"specification S [g, h] : noexit :=\n"
        f"{sorts_block} behaviour\n {behaviour}\n{where_block}endspec\n"
    )


def test_clean_spec_has_no_diagnostics():
    assert check(spec_with("g; h; stop")) == []


def test_clean_corpus(corpus_dir):
    for path in sorted(corpus_dir.glob("*.lot")):
        spec, _ = parse_spec(path.read_text())
        assert validate_spec(spec) == [], path.name


def test_duplicate_sort():
    diags = check(spec_with("g; stop", sorts="A = { x }\n A = { y }"))
    assert codes(diags) == ["duplicate-definition"]
    assert "sort 'A'" in diags[0].message


def test_duplicate_value_across_sorts():
    # values resolve "!v" offers without a sort annotation, hence global
    diags = check(spec_with("g; stop", sorts="A = { x }\n B = { x }"))
    assert codes(diags) == ["duplicate-definition"]
    assert "value 'x'" in diags[0].message


def test_duplicate_process():
    where = "process P [a] : noexit := a; stop endproc\n" \
            "process P [a] : noexit := a; stop endproc"
    diags = check(spec_with("g; stop", where=where))
    assert codes(diags) == ["duplicate-definition"]


def test_arity_is_checked_against_the_first_of_two_definitions():
    # exploration and adl unfold the first definition of a process
    where = "process P [a] : noexit := a; stop endproc\n" \
            "process P [a, b] : noexit := a; b; stop endproc"
    diags = check(spec_with("P [g]", where=where))
    assert [d.message for d in diags] == ["process 'P' is defined twice"]
    diags = check(spec_with("P [g, h]", where=where))
    assert [d.message for d in diags] == ["process 'P' is defined twice",
                                          "process 'P' takes 1 gate(s), got 2"]


def test_duplicate_formal_gate():
    where = "process P [a, a] : noexit := a; stop endproc"
    diags = check(spec_with("g; stop", where=where))
    assert codes(diags) == ["duplicate-definition"]


def test_unknown_process():
    diags = check(spec_with("P [g]"))
    assert codes(diags) == ["unknown-process"]


def test_gate_arity_mismatch():
    where = "process P [a, b] : noexit := a; b; stop endproc"
    diags = check(spec_with("P [g]", where=where))
    assert codes(diags) == ["gate-arity-mismatch"]


def test_unknown_gate_in_action():
    diags = check(spec_with("q; stop"))
    assert codes(diags) == ["unknown-gate"]
    assert "'q'" in diags[0].message


def test_unknown_gate_in_instantiation():
    where = "process P [a] : noexit := a; stop endproc"
    diags = check(spec_with("P [q]", where=where))
    assert codes(diags) == ["unknown-gate"]


def test_unknown_gate_in_sync_set():
    diags = check(spec_with("g; stop |[q]| h; stop"))
    # the sync set names it, and so does the left operand? no: only the set
    assert codes(diags) == ["unknown-gate"]


def test_hidden_gate_is_in_scope():
    assert check(spec_with("hide q in q; g; stop")) == []


def test_formal_gates_scope_the_body():
    where = "process P [a] : noexit := g; stop endproc"
    diags = check(spec_with("g; stop", where=where))
    # g is a top gate but not a formal of P, so inside P it is unknown
    assert codes(diags) == ["unknown-gate"]


def test_unknown_sort_in_receive():
    diags = check(spec_with("g ?x: NOPE; stop"))
    assert codes(diags) == ["unknown-sort"]


def test_unbound_variable_in_send():
    diags = check(spec_with("g !x; stop"))
    assert codes(diags) == ["unbound-variable"]


def test_receive_binds_later_sends():
    text = spec_with("g ?x: A; h !x; stop", sorts="A = { v }")
    assert check(text) == []


def test_send_before_receive_of_same_name_is_unbound():
    text = spec_with("g !x ?x: A; stop", sorts="A = { v }")
    assert codes(check(text)) == ["unbound-variable"]


def test_send_after_receive_in_same_action_is_bound():
    text = spec_with("g ?x: A !x; stop", sorts="A = { v }")
    assert check(text) == []


def test_binding_is_per_branch():
    text = spec_with("(g ?x: A; stop) [] h !x; stop", sorts="A = { v }")
    assert codes(check(text)) == ["unbound-variable"]


def test_receive_shadowing_a_value():
    text = spec_with("g ?v: A; stop", sorts="A = { v }")
    assert codes(check(text)) == ["shadows-value"]


def test_internal_action_with_offers():
    diags = check(spec_with("i !x; stop"))
    assert codes(diags) == ["internal-action-offers"]


def test_reserved_name_i():
    where = "process i [a] : noexit := a; stop endproc"
    diags = check(spec_with("g; stop", where=where))
    assert "reserved-name" in codes(diags)

    diags = check(spec_with("g; stop", sorts="A = { i }"))
    assert "reserved-name" in codes(diags)

    diags = check(spec_with("hide i in g; stop"))
    assert "reserved-name" in codes(diags)


def test_reserved_gate_name_exit():
    # a gate called exit would offer a step labelled like termination
    text = spec_with("g; stop").replace("[g, h]", "[g, exit]")
    assert codes(check(text)) == ["reserved-name"]

    diags = check(spec_with("hide exit in g; stop"))
    assert codes(diags) == ["reserved-name"]
    assert diags[0].message == "'exit' is reserved for successful termination"

    # elsewhere exit is an ordinary name
    assert check(spec_with("g ?exit: A; stop", sorts="A = { v }")) == []


def test_all_problems_reported_not_just_first():
    diags = check(spec_with("q; r; stop"))
    assert codes(diags) == ["unknown-gate", "unknown-gate"]

    # in source order, left operand before right
    diags = check(spec_with("q; stop [] r; stop ||| s; stop"))
    assert [d.message for d in diags] == [f"gate '{g}' is not in scope" for g in "qrs"]


def _count_locate_calls(monkeypatch) -> list:
    """Wrap locate and locate_all wherever lotoskit holds them; the calls
    made from then on are appended to the returned list."""
    calls = []
    for name, module in list(sys.modules.items()):
        if name == "lotoskit" or name.startswith("lotoskit."):
            for attr in ("locate", "locate_all"):
                real = module.__dict__.get(attr)
                if real is not None:
                    def counted(*args, _real=real):
                        calls.append(args[1])
                        return _real(*args)
                    monkeypatch.setattr(module, attr, counted)
    return calls


def test_a_valid_spec_is_parsed_and_validated_without_locating_a_node(monkeypatch, corpus_dir):
    rng = random.Random(25)
    procs = tuple(ast.ProcessDef(f"P{k}", GATES, "noexit",
                                 gen_behavior(rng, 8, values=True, procs=200, sends=True))
                  for k in range(200))
    big = pretty_spec(ast.Specification("Big", GATES, (SORT,), procs, ast.Inst("P0", GATES)))
    texts = [p.read_text() for p in sorted(corpus_dir.glob("*.lot"))] + [big]
    calls = _count_locate_calls(monkeypatch)
    for text in texts:
        spec, diags = parse_spec(text)
        assert spec is not None and diags == []
        assert validate_spec(spec) == []
    assert len(big) > 50_000 and calls == []
    # a diagnostic is located, through the text of the process it is in
    spec, _ = parse_spec("specification S [g] : noexit := behaviour P [g]\n"
                         "where process P [g] : noexit := g; h; stop endproc endspec")
    assert [str(d) for d in validate_spec(spec)] == [
        "2:36: error[unknown-gate]: gate 'h' is not in scope"]
    assert calls == [[spec.processes[0].body.rest.loc]]


def test_a_spec_without_its_hides_locates_through_the_carried_texts():
    spec, _ = parse_spec("specification S [g] : noexit := behaviour hide h in h; P [g]\n"
                         "where process P [g] : noexit :=\n  hide h in g; h; stop endproc endspec")
    assert validate_spec(spec) == []
    assert [str(d) for d in validate_spec(strip_hiding(spec))] == [
        "1:53: error[unknown-gate]: gate 'h' is not in scope",
        "3:16: error[unknown-gate]: gate 'h' is not in scope",
    ]
