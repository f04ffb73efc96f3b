import adl_oracle
from conftest import load_spec
from hypothesis import given, settings
from hypothesis import strategies as st
from lotoskit import (
    bisim_equiv,
    flatten,
    generate_lts,
    parse_adl,
    parse_spec,
    pretty_spec,
    validate_config,
    validate_spec,
)
from lotoskit.adl import COMPONENT, CONNECTOR, ArchConfig, ArchElement, _coupling_violations
from lotoskit.syntax import ast, parse_behavior


def spec_of(text):
    spec, diags = parse_spec(text)
    assert spec is not None, [str(d) for d in diags]
    return spec


PROCS = spec_of("""
specification Lib [g, h] : noexit :=
  behaviour stop
  where
    process Client [a, b] : noexit := a; b; Client [a, b] endproc
    process Server [a, b] : noexit := a; b; Server [a, b] endproc
    process Relay [a, b, c, d] : noexit := a; c; d; b; Relay [a, b, c, d] endproc
endproc_list
""".replace("endproc_list", "endspec"))


def config_of(text):
    config, diags = parse_adl(text)
    assert config is not None, [str(d) for d in diags]
    return config


GOOD = """
configuration Demo
  use "lib.lot"
  components {
    left = Client [la, lb],
    right = Server [ra, rb]
  }
  connectors {
    mid = Relay [la, lb, ra, rb]
  }
  composition {
    ( left ||| right ) |[la, lb, ra, rb]| mid
  }
end
"""


# ----------------------------------------------------------------------
# parsing


def test_parse_configuration():
    config = config_of(GOOD)
    assert config.name == "Demo"
    assert config.uses == ("lib.lot",)
    roles = {e.name: e.role for e in config.elements}
    assert roles == {"left": COMPONENT, "right": COMPONENT, "mid": CONNECTOR}
    assert config.element("mid").process == "Relay"
    assert config.element("mid").gates == ("la", "lb", "ra", "rb")
    assert isinstance(config.composition, ast.Par)


def test_parse_corpus_configurations(corpus_dir):
    for path in sorted(corpus_dir.glob("*.adl")):
        config, diags = parse_adl(path.read_text())
        assert config is not None, (path.name, [str(d) for d in diags])


def test_use_may_repeat():
    text = GOOD.replace('use "lib.lot"', 'use "lib.lot"\n  use "more.lot"')
    assert config_of(text).uses == ("lib.lot", "more.lot")


def test_composition_required():
    text = GOOD.replace(
        "composition {\n    ( left ||| right ) |[la, lb, ra, rb]| mid\n  }", ""
    )
    config, diags = parse_adl(text)
    assert config is None and diags


def test_parse_error_has_location():
    config, diags = parse_adl("configuration X\n  components { a = }\nend")
    assert config is None
    assert diags and diags[0].span.line == 2


# ----------------------------------------------------------------------
# validation


def codes(config, sources=(PROCS,)):
    return [v.code for v in validate_config(config, list(sources))]


def test_valid_configuration():
    assert codes(config_of(GOOD)) == []


def test_corpus_configurations_validate(corpus_dir):
    for adl_name, lot_name in [
        ("client_server.adl", "client_server.lot"),
        ("multicast.adl", "multicast.lot"),
    ]:
        config, _ = parse_adl((corpus_dir / adl_name).read_text())
        assert codes(config, [load_spec(lot_name)]) == [], adl_name


def test_duplicate_instance_name():
    text = GOOD.replace("right = Server [ra, rb]", "left = Server [ra, rb]")
    assert "duplicate-name" in codes(config_of(text))


def test_duplicate_instance_resolves_to_first_declaration():
    # the composition's 'left' is the first 'left' declared, as in element()
    synced = GOOD.replace("( left ||| right )", "( left || right )")
    coupled = synced.replace("left = Client [la, lb],", "left = Client [ra, rb],\n    left = Client [la, lb],")
    apart = synced.replace("left = Client [la, lb],", "left = Client [la, lb],\n    left = Client [ra, rb],")
    config = config_of(coupled)
    assert config.element("left").gates == ("ra", "rb")
    assert [str(v) for v in validate_config(config, [PROCS])] == [
        "[duplicate-name] instance 'left' is declared twice",
        "[direct-component-coupling] components 'left' and 'right' synchronise directly on gate 'ra'",
    ]
    assert codes(config_of(apart)) == ["duplicate-name"]


def test_duplicate_process_across_sources():
    out = codes(config_of(GOOD), sources=(PROCS, PROCS))
    assert "duplicate-name" in out


def test_too_few_components():
    text = GOOD.replace("left = Client [la, lb],\n    right = Server [ra, rb]",
                        "left = Client [la, lb]")
    text = text.replace("( left ||| right )", "left")
    assert "too-few-components" in codes(config_of(text))


def test_no_connector():
    text = GOOD.replace("connectors {\n    mid = Relay [la, lb, ra, rb]\n  }", "")
    text = text.replace("( left ||| right ) |[la, lb, ra, rb]| mid", "left ||| right")
    assert "no-connector" in codes(config_of(text))


def test_unresolved_binding():
    text = GOOD.replace("Client [la, lb]", "Missing [la, lb]")
    assert "unresolved-element" in codes(config_of(text))


def test_unresolved_composition_instance():
    text = GOOD.replace("( left ||| right )", "( left ||| ghost )")
    assert "unresolved-element" in codes(config_of(text))


def test_binding_gate_arity():
    text = GOOD.replace("Client [la, lb]", "Client [la]")
    assert "gate-mismatch" in codes(config_of(text))


def test_composition_instance_must_be_bare():
    text = GOOD.replace("( left ||| right )", "( left [la, lb] ||| right )")
    assert "gate-mismatch" in codes(config_of(text))


def test_direct_coupling_detected():
    # both components wired to the same gates and made to synchronise
    text = GOOD.replace("right = Server [ra, rb]", "right = Server [la, lb]")
    text = text.replace("( left ||| right ) |[la, lb, ra, rb]| mid",
                        "( left || right ) |[la, lb]| mid")
    out = codes(config_of(text))
    assert "direct-component-coupling" in out


def test_interleaving_shared_gates_is_not_coupling():
    # same wiring, but the components never synchronise with each other
    text = GOOD.replace("right = Server [ra, rb]", "right = Server [la, lb]")
    text = text.replace("|[la, lb, ra, rb]|", "|[la, lb]|")
    assert codes(config_of(text)) == []


def test_gate_subset_sync_limits_coupling():
    # they synchronise only on la; sharing lb through interleaving is fine
    text = GOOD.replace("right = Server [ra, rb]", "right = Server [la, rb]")
    text = text.replace("( left ||| right ) |[la, lb, ra, rb]| mid",
                        "( left |[la]| right ) |[la, lb, rb]| mid")
    out = codes(config_of(text))
    assert out == ["direct-component-coupling"]

    text2 = text.replace("( left |[la]| right )", "( left |[lb]| right )")
    assert codes(config_of(text2)) == []


def test_component_connector_sync_is_fine():
    assert codes(config_of(GOOD)) == []


COUPLING_GATES = ("g0", "g1", "g2")


@st.composite
def coupling_configs(draw):
    """Configurations over three gates, so that many pairs share one: up
    to eight elements, names drawn with repeats (the first declaration
    wins), and a composition of every operator over their names and one
    undeclared name."""
    gate_tuples = st.lists(st.sampled_from(COUPLING_GATES), max_size=3).map(tuple)
    elements = draw(st.lists(
        st.builds(ArchElement, st.sampled_from([f"e{k}" for k in range(6)]),
                  st.sampled_from([COMPONENT, COMPONENT, CONNECTOR]), st.just("P"), gate_tuples),
        max_size=8,
    ))
    names = sorted({e.name for e in elements} | {"undeclared"})
    gate_sets = st.frozensets(st.sampled_from(COUPLING_GATES), max_size=3)
    leaves = st.sampled_from(names).map(ast.Inst)
    composition = draw(st.recursive(leaves, lambda kids: st.one_of(
        st.builds(ast.Par, kids, st.sampled_from(list(ast.ParKind)), gate_sets, kids),
        st.builds(ast.Hide, gate_sets, kids),
        st.builds(ast.Choice, kids, kids),
        st.builds(ast.Seq, kids, kids),
        st.builds(ast.Disrupt, kids, kids),
        st.builds(ast.Prefix, st.just(ast.InternalAction()), kids),
    ), max_leaves=12))
    return ArchConfig("C", (), tuple(elements), composition)


@settings(max_examples=200, deadline=None)
@given(coupling_configs())
def test_coupling_agrees_with_oracle(config):
    assert _coupling_violations(config) == adl_oracle.coupling_violations(config)


def test_coupling_many_violations_agree_with_oracle():
    # 40 components on one gate, joined left-deep, right-deep and as a
    # balanced tree: every pair across each operator couples
    elements = tuple(ArchElement(f"c{k}", COMPONENT, "P", ("g", f"h{k % 3}")) for k in range(40))
    for kind, gates in ((ast.ParKind.GATES, frozenset({"g", "h1"})), (ast.ParKind.FULL, frozenset())):
        insts = [ast.Inst(e.name) for e in elements]
        left_deep = insts[0]
        for inst in insts[1:]:
            left_deep = ast.Par(left_deep, kind, gates, inst)
        right_deep = insts[-1]
        for inst in reversed(insts[:-1]):
            right_deep = ast.Par(inst, kind, gates, right_deep)
        balanced = insts
        while len(balanced) > 1:
            joined = [ast.Par(balanced[k], kind, gates, balanced[k + 1])
                      for k in range(0, len(balanced) - 1, 2)]
            balanced = joined + balanced[2 * len(joined):]
        for composition in (left_deep, right_deep, balanced[0]):
            config = ArchConfig("C", (), elements, composition)
            got = _coupling_violations(config)
            assert len(got) == 40 * 39 // 2
            assert got == adl_oracle.coupling_violations(config)


# ----------------------------------------------------------------------
# flattening


def test_flatten_rewrites_instances():
    flat = flatten(config_of(GOOD), [PROCS])
    assert flat.name == "Demo"
    assert isinstance(flat.top_behavior, ast.Par)
    inner = flat.top_behavior.left
    assert inner.left == ast.Inst("Client", ("la", "lb"))
    assert inner.right == ast.Inst("Server", ("ra", "rb"))
    assert flat.top_behavior.right == ast.Inst("Relay", ("la", "lb", "ra", "rb"))


def test_flatten_top_gates_in_first_use_order():
    flat = flatten(config_of(GOOD), [PROCS])
    assert flat.top_gates == ("la", "lb", "ra", "rb")


def test_flatten_excludes_hidden_gates():
    text = GOOD.replace(
        "( left ||| right ) |[la, lb, ra, rb]| mid",
        "hide ra, rb in ( left ||| right ) |[la, lb, ra, rb]| mid",
    )
    flat = flatten(config_of(text), [PROCS])
    assert flat.top_gates == ("la", "lb")


def test_flatten_takes_top_gates_from_action_prefixes():
    text = GOOD.replace(
        "( left ||| right ) |[la, lb, ra, rb]| mid",
        "go; hide done in done; ( left ||| right ) |[la, lb, ra, rb]| mid",
    )
    flat = flatten(config_of(text), [PROCS])
    assert flat.top_gates == ("go", "la", "lb", "ra", "rb")


def test_flatten_merges_sources_first_wins():
    other = spec_of("""
    specification Extra [x] : noexit :=
      sorts V = { one }
      behaviour stop
      where
        process Client [a] : noexit := a; stop endproc
        process Fresh [a] : noexit := a; stop endproc
    endspec
    """)
    flat = flatten(config_of(GOOD), [PROCS, other])
    client = flat.process("Client")
    assert client.formal_gates == ("a", "b")  # from the first source
    assert flat.process("Fresh") is not None
    assert flat.sort("V") is not None


def test_flattened_spec_is_valid_and_explorable():
    flat = flatten(config_of(GOOD), [PROCS])
    assert not validate_spec(flat)
    lts = generate_lts(flat)
    assert lts.num_states > 0
    # and it survives a print/parse cycle
    again, _ = parse_spec(pretty_spec(flat))
    assert again == flat


def test_flatten_matches_handwritten_composition(corpus_dir):
    for adl_name, lot_name in [
        ("client_server.adl", "client_server.lot"),
        ("multicast.adl", "multicast.lot"),
    ]:
        source = load_spec(lot_name)
        config, _ = parse_adl((corpus_dir / adl_name).read_text())
        flat = flatten(config, [source])
        assert bisim_equiv(generate_lts(flat), generate_lts(source)).ok, adl_name
