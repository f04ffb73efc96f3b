"""Records against dataclasses: each record class of lotoskit compares,
hashes and prints as its dataclass twin does, a dataclass built here with
the fields the class had as a dataclass.  A syntax node's loc is kept but
neither compared, hashed nor shown, and assigning or deleting a field of
any record raises."""
import copy
import dataclasses
import pickle

import pytest

from lotoskit import adl, contracts, semantics, verify
from lotoskit.record import Record
from lotoskit.syntax import ast, diagnostics
from lotoskit.syntax.diagnostics import Span

LOC = Span(2, 3, 2, 9)
VALUE = ast.ValueLit("v", "S")
SORT = ast.SortDecl("S", ("v", "w"))
BODY = ast.ProcessDef("P", ("g",), "noexit", ast.Stop())
PATTERN = verify.LabelPattern("g", ("*",))
ATOM = contracts.Atom("p", (contracts.Var("x"), contracts.Const("C")))
IC = contracts.InterfaceContract(("A",), (("in", "A"),), (("out", "A"),), (("m", "in"),),
                                 (("n", "out"),), ("m",), (("n", "out", "in"),))
BC = contracts.BcRef("B", "b.lot")
ELEMENT = adl.ArchElement("c", adl.COMPONENT, "P", ("g",))

# every record class with its fields, in the order the dataclass declared
# them, and a value for each
CASES = [
    (ast.ValueLit, {"value": "v", "sort": "S"}),
    (ast.VarRef, {"name": "x"}),
    (ast.Send, {"expr": VALUE}),
    (ast.Receive, {"var": "x", "sort": "S"}),
    (ast.InternalAction, {}),
    (ast.Comm, {"gate": "g", "offers": (ast.Send(VALUE), ast.Receive("x", "S"))}),
    (ast.Stop, {}),
    (ast.Exit, {}),
    (ast.Prefix, {"action": ast.Comm("g"), "rest": ast.Stop()}),
    (ast.Choice, {"left": ast.Stop(), "right": ast.Exit()}),
    (ast.Par, {"left": ast.Stop(), "kind": ast.ParKind.GATES, "gates": frozenset({"g"}),
               "right": ast.Exit()}),
    (ast.Hide, {"gates": frozenset({"g", "h"}), "body": ast.Stop()}),
    (ast.Seq, {"left": ast.Exit(), "right": ast.Stop()}),
    (ast.Disrupt, {"left": ast.Stop(), "right": ast.Exit()}),
    (ast.Inst, {"process": "P", "gates": ("g", "h")}),
    (ast.SortDecl, {"name": "S", "values": ("v", "w")}),
    (ast.ProcessDef, {"name": "P", "formal_gates": ("g",), "functionality": "exit",
                      "body": ast.Exit()}),
    (ast.Specification, {"name": "Spec", "top_gates": ("g",), "sorts": (SORT,),
                         "processes": (BODY,), "top_behavior": ast.Inst("P", ("g",))}),
    (diagnostics.Diagnostic, {"span": LOC, "message": "m", "code": "syntax-error"}),
    (diagnostics.Violation, {"code": "c", "message": "m"}),
    (adl.ArchElement, {"name": "c", "role": adl.CONNECTOR, "process": "P", "gates": ("g",)}),
    (adl.ArchConfig, {"name": "C", "uses": ("a.lot",), "elements": (ELEMENT,),
                      "composition": ast.Inst("c")}),
    (verify.LabelPattern, {"gate": "g", "offers": ("v", "*")}),
    (verify.VerifyResult, {"ok": False, "detail": "d", "trace": ["a", "b"]}),
    (verify.Monitor, {"states": ("s", "b"), "initial": "s", "bad": frozenset({"b"}),
                      "rules": (("s", "b", PATTERN),)}),
    (contracts.Var, {"name": "x"}),
    (contracts.Const, {"name": "C"}),
    (contracts.Atom, {"predicate": "p", "args": (contracts.Var("x"), contracts.Const("C"))}),
    (contracts.Query, {"variables": ("x",), "atoms": (ATOM,)}),
    (contracts.InterfaceContract, {"participants": ("A",), "in_ports": (("in", "A"),),
                                   "out_ports": (("out", "A"),), "in_msgs": (("m", "in"),),
                                   "out_msgs": (("n", "out"),), "external_in": ("m",),
                                   "flows": (("n", "out", "in"),)}),
    (contracts.BcRef, {"name": "B", "path": "b.lot"}),
    (contracts.AscContract, {"name": "C", "assertion": "a", "sc": contracts.Query(("x",), (ATOM,)),
                             "ic": IC, "bc": BC}),
    (contracts.ContractReport, {"name": "C", "sc_checked": True, "sc_witness": {"x": "A"},
                                "ic_violations": [diagnostics.Violation("c", "m")],
                                "bc_result": verify.VerifyResult(True, "ok")}),
    (semantics.ExplorationBudget, {"max_states": 5, "max_transitions": 7}),
    (semantics.Lts, {"out": [[(0, 0)]], "label_text": ["a"], "initial": 0, "forms": None}),
]


def twin(cls: type, fields: dict) -> type:
    spec = [(name, object) for name in fields]
    if issubclass(cls, ast.Node):
        spec.append(("loc", object, dataclasses.field(default=None, compare=False, hash=False,
                                                      repr=False)))
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True)


def subclasses(cls: type) -> set[type]:
    return {c for sub in cls.__subclasses__() for c in {sub} | subclasses(sub)}


def test_every_record_class_has_a_case():
    assert subclasses(Record) - {ast.Node, ast.Behavior} == {cls for cls, _ in CASES}


@pytest.mark.parametrize("cls, fields", CASES, ids=[cls.__name__ for cls, _ in CASES])
def test_a_record_compares_hashes_and_prints_as_its_dataclass_twin(cls, fields):
    Twin = twin(cls, fields)
    record, same = cls(*fields.values()), cls(**fields)
    expected, expected_same = Twin(*fields.values()), Twin(**fields)
    assert repr(record) == repr(expected)
    assert record == same and not record != same
    assert expected == expected_same
    try:
        expected_hash = hash(expected)
    except TypeError:
        # a list or dict field makes the twin unhashable, and the record
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(same) == expected_hash
    # equality is class-sensitive: a twin is never equal to a record
    assert record != expected and expected != record
    for name in fields:
        changed = {**fields, name: object()}
        assert record != cls(**changed)
        assert expected != Twin(**changed)


@pytest.mark.parametrize("record, other", [
    (ast.Choice(ast.Stop(), ast.Exit()), ast.Seq(ast.Stop(), ast.Exit())),
    (ast.Stop(), ast.Exit()),
    (ast.Exit(), ast.InternalAction()),
    (ast.ValueLit("v", "S"), ast.Receive("v", "S")),
    (contracts.Var("x"), contracts.Const("x")),
])
def test_records_of_two_classes_with_equal_fields_differ(record, other):
    assert record != other and not record == other


NODES = [(cls, fields) for cls, fields in CASES if issubclass(cls, ast.Node)]


@pytest.mark.parametrize("cls, fields", NODES, ids=[cls.__name__ for cls, _ in NODES])
def test_a_nodes_loc_is_kept_but_neither_compared_hashed_nor_shown(cls, fields):
    Twin = twin(cls, fields)
    located, bare = cls(*fields.values(), loc=LOC), cls(**fields)
    assert located.loc == LOC and bare.loc is None
    assert located == bare and hash(located) == hash(bare)
    assert repr(located) == repr(bare) == repr(Twin(*fields.values(), loc=LOC))
    assert cls(*fields.values(), LOC).loc == LOC


@pytest.mark.parametrize("cls, fields", CASES, ids=[cls.__name__ for cls, _ in CASES])
def test_assigning_a_field_raises_unless_the_record_is_mutable(cls, fields):
    record = cls(**fields)
    names = [*fields, "loc"] if issubclass(cls, ast.Node) else list(fields)
    for name in names:
        before = getattr(record, name)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, "new")
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is before


@pytest.mark.parametrize("cls, fields", CASES, ids=[cls.__name__ for cls, _ in CASES])
def test_a_record_copies_and_pickles_with_its_loc(cls, fields):
    record = cls(*fields.values(), loc=LOC) if issubclass(cls, ast.Node) else cls(**fields)
    for again in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        # a frozenset rebuilt by a copy may iterate in another order, depending
        # on the string hash seed, so the fields compare, not the reprs
        assert type(again) is cls and again == record
        assert {name: getattr(again, name) for name in fields} == fields
        assert getattr(again, "loc", None) == getattr(record, "loc", None)


@pytest.mark.parametrize("args, kwargs", [
    (("p",), {}),
    (("p", (), ()), {}),
    (("p",), {"predicate": "q"}),
    (("p",), {"arg": ()}),
    ((), {"args": ()}),
])
def test_the_generic_constructor_wants_each_field_once(args, kwargs):
    with pytest.raises(TypeError, match="takes the arguments predicate, args"):
        contracts.Atom(*args, **kwargs)


def test_lookup_tables_are_built_on_first_use_and_never_compared():
    first, second = BODY, ast.ProcessDef("P", (), "exit", ast.Exit())
    spec = ast.Specification("S", (), (SORT, ast.SortDecl("S", ())), (first, second), ast.Stop())
    fresh = ast.Specification("S", (), spec.sorts, spec.processes, ast.Stop())
    assert spec.process("P") is first and spec.process("Q") is None
    assert spec.sort("S") is SORT and spec.sort("T") is None
    assert spec == fresh and hash(spec) == hash(fresh) and repr(spec) == repr(fresh)

    other = adl.ArchElement("c", adl.CONNECTOR, "Q")
    config = adl.ArchConfig("C", (), (ELEMENT, other), ast.Inst("c"))
    assert config.element("c") is ELEMENT and config.element("d") is None
    assert config == adl.ArchConfig("C", (), (ELEMENT, other), ast.Inst("c"))
