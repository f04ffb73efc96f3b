"""The README's promises for arbitrary input: every reader returns
diagnostics, a value exactly when there are none, and never raises, and
the command line answers with exit codes 0-3, never with a traceback."""
import contextlib
import io
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from behavior_gen import GATES, SORT, gen_behavior
from lotoskit import parse_adl, parse_asc, parse_facts, parse_monitor
from lotoskit.cli import main
from lotoskit.syntax import Diagnostic, ast, parse_behavior, parse_spec, pretty_spec

# the keywords of all five notations, and a few plain names
_WORDS = (
    "a", "g", "x", "P", "S", "i", "v1", "V",
    "specification", "behaviour", "behavior", "endspec", "process", "endproc",
    "where", "hide", "in", "stop", "exit", "noexit", "sorts", "library", "endlib",
    "component", "assert", "sc", "ic", "bc", "none", "from", "exists", "and", "end",
    "processes", "in_ports", "out_ports", "in_msgs", "out_msgs", "external_in", "flows",
    "configuration", "use", "components", "connectors", "composition",
    "states", "initial", "bad", "trans", "inherit", "class", "invoke",
)
_PUNCTUATION = (
    "|||", ":=", "[>", "[]", "|[", "]|", ">>", "->", "||",
    "[", "]", "(", ")", ";", ":", ",", "!", "?", "=", ".", "*", "%", "#",
)
_OTHER = ('"x.lot"', '""', '"', "(*", "*)", "/*", "*/", "{", "}")
_TOKENS = st.sampled_from(_WORDS + _PUNCTUATION + _OTHER)
_TEXTS = st.lists(
    st.tuples(_TOKENS, st.sampled_from((" ", "\n", ""))), max_size=40
).map(lambda pairs: "".join(tok + sep for tok, sep in pairs))


def _read_all(text: str) -> list[tuple[str, object, list[Diagnostic]]]:
    """(reader, value, diagnostics) from each of the six readers."""
    return [
        ("parse_spec", *parse_spec(text)),
        ("parse_behavior", *parse_behavior(text)),
        ("parse_asc", *parse_asc(text)),
        ("parse_adl", *parse_adl(text)),
        ("parse_monitor", *parse_monitor(text)),
        ("parse_facts", *parse_facts(text)),
    ]


@settings(max_examples=400, deadline=None)
@given(_TEXTS)
def test_readers_never_raise(text):
    for reader, value, diags in _read_all(text):
        assert isinstance(diags, list) and all(isinstance(d, Diagnostic) for d in diags), reader
        assert (value is None) == bool(diags), reader


def _random_spec(seed: int) -> ast.Specification:
    """Up to two processes instantiating each other anywhere, so some
    systems recurse without a guard and some run past the budgets."""
    rng = random.Random(seed)
    count = rng.randint(0, 2)

    def term(depth: int) -> ast.Behavior:
        return gen_behavior(rng, depth, values=True, procs=count, sends=True)

    procs = tuple(ast.ProcessDef(f"P{k}", GATES, "noexit", term(rng.randint(1, 4)))
                  for k in range(count))
    return ast.Specification("R", GATES, (SORT,), procs, term(rng.randint(0, 4)))


_BUDGET = ("--max-states", "40", "--max-transitions", "120")
_COMMANDS = (
    ("check", "{}"),
    ("lts", "{}", *_BUDGET),
    ("lts", "{}", "--minimize", "--format", "json", *_BUDGET),
    ("verify", "deadlock", "{}", *_BUDGET),
    ("verify", "deadlock", "{}", "--no-hide", *_BUDGET),
    ("verify", "reach", "{}", "a !*", *_BUDGET),
    ("verify", "bisim", "{}", "{}", *_BUDGET),
)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_cli_answers_with_an_exit_code(tmp_path_factory, seed):
    path = tmp_path_factory.mktemp("spec") / "r.lot"
    path.write_text(pretty_spec(_random_spec(seed)))
    for command in _COMMANDS:
        argv = [arg.format(path) for arg in command]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2, 3), argv
        assert "Traceback" not in err.getvalue(), argv
