"""Every diagnostic the command line prints for the corpus, its mutations
and seeded invalid inputs, in text and in JSON, against the outputs kept
in ``diagnostics_golden.txt``.  The library's diagnostics are kept there
too, with their whole spans, end column included.  The last case is a
safety monitor that names states it does not list and has an unknown
directive.

The golden file was written before source positions became offsets, and
then token indices, that are resolved only for a diagnostic, so it pins
that no code, message, line or column moved.  To write it again (only
for a change that means to alter a diagnostic, and say so)::

    PYTHONPATH=src python tests/test_diagnostics_golden.py > tests/diagnostics_golden.txt
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
import sys
import tempfile
from pathlib import Path

from behavior_gen import gen_system
from lotoskit import cli
from lotoskit.syntax import parse_spec, pretty_spec, validate_spec
from lotoskit.syntax.adlparse import parse_adl
from lotoskit.syntax.asc import parse_asc
from lotoskit.verify import parse_monitor

HERE = Path(__file__).resolve().parent
CORPUS = HERE.parent / "corpus"
GOLDEN = HERE / "diagnostics_golden.txt"

# one or more errors of each code the validator and the parsers report
INVALID_SPECS = {
    "sorts": "specification S [a] : noexit :=\n sorts V = {v1, v2}\n  V = {v1}\n\ti = {i}\n"
             " behaviour a; stop endspec\n",
    "gates": "specification S [a, a, i, exit] : noexit := behaviour\n  a; stop ||| b; stop\n"
             "  |[a, zz, i]| hide exit, i in c; stop\nendspec\n",
    "processes": "specification S [a] : noexit := behaviour P [a] >> Q [a] [> R [a, a]\n"
                 "where\n  process P [a, b] : noexit := a; stop endproc\n"
                 "  process P [a] : exit := exit endproc\n"
                 "  process i [x, x] : noexit := x; stop endproc\n"
                 "  process R [g] : noexit := g; P [g] endproc\nendspec\n",
    "offers": "specification S [g] : noexit :=\n  sorts V = {v1, v2}\n  behaviour\n"
              "    g ?x: W; g !y; g ?v1: V; g ?i: V; i !v1; g !x; stop\n"
              "    [] g ?x: V ?y: V !y !z; stop\nendspec\n",
    "syntax": "specification S [g] : noexit :=\n  behaviour g; ; stop\nendspec\n",
    "lex": "specification S [g] : noexit :=\n  behaviour g; stop @\nendspec\n",
    "string": 'specification S [g] : noexit :=\n  behaviour g !"v; stop\nendspec\n',
    "comment": "specification S [g] : noexit :=\n  behaviour g; stop (* open\nendspec\n",
    "library": "specification S [g] : noexit :=\n  library Boolean endlib\n"
               "  behaviour g; stop\nendspec\n",
    "eof": "specification S [g] : noexit :=\n  behaviour g;",
    "tabs": "specification S [g] : noexit :=\n\tbehaviour\n\t\tg; h; stop\t|||\tP [g]\nendspec\n",
    "nesting": "specification S [g] : noexit :=\n  behaviour " + "(" * 5000 + "g; ; stop"
               + ")" * 5000 + "\nendspec\n",
}
INVALID_CONTRACTS = {
    "variables": "component C where\n  sc { exists x, y, x . class(x) and inherit(x, A) }\nend\n",
    "predicates": "component C where\n  sc { exists x . klass(x) and\n    inherit(x) }\nend\n",
    "ic": "component C where\n  ic { processes { A } processes { B } }\nend\n",
    "assert": 'component C where\n  assert { @ "x }\n  assert { y }\nend\n',
    "block": "component C where\n  assert { { }\nend\n",
    "missing": "component C where\n  bc none\n",
    # the bc file is read and reported as any input: a file that is not
    # there, and one with validation errors, written above
    "bc-missing": 'component C where\n  bc B from "gone.lot"\nend\n',
    "bc-invalid": 'component C where\n  bc B from "invalid-gates.lot"\nend\n',
    "flows-comma": "component C where\n  ic { flows { m: r -> p, } }\nend\n",
}
INVALID_CONFIGS = {
    # (replace this, with that) pairs, each done once in corpus/client_server.adl
    "reserved-binding": [("Client [invClt, terClt]", "Client [i, terClt]")],
    "exit-binding": [("Server [invSrv, terSrv]", "Server [invSrv, exit]")],
    "hidden-internal": [("composition {", "composition { hide i in")],
    "twice": [("composition", "components")],
    "no-composition": [("composition {", "(* composition {"), ("\nend", "*)\nend")],
    "lex": [("end", "end $")],
    "components-comma": [("terSrv]\n", "terSrv],\n")],
}
# a safety monitor with a bad state and a target not listed, the first
# named twice, and an unknown directive, checked against this system
INVALID_MONITOR = ("states a b\ninitial a\n# the bad state is not listed\nbad c\n"
                   "trans a c g\ntrans b d g\nfoo\n")
SAFETY_AUT = 'des (0, 1, 2)\n(0, "a", 1)\n'
# edits that break a text: pieces inserted, and names an identifier may become
SNIPPETS = ("@", '"', "(*", "/*", "*)", ";", "[]", "|[", "]|", "!", "?", ":", "(", ")",
            "hide", "stop", "exit", "endspec", "endproc", "process", "i", "\n", "\t")
NAMES = ("i", "exit", "zz", "v1", "v2", "x", "y", "V", "W", "P0", "P9", "a", "b")
_IDENT = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


def seeded_invalid_spec(seed: int) -> str:
    """A corpus specification or a printed random system with one to three
    seeded edits: an identifier renamed, a token-sized piece inserted, or
    a stretch deleted."""
    rng = random.Random(seed)
    lots = sorted(CORPUS.glob("*.lot"))
    if seed % 3 == 0:
        text = lots[rng.randrange(len(lots))].read_text()
    else:
        text = pretty_spec(gen_system(rng))
    for _ in range(rng.randint(1, 3)):
        edit = rng.randrange(4)
        names = list(_IDENT.finditer(text))
        if edit < 2 and names:
            m = names[rng.randrange(len(names))]
            text = text[:m.start()] + rng.choice(NAMES) + text[m.end():]
        elif edit == 2:
            at = rng.randrange(len(text) + 1)
            text = text[:at] + " " + rng.choice(SNIPPETS) + " " + text[at:]
        else:
            at = rng.randrange(len(text) + 1)
            text = text[:at] + text[at + rng.randint(1, 6):]
    return text


def _run(argv: list[str]) -> list[str]:
    """The exit code and the output lines of one command line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return [f"$ lotoskit {' '.join(argv)} -> {code}", *err.getvalue().splitlines(),
            *out.getvalue().splitlines()]


def _library(diags) -> list[str]:
    return [f"  {tuple(d.span)} {d.code} {d.message}" for d in diags]


def _check_both(path: str) -> list[str]:
    """check in text and JSON, then the library's diagnostics with their
    whole spans."""
    lines = _run(["check", path])
    payload = json.loads("\n".join(_run(["check", path, "--format", "json"])[1:]))
    lines.append("json " + json.dumps(payload["diagnostics"]))
    spec, diags = parse_spec(Path(path).read_text())
    return lines + _library(diags if spec is None else validate_spec(spec))


def render(workdir: Path) -> str:
    """Every case's outputs; writes the case files into workdir, which
    must be the current directory."""
    lines: list[str] = []
    for source in sorted(CORPUS.rglob("*")):
        if source.suffix in (".lot", ".adl", ".asc", ".facts"):
            target = workdir / source.relative_to(CORPUS)
            target.parent.mkdir(exist_ok=True)
            target.write_text(source.read_text())
    for path in sorted(workdir.glob("*.lot")):
        lines += _check_both(path.name)
    for path in sorted(workdir.glob("*.adl")):
        lines += _run(["adl", path.name, "--flatten", "flat.lot"])
        lines += _run(["adl", path.name, "--format", "json"])
    for path in sorted(workdir.rglob("*.asc")):
        name = str(path.relative_to(workdir))
        lines += _run(["contract", name, "--facts", "observer.facts"])
        lines += _run(["contract", name, "--facts", "observer.facts", "--format", "json"])

    for name, text in INVALID_SPECS.items():
        (workdir / f"invalid-{name}.lot").write_text(text)
        lines += _check_both(f"invalid-{name}.lot")
    for name, text in INVALID_CONTRACTS.items():
        (workdir / f"invalid-{name}.asc").write_text(text)
        lines += _run(["contract", f"invalid-{name}.asc", "--format", "json"])
        lines += _library(parse_asc(text)[1])
    base = (CORPUS / "client_server.adl").read_text()
    for name, edits in INVALID_CONFIGS.items():
        text = base
        for old, new in edits:
            text = text.replace(old, new, 1)
        (workdir / f"invalid-{name}.adl").write_text(text)
        lines += _run(["adl", f"invalid-{name}.adl", "--flatten", "flat.lot"])
        lines += _library(parse_adl(text)[1])
    for seed in range(240):
        path = f"seeded-{seed}.lot"
        (workdir / path).write_text(seeded_invalid_spec(seed))
        lines += _check_both(path)
    (workdir / "safety.aut").write_text(SAFETY_AUT)
    (workdir / "invalid-unlisted.mon").write_text(INVALID_MONITOR)
    lines += _run(["verify", "safety", "safety.aut", "invalid-unlisted.mon"])
    lines += _library(parse_monitor(INVALID_MONITOR)[1])
    return "\n".join(lines) + "\n"


def test_every_diagnostic_is_as_recorded(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert render(tmp_path).splitlines() == GOLDEN.read_text().splitlines()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        sys.stdout.write(render(Path(work)))
