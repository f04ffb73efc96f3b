"""Command line front end.

Subcommands: check (parse and validate), lts (generate and export the
state space), verify (deadlock, reach, safety, bisim), contract, adl.

Exit codes: 0 everything holds, 1 the checked property or contract fails,
2 the inputs cannot be processed (unreadable or invalid files, exhausted
exploration budget, a state space nested beyond the recursion limit,
memory exhausted), 3 command line usage errors.  Human-readable
findings go to stdout, diagnostics to stderr; --format json prints one
machine-readable object to stdout instead.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Callable, Sequence
from pathlib import Path
from typing import TypeVar

from . import adl as adlmod
from . import contracts as contractsmod
from . import semantics, verify
from .syntax import ast, parse_spec, pretty_spec, validate_spec
from .syntax.adlparse import parse_adl
from .syntax.asc import parse_asc
from .syntax.diagnostics import Diagnostic


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str):  # usage problems exit 3, not 2
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


# ----------------------------------------------------------------------
# shared plumbing


def _print_diags(diags: list[Diagnostic], path: str) -> None:
    for d in diags:
        print(f"{path}:{d}", file=sys.stderr)


def _diag_json(d: Diagnostic) -> dict:
    return {
        "severity": "error",
        "line": d.span.line,
        "col": d.span.col,
        "code": d.code,
        "message": d.message,
    }


def _read_file(path: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(2, f"cannot read '{path}': {exc}") from exc


def _write_file(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise CliError(2, f"cannot write '{path}': {exc}") from exc


Value = TypeVar("Value")


def _load(path: str, kind: str, parse: Callable[[str], tuple[Value | None, list[Diagnostic]]]) -> Value:
    """Read and parse a file; any error prints the diagnostics and aborts
    with exit code 2 (the caller needs a working value)."""
    value, diags = parse(_read_file(path))
    if diags:
        _print_diags(diags, path)
        raise CliError(2, f"'{path}' is not a valid {kind}")
    return value


def _checked_spec(text: str) -> tuple[ast.Specification | None, list[Diagnostic]]:
    """Parse and validate a specification, with the readers' contract: a
    tree exactly when there are no diagnostics."""
    spec, diags = parse_spec(text)
    if spec is None:
        return None, diags
    diags = validate_spec(spec)
    return (None if diags else spec), diags


def _load_spec(path: str) -> ast.Specification:
    return _load(path, "specification", _checked_spec)


def _budget(args: argparse.Namespace) -> semantics.ExplorationBudget:
    return semantics.ExplorationBudget(
        max_states=args.max_states, max_transitions=args.max_transitions
    )


def _spec(path: str, args: argparse.Namespace) -> ast.Specification:
    """The specification of a behaviour file, its hiding removed under
    --no-hide."""
    spec = _load_spec(path)
    return semantics.strip_hiding(spec) if getattr(args, "no_hide", False) else spec


def _system(path: str, args: argparse.Namespace, whole: bool = False) -> semantics.Lts:
    """A transition system from an .aut file, held to the exploration
    budget by its header before any row is built, or from a behaviour
    file, explored only as far as the caller reads it unless whole."""
    budget = _budget(args)
    if not path.endswith(".aut"):
        spec = _spec(path, args)
        return semantics.generate_lts(spec, budget) if whole else semantics.Exploration(spec, budget)
    text = _read_file(path)
    try:
        _, transitions, states = verify.aut_header(text)
        for kind, size, limit in (("state", states, budget.max_states),
                                  ("transition", transitions, budget.max_transitions)):
            if size > limit:
                raise CliError(2, f"'{path}' has {size} {kind}s, more than the {kind} "
                                  f"budget of {limit}")
        return verify.read_aut(text)
    except ValueError as exc:
        raise CliError(2, f"'{path}': {exc}") from exc


def _emit(args: argparse.Namespace, payload: dict, text_lines: list[str]) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


# ----------------------------------------------------------------------
# subcommands


def _cmd_check(args: argparse.Namespace) -> int:
    spec, diags = _checked_spec(_read_file(args.file))
    ok = not diags
    if args.format == "json":
        payload = {
            "command": "check",
            "ok": ok,
            "name": spec.name if spec else None,
            "diagnostics": [_diag_json(d) for d in diags],
        }
        print(json.dumps(payload, indent=2))
    else:
        _print_diags(diags, args.file)
        if ok:
            assert spec is not None
            print(f"{spec.name}: ok ({len(spec.processes)} process(es), "
                  f"{len(spec.sorts)} sort(s))")
        else:
            print(f"{args.file}: {len(diags)} error(s)")
    return 0 if ok else 1


def _cmd_lts(args: argparse.Namespace) -> int:
    lts = _system(args.file, args, whole=True)
    if args.minimize:
        lts = verify.minimize(lts)
    aut = verify.export_aut(lts)
    if args.output:
        _write_file(args.output, aut)
    payload = {
        "command": "lts",
        "ok": True,
        "states": lts.num_states,
        "transitions": lts.num_transitions,
        "output": args.output,
    }
    if args.output:
        lines = [f"{lts.num_states} state(s), {lts.num_transitions} transition(s) "
                 f"-> {args.output}"]
    else:
        payload["aut"] = aut
        lines = [aut.rstrip("\n")]
    _emit(args, payload, lines)
    return 0


def _verify_result(args: argparse.Namespace, name: str, result: verify.VerifyResult) -> int:
    payload = {
        "command": "verify",
        "property": name,
        "ok": result.ok,
        "detail": result.detail,
        "trace": result.trace,
    }
    lines = [f"{name}: {'ok' if result.ok else 'violated'} ({result.detail})"]
    if result.trace is not None:
        lines.append(f"trace: {verify.format_trace(result.trace)}")
    _emit(args, payload, lines)
    return 0 if result.ok else 1


def _cmd_verify_deadlock(args: argparse.Namespace) -> int:
    return _verify_result(args, "deadlock", verify.check_deadlock(_system(args.file, args)))


def _cmd_verify_reach(args: argparse.Namespace) -> int:
    try:
        pattern = verify.parse_label_pattern(args.pattern)
    except ValueError as exc:
        raise CliError(3, f"bad pattern: {exc}") from exc
    return _verify_result(args, "reach", verify.check_reachable(_system(args.file, args), pattern))


def _cmd_verify_safety(args: argparse.Namespace) -> int:
    monitor = _load(args.monitor, "monitor", verify.parse_monitor)
    return _verify_result(args, "safety", verify.check_safety(_system(args.file, args), monitor))


def _cmd_verify_bisim(args: argparse.Namespace) -> int:
    a = _system(args.file, args, whole=True)
    b = _system(args.other, args, whole=True)
    return _verify_result(args, "bisim", verify.bisim_equiv(a, b))


def _cmd_contract(args: argparse.Namespace) -> int:
    contract = _load(args.file, "contract", parse_asc)
    facts = _load(args.facts, "fact base", contractsmod.parse_facts) if args.facts else None
    report = contractsmod.check_asc(
        contract,
        facts,
        base_dir=Path(args.file).parent,
        budget=_budget(args),
    )

    payload = {
        "command": "contract",
        "ok": report.ok,
        "name": report.name,
        "sc": {"checked": report.sc_checked, "witness": report.sc_witness},
        "ic": None
        if report.ic_violations is None
        else [{"code": v.code, "message": v.message} for v in report.ic_violations],
        "bc": None
        if report.bc_result is None
        else {
            "ok": report.bc_result.ok,
            "detail": report.bc_result.detail,
            "trace": report.bc_result.trace,
        },
    }
    _emit(args, payload, report.lines())
    return 0 if report.ok else 1


def _cmd_adl(args: argparse.Namespace) -> int:
    config = _load(args.file, "configuration", parse_adl)
    base = Path(args.file).parent
    sources = [_load_spec(str(base / use)) for use in config.uses]

    violations = adlmod.validate_config(config, sources)
    ok = not violations

    flattened_to = None
    if ok and args.flatten:
        flat = adlmod.flatten(config, sources)
        problems = validate_spec(flat)
        if problems:
            # the composition's spans are positions in the configuration
            _print_diags(problems, args.file)
            raise CliError(2, "flattened specification is not valid")
        _write_file(args.flatten, pretty_spec(flat))
        flattened_to = args.flatten

    payload = {
        "command": "adl",
        "ok": ok,
        "name": config.name,
        "violations": [{"code": v.code, "message": v.message} for v in violations],
        "flattened": flattened_to,
    }
    components = sum(1 for e in config.elements if e.role == adlmod.COMPONENT)
    connectors = sum(1 for e in config.elements if e.role == adlmod.CONNECTOR)
    if ok:
        lines = [f"{config.name}: ok ({components} component(s), {connectors} connector(s))"]
        if flattened_to:
            lines.append(f"flattened -> {flattened_to}")
    else:
        lines = [f"{config.name}: {len(violations)} violation(s)"]
        lines.extend(f"  {v}" for v in violations)
    _emit(args, payload, lines)
    return 0 if ok else 1


# ----------------------------------------------------------------------
# wiring


Argument = tuple[tuple[str, ...], dict]


def _arg(*names: str, **options) -> Argument:
    """The parameters of one add_argument call."""
    return names, options


def _limit(text: str) -> int:
    """A budget: an int, 0 or more."""
    try:
        value = int(text)
    except ValueError:  # argparse's own message for type=int
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"a budget cannot be negative: {text!r}")
    return value


_FORMAT = _arg("--format", choices=("text", "json"), default="text",
               help="output format (default text)")
_DEFAULT_BUDGET = semantics.ExplorationBudget()
_BUDGET = (
    _arg("--max-states", type=_limit, default=_DEFAULT_BUDGET.max_states, metavar="N",
         help=f"abort exploration beyond N states (default {_DEFAULT_BUDGET.max_states})"),
    _arg("--max-transitions", type=_limit, default=_DEFAULT_BUDGET.max_transitions, metavar="N",
         help=f"abort exploration beyond N transitions (default {_DEFAULT_BUDGET.max_transitions})"),
)
# the options of every command that explores a behaviour file
_EXPLORE = (_arg("--no-hide", action="store_true", help="treat hidden gates as observable"),
            *_BUDGET, _FORMAT)
_SYSTEM = _arg("file", help="behaviour file or .aut file")

# The command tree: a command is (help, handler, its arguments in the
# order --help lists them), a group of commands is (help, the dest that
# names the chosen one, the group's table).
_PROPERTIES = {
    "deadlock": ("every reachable state can move or has terminated", _cmd_verify_deadlock,
                 (_SYSTEM, *_EXPLORE)),
    "reach": ("some transition matches a label pattern", _cmd_verify_reach,
              (_SYSTEM, _arg("pattern", help="label pattern, e.g. 'inv !Service1 !*'"),
               *_EXPLORE)),
    "safety": ("a monitor never reaches a bad state", _cmd_verify_safety,
               (_SYSTEM, _arg("monitor", help="monitor file"), *_EXPLORE)),
    "bisim": ("two systems are strongly bisimilar", _cmd_verify_bisim,
              (_SYSTEM, _arg("other", help="behaviour file or .aut file"), *_EXPLORE)),
}
_COMMANDS = {
    "check": ("parse and validate a behaviour file", _cmd_check, (_arg("file"), _FORMAT)),
    "lts": ("generate the state space and print it in .aut form", _cmd_lts,
            (_SYSTEM,
             _arg("-o", "--output", metavar="FILE", help="write the .aut here instead of stdout"),
             _arg("--minimize", action="store_true", help="quotient by strong bisimilarity first"),
             *_EXPLORE)),
    "verify": ("check properties of a state space", "property", _PROPERTIES),
    "contract": ("check a component contract", _cmd_contract,
                 (_arg("file"),
                  _arg("--facts", metavar="FILE", help="fact base for the structural query"),
                  *_BUDGET, _FORMAT)),
    "adl": ("validate an architecture configuration", _cmd_adl,
            (_arg("file"),
             _arg("--flatten", metavar="FILE", help="write the flattened specification here"),
             _FORMAT)),
}


def _add_commands(parser: argparse.ArgumentParser, dest: str, table: dict,
                  words: Sequence[str]) -> None:
    """Add the commands of table to parser, as the choices of dest.  When
    words[0] names one of them exactly, only that one is built, with the
    rest of words narrowing its own group; argparse then parses words
    as the whole tree would, since it looks no further than the command
    the word names.  Otherwise (help, usage errors) every command is
    built."""
    name = words[0] if words else None
    if name in table:
        # an unrecognized argument is reported with the parent's usage,
        # which lists every choice
        sub = parser.add_subparsers(dest=dest, required=True,
                                    metavar="{" + ",".join(table) + "}")
        table = {name: table[name]}
    else:
        sub = parser.add_subparsers(dest=dest, required=True)
    for command, (summary, handler, body) in table.items():
        p = sub.add_parser(command, help=summary)
        if isinstance(body, dict):  # a group: handler is its dest
            _add_commands(p, handler, body, words[1:])
            continue
        for names, options in body:
            p.add_argument(*names, **options)
        p.set_defaults(fn=handler)


def _build_parser(argv: Sequence[str]) -> _ArgumentParser:
    """The parser of the command line argv: as much of the command tree
    as argv needs."""
    parser = _ArgumentParser(prog="lotoskit", description=__doc__)
    _add_commands(parser, "command", _COMMANDS, argv)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _build_parser(argv).parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # so that a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader went away; send what is still buffered to devnull, so
        # that the flush at exit raises nothing either
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    except CliError as exc:
        print(f"lotoskit: {exc.message}", file=sys.stderr)
        return exc.code
    except (semantics.BudgetExceededError, semantics.UnguardedRecursionError,
            contractsmod.ContractCheckError) as exc:
        print(f"lotoskit: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("lotoskit: input nested too deeply to process "
              "(Python recursion limit reached)", file=sys.stderr)
        return 2
    except MemoryError:
        print("lotoskit: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
