"""Recursive-descent parser for behaviour specifications.

Grammar (keywords case-insensitive, identifiers case-sensitive)::

    spec        ::= "specification" IDENT gates ":" func ":="
                    sorts? "behaviour" behaviour where? "endspec"
    sorts       ::= "sorts" sortdecl+
    sortdecl    ::= IDENT "=" "{" IDENT ("," IDENT)* "}"
    where       ::= "where" procdef+
    procdef     ::= "process" IDENT gates ":" func ":="
                    behaviour ("endproc" | "endprocess")
    gates       ::= "[" "]" | "[" IDENT ("," IDENT)* "]" | /* empty */
    func        ::= "noexit" | "exit"

    behaviour   ::= b_enable
    b_enable    ::= b_disrupt (">>" b_disrupt)*
    b_disrupt   ::= b_par ("[>" b_par)*
    b_par       ::= b_choice (par_op b_choice)*
    par_op      ::= "|||" | "||" | "|[" IDENT ("," IDENT)* "]|"
    b_choice    ::= b_prefix ("[]" b_prefix)*
    b_prefix    ::= action ";" b_prefix | b_atom
    b_atom      ::= "stop" | "exit" | "hide" IDENT ("," IDENT)* "in" behaviour
                  | IDENT gates | "(" behaviour ")"
    action      ::= "i" | IDENT offer*
    offer       ::= "!" IDENT | "?" IDENT ":" IDENT

The binary levels come from ``ast.OPERATORS``, the table the printer
reads too; ``behaviour`` parses them by precedence climbing.
All binary operators associate to the left.  Precedence, tightest first:
";", "[]", the parallel operators, "[>", ">>".  "hide ... in" extends as
far right as possible.

An action and a process instantiation both start with an identifier; the
next token decides: "!", "?" or ";" continue an action, anything else is
an instantiation.  Send offers "!v" are resolved against the declared sort
values at parse time; unknown names become variable references and are
checked later by the validator.

Each node's ``loc`` is the offset of its token, read from the stream's
list of token starts, so parsing works out no line or column; the
specification, its processes and its sorts keep the text (see ``ast``).

A LOTOS "library" clause after ":=" is rejected at its keyword, like any
other shape the parser does not read, but with its own code
(library-not-supported): finite sorts stand in for data types.
"""
from __future__ import annotations

from . import ast
from .diagnostics import LIBRARY_NOT_SUPPORTED, NESTING_TOO_DEEP, Diagnostic
from .lexer import IDENT, PUNCT, ParseFailure, TokenStream, parse_or_bail

_FUNCTIONALITIES = ("noexit", "exit")
# identifiers that end an action prefix chain rather than name an action
_BEHAVIOUR_KEYWORDS = frozenset(
    ["stop", "exit", "hide", "where", "endproc", "endprocess", "endspec", "process", "in"]
)


class _Parser:
    def __init__(self, stream: TokenStream):
        self.ts = stream
        # value name -> sort name, from the sorts section; guides offer parsing
        self.value_sorts: dict[str, str] = {}

    # ------------------------------------------------------------------
    # header pieces

    def _gate_list(self, empty_brackets_ok: bool = True) -> tuple[str, ...]:
        """Parse an optional bracketed gate list.

        In behaviour position "[]" is the choice operator, so instantiation
        sites pass empty_brackets_ok=False and "P [] Q" stays a choice.
        """
        if empty_brackets_ok and self.ts.accept_punct("[]"):
            return ()
        if not self.ts.accept_punct("[") or self.ts.accept_punct("]"):
            return ()
        names = self.ts.expect_idents("a gate name")
        self.ts.expect_punct("]")
        return tuple(names)

    def _functionality(self) -> str:
        for f in _FUNCTIONALITIES:
            if self.ts.accept_kw(f):
                return f
        raise self.ts.expected("'noexit' or 'exit'")

    def _sorts_section(self) -> list[ast.SortDecl]:
        decls: list[ast.SortDecl] = []
        while self.ts.kind == IDENT and not self.ts.at_kw("behaviour") and not self.ts.at_kw("behavior"):
            name, at = self.ts.text, self.ts.advance()
            self.ts.expect_punct("=")
            self.ts.expect_punct("{")
            values = self.ts.expect_idents("a value name")
            self.ts.expect_punct("}")
            decls.append(ast.SortDecl(name, tuple(values), self.ts._starts[at], self.ts.source))
            for v in values:
                self.value_sorts.setdefault(v, name)
        if not decls:
            raise self.ts.error("expected at least one sort declaration")
        return decls

    # ------------------------------------------------------------------
    # behaviour expressions

    def behaviour(self, level: int = 0) -> ast.Behavior:
        """Precedence climbing over ast.OPERATORS: an operand, then every
        operator of at least this level, each with a right operand of the
        operators binding strictly tighter, so that all associate to the
        left.  A "(" or "hide" level costs three frames: this, _prefix and
        _atom."""
        ts = self.ts
        left = self._prefix()
        while True:
            entry = ast.OPERATORS.get(ts.text) if ts.kind == PUNCT else None
            if entry is None or entry[0] < level:
                return left
            op = ts.advance()
            op_level, node, kind = entry
            gates: frozenset[str] = frozenset()
            if kind is ast.ParKind.GATES:
                gates = frozenset(ts.expect_idents("a gate name"))
                ts.expect_punct("]|")
            right = self.behaviour(op_level + 1)
            if kind is None:
                left = node(left, right, ts._starts[op])
            else:
                left = ast.Par(left, kind, gates, right, ts._starts[op])

    def _prefix(self) -> ast.Behavior:
        # a loop, not a recursion per "a;", so long prefix chains parse
        ts = self.ts
        actions: list[ast.ActionExpr] = []
        while True:
            if ts.kind != IDENT or ts.text.lower() in _BEHAVIOUR_KEYWORDS:
                rest = self._atom()
                break
            # identifier: action prefix or process instantiation
            name, at = ts.text, ts.advance()
            follow = ts.text if ts.kind == PUNCT else None
            if follow == ";":
                ts.advance()
                if name == "i":
                    actions.append(ast.InternalAction(ts._starts[at]))
                else:
                    actions.append(ast.Comm(name, (), ts._starts[at]))
            elif follow in ("!", "?"):
                actions.append(self._finish_action(name, at))
                ts.expect_punct(";")
            else:
                gates = self._gate_list(empty_brackets_ok=False)
                rest = ast.Inst(name, gates, ts._starts[at])
                break
        for action in reversed(actions):
            rest = ast.Prefix(action, rest, action.loc)
        return rest

    def _finish_action(self, gate: str, at: int) -> ast.Comm:
        ts = self.ts
        offers: list[ast.Offer] = []
        while (offer := ts.text if ts.kind == PUNCT else None) in ("!", "?"):
            ts.advance()
            loc = ts._starts[ts.i]
            if offer == "!":
                name = ts.expect_ident("a value or variable name")
                if name in self.value_sorts:
                    expr: ast.ValueExpr = ast.ValueLit(name, self.value_sorts[name], loc)
                else:
                    expr = ast.VarRef(name, loc)
                offers.append(ast.Send(expr, loc))
            else:
                name = ts.expect_ident("a variable name")
                ts.expect_punct(":")
                sort = ts.expect_ident("a sort name")
                offers.append(ast.Receive(name, sort, loc))
        return ast.Comm(gate, tuple(offers), ts._starts[at])

    def _atom(self) -> ast.Behavior:
        ts = self.ts
        at, word = ts.i, ts.text
        if ts.accept_kw("stop"):
            return ast.Stop(ts._starts[at])
        if ts.accept_kw("exit"):
            return ast.Exit(ts._starts[at])
        # "hide" and "(" are where the parser recurses; running out of stack
        # below them is reported at the deepest one that can still raise
        try:
            if ts.accept_kw("hide"):
                names = ts.expect_idents("a gate name")
                ts.expect_kw("in")
                body = self.behaviour()
                return ast.Hide(frozenset(names), body, ts._starts[at])
            if ts.accept_punct("("):
                inner = self.behaviour()
                ts.expect_punct(")")
                return inner
        except RecursionError:
            raise ParseFailure(ts.span(at), f"'{word}' nested too deeply to parse",
                               NESTING_TOO_DEEP) from None
        raise ts.expected("a behaviour expression")

    # ------------------------------------------------------------------
    # top level

    def specification(self) -> ast.Specification:
        head = self.ts.expect_kw("specification")
        name = self.ts.expect_ident("a specification name")
        gates = self._gate_list()
        self.ts.expect_punct(":")
        self._functionality()
        self.ts.expect_punct(":=")

        if self.ts.at_kw("library"):
            raise ParseFailure(self.ts.span(self.ts.i),
                               "library sections are not supported; declare finite sorts instead",
                               LIBRARY_NOT_SUPPORTED)

        sorts: list[ast.SortDecl] = []
        if self.ts.accept_kw("sorts"):
            sorts = self._sorts_section()

        if not (self.ts.accept_kw("behaviour") or self.ts.accept_kw("behavior")):
            raise self.ts.expected("'behaviour'")
        top = self.behaviour()

        processes: list[ast.ProcessDef] = []
        if self.ts.accept_kw("where"):
            while self.ts.at_kw("process"):
                processes.append(self._process_def())
            if not processes:
                raise self.ts.expected("a process definition")

        self.ts.expect_kw("endspec")
        self.ts.expect_eof("endspec")

        return ast.Specification(
            name=name,
            top_gates=gates,
            sorts=tuple(sorts),
            processes=tuple(processes),
            top_behavior=top,
            loc=self.ts._starts[head],
            source=self.ts.source,
        )

    def _process_def(self) -> ast.ProcessDef:
        head = self.ts.expect_kw("process")
        name = self.ts.expect_ident("a process name")
        gates = self._gate_list()
        self.ts.expect_punct(":")
        func = self._functionality()
        self.ts.expect_punct(":=")
        body = self.behaviour()
        if not (self.ts.accept_kw("endproc") or self.ts.accept_kw("endprocess")):
            raise self.ts.expected("'endproc'")
        return ast.ProcessDef(name, gates, func, body, self.ts._starts[head], self.ts.source)


# ----------------------------------------------------------------------
# entry points


def parse_spec(text: str) -> tuple[ast.Specification | None, list[Diagnostic]]:
    """Parse a full specification.  Returns (spec, diagnostics); the spec
    is None exactly when there is a diagnostic.  Never raises."""
    return parse_or_bail(_Parser(TokenStream(text)).specification, [])


def parse_behavior(
    text: str, value_sorts: dict[str, str] | None = None
) -> tuple[ast.Behavior | None, list[Diagnostic]]:
    """Parse a bare behaviour expression, reading the names in value_sorts
    as values of their sorts.  Returns (behaviour, diagnostics) like
    parse_spec."""
    parser = _Parser(TokenStream(text))
    parser.value_sorts.update(value_sorts or {})

    def read() -> ast.Behavior:
        b = parser.behaviour()
        parser.ts.expect_eof("behaviour")
        return b

    return parse_or_bail(read, [])
