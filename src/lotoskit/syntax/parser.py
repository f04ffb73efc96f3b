"""Parser for behaviour specifications.

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
reads too; ``behaviour`` parses them by precedence climbing on explicit
stacks, so nesting of any depth parses without recursion.
All binary operators associate to the left.  Precedence, tightest first:
";", "[]", the parallel operators, "[>", ">>".  "hide ... in" extends as
far right as possible.

An action and a process instantiation both start with an identifier; the
next token decides: "!", "?" or ";" continue an action, anything else is
an instantiation.  Send offers "!v" are resolved against the declared sort
values at parse time; unknown names become variable references and are
checked later by the validator.

Each node's ``loc`` is the index of its token in the stream, so parsing
works out no offset, line or column; the specification, its processes
and its sorts keep the text (see ``ast``).  A token's kind follows from
its text: an identifier starts with a letter, and a string keeps its
quotes, so no punctuation or keyword test can take a string.

A LOTOS "library" clause after ":=" is rejected at its keyword, like any
other shape the parser does not read, but with its own code
(library-not-supported): finite sorts stand in for data types.
"""
from __future__ import annotations

from . import ast
from .diagnostics import LIBRARY_NOT_SUPPORTED, Diagnostic
from .lexer import ParseFailure, TokenStream, parse_or_bail

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
        while self.ts.text[:1].isalpha() and not self.ts.at_kw("behaviour") and not self.ts.at_kw("behavior"):
            name, at = self.ts.text, self.ts.advance()
            self.ts.expect_punct("=")
            self.ts.expect_punct("{")
            values = self.ts.expect_idents("a value name")
            self.ts.expect_punct("}")
            decls.append(ast.SortDecl(name, tuple(values), at, self.ts.source))
            for v in values:
                self.value_sorts.setdefault(v, name)
        if not decls:
            raise self.ts.error("expected at least one sort declaration")
        return decls

    # ------------------------------------------------------------------
    # behaviour expressions

    def behaviour(self) -> ast.Behavior:
        """Precedence climbing on one stack of pending (left operand,
        operator) pairs; an operator first reduces the pending ones that
        bind at least as tightly, so all associate to the left.  An open
        "(" or "hide" pushes a frame of its token, a hide's gates, the
        actions prefixed to it and the enclosing stack.  "(" closes at
        ")", "hide" at the first token after an operand that is no binary
        operator, and the enclosing frame reads that token again."""
        ts = self.ts
        # pending holds (left operand, (level, node class, parallel kind), gates, token index)
        frames, pending = [], []
        while True:
            actions: list[ast.ActionExpr] = []
            operand = self._prefix(actions)
            if operand is None:
                opener, at, gates = ts.text, ts.advance(), None
                if opener != "(":
                    gates = frozenset(ts.expect_idents("a gate name"))
                    ts.expect_kw("in")
                frames.append((at, gates, actions, pending))
                pending = []
                continue
            while True:
                while actions:
                    action = actions.pop()
                    operand = ast.Prefix(action, operand, action.loc)
                entry = ast.OPERATORS.get(ts.text)
                # any other token ends the frame's expression: reduce it all
                level = entry[0] if entry else 0
                while pending and pending[-1][1][0] >= level:
                    left, (_, node, kind), gates, loc = pending.pop()
                    operand = (node(left, operand, loc) if kind is None
                               else ast.Par(left, kind, gates, operand, loc))
                if entry:
                    break
                if not frames:
                    return operand
                at, gates, actions, pending = frames.pop()
                if gates is None:
                    ts.expect_punct(")")
                else:
                    operand = ast.Hide(gates, operand, at)
            loc, gates = ts.advance(), frozenset()
            if entry[2] is ast.ParKind.GATES:
                gates = frozenset(ts.expect_idents("a gate name"))
                ts.expect_punct("]|")
            pending.append((operand, entry, gates, loc))

    def _prefix(self, actions: list[ast.ActionExpr]) -> ast.Behavior | None:
        """Append the actions of a prefix chain, read in a loop, to actions;
        return the operand they prefix, or None where "(" or "hide" opens it."""
        ts = self.ts
        while True:
            if not ts.text[:1].isalpha() or ts.text.lower() in _BEHAVIOUR_KEYWORDS:
                if ts.at_kw("stop"):
                    return ast.Stop(ts.advance())
                if ts.at_kw("exit"):
                    return ast.Exit(ts.advance())
                if ts.at_punct("(") or ts.at_kw("hide"):
                    return None
                raise ts.expected("a behaviour expression")
            # identifier: action prefix or process instantiation
            name, at = ts.text, ts.advance()
            if ts.text == ";":
                ts.advance()
                actions.append(ast.InternalAction(at) if name == "i" else ast.Comm(name, (), at))
            elif ts.text in ("!", "?"):
                actions.append(self._finish_action(name, at))
                ts.expect_punct(";")
            else:
                return ast.Inst(name, self._gate_list(empty_brackets_ok=False), at)

    def _finish_action(self, gate: str, at: int) -> ast.Comm:
        ts = self.ts
        offers: list[ast.Offer] = []
        while (offer := ts.text) in ("!", "?"):
            ts.advance()
            loc = ts.i
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
        return ast.Comm(gate, tuple(offers), at)

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
            loc=head,
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
        return ast.ProcessDef(name, gates, func, body, head, self.ts.source)


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
