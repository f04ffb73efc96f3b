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

A LOTOS "library" clause after ":=" is rejected at its keyword, like any
other shape the parser does not read, but with its own code
(library-not-supported): finite sorts stand in for data types.
"""
from __future__ import annotations

from . import ast
from .diagnostics import Diagnostic, LIBRARY_NOT_SUPPORTED
from .lexer import IDENT, PUNCT, NestingFailure, ParseFailure, Token, TokenStream, parse_or_bail

_FUNCTIONALITIES = ("noexit", "exit")


class LibraryFailure(ParseFailure):
    code = LIBRARY_NOT_SUPPORTED


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
        tok = self.ts.peek()
        for f in _FUNCTIONALITIES:
            if self.ts.accept_kw(f):
                return f
        raise ParseFailure(tok.span, f"expected 'noexit' or 'exit', found '{tok.text}'")

    def _sorts_section(self) -> list[ast.SortDecl]:
        decls: list[ast.SortDecl] = []
        while self.ts.peek().kind == IDENT and not self.ts.at_kw("behaviour") and not self.ts.at_kw("behavior"):
            name_tok = self.ts.next()
            self.ts.expect_punct("=")
            self.ts.expect_punct("{")
            values = self.ts.expect_idents("a value name")
            self.ts.expect_punct("}")
            decls.append(ast.SortDecl(name_tok.text, tuple(values), loc=name_tok.span))
            for v in values:
                self.value_sorts.setdefault(v, name_tok.text)
        if not decls:
            raise ParseFailure(self.ts.peek().span, "expected at least one sort declaration")
        return decls

    # ------------------------------------------------------------------
    # behaviour expressions

    def behaviour(self, level: int = 0) -> ast.Behavior:
        """Precedence climbing over ast.OPERATORS: an operand, then every
        operator of at least this level, each with a right operand of the
        operators binding strictly tighter, so that all associate to the
        left.  A "(" or "hide" level costs three frames: this, _prefix and
        _atom."""
        left = self._prefix()
        while True:
            op = self.ts.peek()
            entry = ast.OPERATORS.get(op.text) if op.kind == PUNCT else None
            if entry is None or entry[0] < level:
                return left
            self.ts.next()
            op_level, node, kind = entry
            gates: frozenset[str] = frozenset()
            if kind is ast.ParKind.GATES:
                gates = frozenset(self.ts.expect_idents("a gate name"))
                self.ts.expect_punct("]|")
            right = self.behaviour(op_level + 1)
            if kind is None:
                left = node(left, right, loc=op.span)
            else:
                left = ast.Par(left, kind, gates, right, loc=op.span)

    def _prefix(self) -> ast.Behavior:
        # a loop, not a recursion per "a;", so long prefix chains parse
        actions: list[ast.ActionExpr] = []
        while True:
            tok = self.ts.peek()
            if tok.kind != IDENT or self._is_behaviour_keyword(tok):
                rest = self._atom()
                break
            # identifier: action prefix or process instantiation
            name = self.ts.next()
            after = self.ts.peek()
            follow = after.text if after.kind == PUNCT else None
            if follow == ";":
                self.ts.next()
                if name.text == "i":
                    actions.append(ast.InternalAction(loc=name.span))
                else:
                    actions.append(ast.Comm(name.text, (), loc=name.span))
            elif follow in ("!", "?"):
                actions.append(self._finish_action(name))
                self.ts.expect_punct(";")
            else:
                gates = self._gate_list(empty_brackets_ok=False)
                rest = ast.Inst(name.text, gates, loc=name.span)
                break
        for action in reversed(actions):
            rest = ast.Prefix(action, rest, loc=action.loc)
        return rest

    def _finish_action(self, gate: Token) -> ast.Comm:
        offers: list[ast.Offer] = []
        while True:
            if self.ts.accept_punct("!"):
                val = self.ts.expect_ident("a value or variable name")
                if val.text in self.value_sorts:
                    expr: ast.ValueExpr = ast.ValueLit(val.text, self.value_sorts[val.text], loc=val.span)
                else:
                    expr = ast.VarRef(val.text, loc=val.span)
                offers.append(ast.Send(expr, loc=val.span))
            elif self.ts.accept_punct("?"):
                var = self.ts.expect_ident("a variable name")
                self.ts.expect_punct(":")
                sort = self.ts.expect_ident("a sort name")
                offers.append(ast.Receive(var.text, sort.text, loc=var.span))
            else:
                return ast.Comm(gate.text, tuple(offers), loc=gate.span)

    _BEHAVIOUR_KEYWORDS = frozenset(
        ["stop", "exit", "hide", "where", "endproc", "endprocess", "endspec", "process", "in"]
    )

    def _is_behaviour_keyword(self, tok: Token) -> bool:
        return tok.text.lower() in self._BEHAVIOUR_KEYWORDS

    def _atom(self) -> ast.Behavior:
        tok = self.ts.peek()
        if self.ts.accept_kw("stop"):
            return ast.Stop(loc=tok.span)
        if self.ts.accept_kw("exit"):
            return ast.Exit(loc=tok.span)
        # "hide" and "(" are where the parser recurses; running out of stack
        # below them is reported at the deepest one that can still raise
        try:
            if self.ts.accept_kw("hide"):
                names = self.ts.expect_idents("a gate name")
                self.ts.expect_kw("in")
                body = self.behaviour()
                return ast.Hide(frozenset(names), body, loc=tok.span)
            if self.ts.accept_punct("("):
                inner = self.behaviour()
                self.ts.expect_punct(")")
                return inner
        except RecursionError:
            raise NestingFailure(tok.span, f"'{tok.text}' nested too deeply to parse") from None
        raise ParseFailure(tok.span, f"expected a behaviour expression, found '{tok.text}'")

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
            raise LibraryFailure(self.ts.peek().span,
                                 "library sections are not supported; declare finite sorts instead")

        sorts: list[ast.SortDecl] = []
        if self.ts.accept_kw("sorts"):
            sorts = self._sorts_section()

        if not (self.ts.accept_kw("behaviour") or self.ts.accept_kw("behavior")):
            tok = self.ts.peek()
            raise ParseFailure(tok.span, f"expected 'behaviour', found '{tok.text}'")
        top = self.behaviour()

        processes: list[ast.ProcessDef] = []
        if self.ts.accept_kw("where"):
            while self.ts.at_kw("process"):
                processes.append(self._process_def())
            if not processes:
                tok = self.ts.peek()
                raise ParseFailure(tok.span, f"expected a process definition, found '{tok.text}'")

        self.ts.expect_kw("endspec")
        self.ts.expect_eof("endspec")

        return ast.Specification(
            name=name.text,
            top_gates=gates,
            sorts=tuple(sorts),
            processes=tuple(processes),
            top_behavior=top,
            loc=head.span,
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
            tok = self.ts.peek()
            raise ParseFailure(tok.span, f"expected 'endproc', found '{tok.text}'")
        return ast.ProcessDef(name.text, gates, func, body, loc=head.span)


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
