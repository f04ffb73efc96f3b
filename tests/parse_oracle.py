"""The recursive-descent parsers as they were before the flat token
stream, the oracle of parse_spec, parse_behavior, parse_adl and parse_asc.

Each token is a ``Token`` object with its ``Span`` built as it is lexed,
and ``TokenStream`` holds one token of lookahead, lexing the next token
only when a parser peeks at it.  So a lex failure is raised the first
time a parser looks at the bad character, and an ``assert { ... }`` block
is read from wherever the lexer stands.  Slower than the stream in
lotoskit.syntax.lexer and plainly right; the stream is checked against it
on corpus texts, printed random terms and their corruptions.  It recurses
once per "(" and "hide", so the differential tests feed it only shallow
texts; the parser under test keeps its own stacks.  A message
names the token found as ``str(Token)`` does: a string literal in double
quotes as written, another token in single quotes, "end of input" at the
end; a query variable's diagnostic stands at the variable's token.  No
comma list of an .asc or .adl file takes a trailing comma, as no list of
a .lot file does."""
from __future__ import annotations

import re
from bisect import bisect_right
from collections.abc import Callable

from lotoskit.adl import COMPONENT, CONNECTOR, ArchConfig, ArchElement
from lotoskit.contracts import (
    Atom,
    AscContract,
    BcRef,
    Const,
    InterfaceContract,
    PREDICATES,
    Query,
    Term,
    Var,
)
from lotoskit.syntax import ast
from lotoskit.syntax.asc import _IC_SECTIONS
from lotoskit.syntax.diagnostics import (
    BAD_ARITY,
    DUPLICATE_DEFINITION,
    LEX_ERROR,
    LIBRARY_NOT_SUPPORTED,
    Diagnostic,
    MALFORMED_IC,
    Span,
    UNKNOWN_PREDICATE,
    UNKNOWN_QUERY_VARIABLE,
    error,
)
from lotoskit.syntax.lexer import EOF, IDENT, PUNCT, STRING, ParseFailure, parse_or_bail
from lotoskit.syntax.parser import _FUNCTIONALITIES
from lex_oracle import PUNCTUATION

# The token pattern of the lexer that lexed one token at a time:
# whitespace, then a token or a comment opener, the group names being the
# token kinds; a comment opener comes before the punctuation "(".
_CLOSERS = {"(*": "*)", "/*": "*/"}
_SPACE = re.compile(r"[ \t\r\n]*")
_COMMENT = "comment"
_TOKEN = re.compile(
    rf"{_SPACE.pattern}(?:(?P<{IDENT}>[A-Za-z][A-Za-z0-9_]*(?:-[A-Za-z0-9_]+)*)"
    rf'|(?P<{STRING}>"[^"\n]*")|(?P<{_COMMENT}>{"|".join(map(re.escape, _CLOSERS))})'
    rf"|(?P<{PUNCT}>{'|'.join(map(re.escape, PUNCTUATION))}))"
)
_BRACE = re.compile(r"[{}]")


class Token:
    __slots__ = ("kind", "text", "span")

    def __init__(self, kind: str, text: str, span: Span):
        self.kind = kind
        self.text = text
        self.span = span

    def is_kw(self, word: str) -> bool:
        return self.kind == IDENT and self.text.lower() == word

    def __str__(self) -> str:
        if self.kind == EOF:
            return "end of input"
        return f'"{self.text}"' if self.kind == STRING else f"'{self.text}'"



class Lexer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self._line_starts = [0] + [m.end() for m in re.finditer("\n", text)]

    def _point(self, pos: int) -> Span:
        line = bisect_right(self._line_starts, pos)
        return Span.point(line, pos - self._line_starts[line - 1] + 1)

    def _skip_trivia(self) -> int:
        """Move past whitespace and comments; returns the new offset."""
        text = self.text
        pos = _SPACE.match(text, self.pos).end()
        while text[pos:pos + 2] in _CLOSERS:
            pos = _SPACE.match(text, self._skip_comment(pos)).end()
        self.pos = pos
        return pos

    def _skip_comment(self, start: int) -> int:
        """The offset just past the comment opened at start, which may
        nest comments of its own kind."""
        text = self.text
        opener = text[start:start + 2]
        closer = _CLOSERS[opener]
        depth, pos = 1, start + 2
        while True:
            close = text.find(closer, pos)
            if close < 0:
                raise ParseFailure(self._point(start),
                                   f"unterminated comment ('{opener}' without '{closer}')", LEX_ERROR)
            # an opener may overlap the closer, as in "(*)", and wins
            nested = text.find(opener, pos, close + 1)
            if nested >= 0:
                depth, pos = depth + 1, nested + 2
            else:
                depth, pos = depth - 1, close + 2
                if depth == 0:
                    return pos

    def next_token(self) -> Token:
        text = self.text
        m = _TOKEN.match(text, self.pos)
        while m is not None and m.lastgroup == _COMMENT:
            m = _TOKEN.match(text, self._skip_comment(m.start(_COMMENT)))
        if m is None:
            pos = self._skip_trivia()
            if pos == len(text):
                return Token(EOF, "", self._point(pos))
            ch = text[pos]
            raise ParseFailure(self._point(pos), "unterminated string literal" if ch == '"'
                               else f"unexpected character {ch!r}", LEX_ERROR)
        kind = m.lastgroup
        value = m.group(kind)
        self.pos = end = m.end()
        pos = end - len(value)
        starts = self._line_starts
        line = bisect_right(starts, pos)
        col = pos - starts[line - 1] + 1
        return Token(kind, value[1:-1] if kind == STRING else value,
                     Span(line, col, line, col + len(value)))

    def raw_brace_block(self) -> tuple[str, Span]:
        """Read a ``{ ... }`` block as raw text (used for stored-not-parsed
        sections).  Braces inside must balance; everything else is free
        text.  Returns the inner text, stripped."""
        pos = self._skip_trivia()
        open_span = self._point(pos)
        if not self.text.startswith("{", pos):
            raise ParseFailure(open_span, "expected '{'", LEX_ERROR)
        depth = 0
        for m in _BRACE.finditer(self.text, pos):
            depth += 1 if m.group() == "{" else -1
            if depth == 0:
                self.pos = end = m.end()
                close = self._point(end)
                return self.text[pos + 1:m.start()].strip(), Span(
                    open_span.line, open_span.col, close.line, close.col)
        raise ParseFailure(open_span, "unterminated '{' block", LEX_ERROR)


class TokenStream:
    """One-token-lookahead stream over the lexer.

    ``raw_brace_block`` is only legal while no lookahead is buffered, so the
    parser must call it immediately after consuming the preceding token.
    """

    def __init__(self, text: str):
        self.lexer = Lexer(text)
        self._buffered: Token | None = None

    def peek(self) -> Token:
        if self._buffered is None:
            self._buffered = self.lexer.next_token()
        return self._buffered

    def next(self) -> Token:
        tok = self.peek()
        self._buffered = None
        return tok

    def at_punct(self, text: str) -> bool:
        t = self.peek()
        return t.kind == PUNCT and t.text == text

    def at_kw(self, word: str) -> bool:
        return self.peek().is_kw(word)

    def accept_punct(self, text: str) -> Token | None:
        if self.at_punct(text):
            return self.next()
        return None

    def accept_kw(self, word: str) -> Token | None:
        if self.at_kw(word):
            return self.next()
        return None

    def expect_punct(self, text: str) -> Token:
        tok = self.peek()
        if not self.at_punct(text):
            raise ParseFailure(tok.span, f"expected '{text}', found {tok}")
        return self.next()

    def expect_kw(self, word: str) -> Token:
        tok = self.peek()
        if not self.at_kw(word):
            raise ParseFailure(tok.span, f"expected '{word}', found {tok}")
        return self.next()

    def expect_ident(self, what: str) -> Token:
        tok = self.peek()
        if tok.kind != IDENT:
            raise ParseFailure(tok.span, f"expected {what}, found {tok}")
        return self.next()

    def expect_file_name(self) -> str:
        tok = self.peek()
        if tok.kind != STRING:
            raise ParseFailure(tok.span, f"expected a quoted file name, found {tok}")
        return self.next().text

    def expect_idents(self, what: str) -> list[str]:
        """IDENT ("," IDENT)*: the texts of one or more comma-separated
        identifiers, each described as what in a diagnostic."""
        names = [self.expect_ident(what).text]
        while self.accept_punct(","):
            names.append(self.expect_ident(what).text)
        return names

    def expect_eof(self, after: str) -> None:
        """Nothing may follow the closing word after."""
        tail = self.peek()
        if tail.kind != EOF:
            raise ParseFailure(tail.span, f"unexpected '{tail.text}' after {after}")

    def sections(self, what: str, handlers: dict[str, Callable[[], object]],
                 repeatable: frozenset[str] = frozenset()) -> tuple[dict[str, object], Token]:
        """Sections led by a keyword of handlers, in any order, up to "end"
        and the end of input; each appears at most once unless it is
        repeatable.  Returns each section's last handler result, and the
        "end" token."""
        found: dict[str, object] = {}
        while not self.at_kw("end"):
            tok = self.peek()
            if tok.kind == EOF:
                raise ParseFailure(tok.span, "missing 'end'")
            part = tok.text.lower()
            if part in found and part not in repeatable:
                raise ParseFailure(tok.span, f"section '{part}' appears twice")
            handler = handlers.get(part) if tok.kind == IDENT else None
            if handler is None:
                raise ParseFailure(tok.span, f"expected a {what} section, found {tok}")
            self.next()
            found[part] = handler()
        end = self.next()
        self.expect_eof("end")
        return found, end

    def raw_brace_block(self) -> tuple[str, Span]:
        if self._buffered is not None:
            # Lookahead already consumed part of the raw region; rewind.
            raise RuntimeError("raw_brace_block called with buffered lookahead")
        return self.lexer.raw_brace_block()



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
        raise ParseFailure(tok.span, f"expected 'noexit' or 'exit', found {tok}")

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
        if self.ts.accept_kw("hide"):
            names = self.ts.expect_idents("a gate name")
            self.ts.expect_kw("in")
            body = self.behaviour()
            return ast.Hide(frozenset(names), body, loc=tok.span)
        if self.ts.accept_punct("("):
            inner = self.behaviour()
            self.ts.expect_punct(")")
            return inner
        raise ParseFailure(tok.span, f"expected a behaviour expression, found {tok}")

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
            raise ParseFailure(self.ts.peek().span,
                               "library sections are not supported; declare finite sorts instead",
                               LIBRARY_NOT_SUPPORTED)

        sorts: list[ast.SortDecl] = []
        if self.ts.accept_kw("sorts"):
            sorts = self._sorts_section()

        if not (self.ts.accept_kw("behaviour") or self.ts.accept_kw("behavior")):
            tok = self.ts.peek()
            raise ParseFailure(tok.span, f"expected 'behaviour', found {tok}")
        top = self.behaviour()

        processes: list[ast.ProcessDef] = []
        if self.ts.accept_kw("where"):
            while self.ts.at_kw("process"):
                processes.append(self._process_def())
            if not processes:
                tok = self.ts.peek()
                raise ParseFailure(tok.span, f"expected a process definition, found {tok}")

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
            raise ParseFailure(tok.span, f"expected 'endproc', found {tok}")
        return ast.ProcessDef(name.text, gates, func, body, loc=head.span)


class _AscParser:
    def __init__(self, stream: TokenStream):
        self.ts = stream
        self.diagnostics: list[Diagnostic] = []

    # ------------------------------------------------------------------

    def contract(self) -> AscContract:
        self.ts.expect_kw("component")
        name = self.ts.expect_ident("a contract name")
        self.ts.expect_kw("where")
        parts, _ = self.ts.sections("contract", {
            "assert": lambda: self.ts.raw_brace_block()[0],
            "sc": self._sc,
            "ic": self._interface,
            "bc": self._bc,
        })
        return AscContract(name.text, parts.get("assert"), parts.get("sc"),
                           parts.get("ic"), parts.get("bc"))

    # ------------------------------------------------------------------

    def _sc(self) -> Query:
        self.ts.expect_punct("{")
        sc = self._query()
        self.ts.expect_punct("}")
        return sc

    def _query(self) -> Query:
        tokens: list[Token] = []
        if self.ts.at_kw("exists"):
            self.ts.next()
            tokens.append(self.ts.expect_ident("a variable name"))
            while self.ts.accept_punct(","):
                tokens.append(self.ts.expect_ident("a variable name"))
            self.ts.expect_punct(".")
        variables = [tok.text for tok in tokens]
        declared = set()
        for tok in tokens:
            if tok.text in declared:
                self.diagnostics.append(
                    error(f"variable '{tok.text}' is declared twice", tok.span, DUPLICATE_DEFINITION)
                )
            declared.add(tok.text)

        atoms = [self._atom(declared)]
        while self.ts.accept_kw("and"):
            atoms.append(self._atom(declared))

        used = {t.name for a in atoms for t in a.args if isinstance(t, Var)}
        for tok in tokens:
            if tok.text not in used:
                self.diagnostics.append(
                    error(
                        f"variable '{tok.text}' does not occur in the query",
                        tok.span,
                        UNKNOWN_QUERY_VARIABLE,
                    )
                )
        return Query(tuple(variables), tuple(atoms))

    def _atom(self, variables: set[str]) -> Atom:
        pred = self.ts.expect_ident("a predicate name")
        self.ts.expect_punct("(")
        terms: list[Term] = []
        if not self.ts.at_punct(")"):
            terms.append(self._term(variables))
            while self.ts.accept_punct(","):
                terms.append(self._term(variables))
        self.ts.expect_punct(")")

        arity = PREDICATES.get(pred.text)
        if arity is None:
            self.diagnostics.append(error(f"unknown predicate '{pred.text}'", pred.span, UNKNOWN_PREDICATE))
        elif arity != len(terms):
            self.diagnostics.append(
                error(f"'{pred.text}' takes {arity} argument(s), got {len(terms)}", pred.span, BAD_ARITY)
            )
        return Atom(pred.text, tuple(terms))

    def _term(self, variables: set[str]) -> Term:
        tok = self.ts.expect_ident("a term")
        return Var(tok.text) if tok.text in variables else Const(tok.text)

    # ------------------------------------------------------------------

    def _interface(self) -> InterfaceContract:
        self.ts.expect_punct("{")
        parts: dict[str, tuple] = {}
        while not self.ts.at_punct("}"):
            tok = self.ts.peek()
            if tok.kind != IDENT or tok.text.lower() not in _IC_SECTIONS:
                raise ParseFailure(
                    tok.span,
                    f"expected one of {', '.join(_IC_SECTIONS)}, found {tok}",
                )
            section = tok.text.lower()
            self.ts.next()
            if section in parts:
                self.diagnostics.append(error(f"'{section}' appears twice", tok.span, MALFORMED_IC))
            self.ts.expect_punct("{")
            if section in ("processes", "external_in"):
                parts[section] = self._name_list()
            elif section in ("in_ports", "out_ports"):
                parts[section] = self._pair_list(":")
            elif section in ("in_msgs", "out_msgs"):
                parts[section] = self._pair_list("->")
            else:
                parts[section] = self._flow_list()
            self.ts.expect_punct("}")
        self.ts.expect_punct("}")
        return InterfaceContract(
            participants=parts.get("processes", ()),
            in_ports=parts.get("in_ports", ()),
            out_ports=parts.get("out_ports", ()),
            in_msgs=parts.get("in_msgs", ()),
            out_msgs=parts.get("out_msgs", ()),
            external_in=parts.get("external_in", ()),
            flows=parts.get("flows", ()),
        )

    def _name_list(self) -> tuple[str, ...]:
        if self.ts.peek().kind != IDENT:
            return ()
        return tuple(self.ts.expect_idents("a name"))

    def _pair_list(self, sep: str) -> tuple[tuple[str, str], ...]:
        pairs: list[tuple[str, str]] = []
        if self.ts.peek().kind == IDENT:
            pairs.append(self._pair(sep))
            while self.ts.accept_punct(","):
                pairs.append(self._pair(sep))
        return tuple(pairs)

    def _pair(self, sep: str) -> tuple[str, str]:
        a = self.ts.expect_ident("a name")
        self.ts.expect_punct(sep)
        b = self.ts.expect_ident("a name")
        return (a.text, b.text)

    def _flow_list(self) -> tuple[tuple[str, str, str], ...]:
        flows: list[tuple[str, str, str]] = []
        if self.ts.peek().kind == IDENT:
            flows.append(self._flow())
            while self.ts.accept_punct(","):
                flows.append(self._flow())
        return tuple(flows)

    def _flow(self) -> tuple[str, str, str]:
        msg = self.ts.expect_ident("a message name")
        self.ts.expect_punct(":")
        src = self.ts.expect_ident("an output port")
        self.ts.expect_punct("->")
        dst = self.ts.expect_ident("an input port")
        return (msg.text, src.text, dst.text)

    # ------------------------------------------------------------------

    def _bc(self) -> BcRef | None:
        if self.ts.accept_kw("none"):
            return None
        name = self.ts.expect_ident("a behaviour name")
        self.ts.expect_kw("from")
        return BcRef(name.text, self.ts.expect_file_name())


class _AdlParser:
    def __init__(self, stream: TokenStream):
        self.ts = stream

    # ------------------------------------------------------------------

    def configuration(self) -> ArchConfig:
        self.ts.expect_kw("configuration")
        name = self.ts.expect_ident("a configuration name")
        uses: list[str] = []
        elements: list[ArchElement] = []
        parts, end = self.ts.sections("configuration", {
            "use": lambda: uses.append(self.ts.expect_file_name()),
            "components": lambda: elements.extend(self._bindings(COMPONENT)),
            "connectors": lambda: elements.extend(self._bindings(CONNECTOR)),
            "composition": self._composition,
        }, repeatable=frozenset({"use"}))
        if "composition" not in parts:
            raise ParseFailure(end.span, "configuration has no composition section")
        return ArchConfig(name.text, tuple(uses), tuple(elements), parts["composition"])

    def _composition(self) -> ast.Behavior:
        self.ts.expect_punct("{")
        composition = _Parser(self.ts).behaviour()
        self.ts.expect_punct("}")
        return composition

    def _bindings(self, role: str) -> list[ArchElement]:
        self.ts.expect_punct("{")
        out: list[ArchElement] = []
        if self.ts.peek().kind == IDENT:
            out.append(self._binding(role))
            while self.ts.accept_punct(","):
                out.append(self._binding(role))
        self.ts.expect_punct("}")
        return out

    def _binding(self, role: str) -> ArchElement:
        name = self.ts.expect_ident("an instance name")
        self.ts.expect_punct("=")
        process = self.ts.expect_ident("a process name")
        gates: tuple[str, ...] = ()
        if self.ts.accept_punct("["):
            gates = tuple(self.ts.expect_idents("a gate name"))
            self.ts.expect_punct("]")
        return ArchElement(name.text, role, process.text, gates)


def parse_spec(text: str) -> tuple[ast.Specification | None, list[Diagnostic]]:
    return parse_or_bail(_Parser(TokenStream(text)).specification, [])


def parse_behavior(
    text: str, value_sorts: dict[str, str] | None = None
) -> tuple[ast.Behavior | None, list[Diagnostic]]:
    parser = _Parser(TokenStream(text))
    parser.value_sorts.update(value_sorts or {})

    def read() -> ast.Behavior:
        b = parser.behaviour()
        parser.ts.expect_eof("behaviour")
        return b

    return parse_or_bail(read, [])


def parse_asc(text: str) -> tuple[AscContract | None, list[Diagnostic]]:
    parser = _AscParser(TokenStream(text))
    return parse_or_bail(parser.contract, parser.diagnostics)


def parse_adl(text: str) -> tuple[ArchConfig | None, list[Diagnostic]]:
    return parse_or_bail(_AdlParser(TokenStream(text)).configuration, [])
