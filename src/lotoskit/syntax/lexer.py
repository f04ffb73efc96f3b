"""Shared lexer for the .lot, .asc and .adl text formats.

Tokens are generic: the lexer knows nothing about keywords.  Each parser
decides which identifiers are reserved words (matched case-insensitively,
while identifiers themselves stay case-sensitive).

Identifiers may contain internal hyphens (``Client-Server``); there is no
arithmetic anywhere in these grammars, so the reading is unambiguous.
Comments are ``(* ... *)`` and ``/* ... */``, and both nest.  Each kind
counts only its own opener, so ``(*`` inside ``/* ... */`` is plain text.

Tokens are matched by one compiled regular expression; a token's span is
worked out from its offsets and the line starts, found once per text.

What the parsers share beyond tokens lives here too: ``TokenStream`` checks
the end of input and reads the keyword-led sections of .asc and .adl files,
and ``parse_or_bail`` gives every reader its one contract: a value exactly
when there are no diagnostics, and a bail-out as one diagnostic.
"""
from __future__ import annotations

import re
from bisect import bisect_right
from collections.abc import Callable
from typing import TypeVar

from .diagnostics import LEX_ERROR, NESTING_TOO_DEEP, SYNTAX_ERROR, Diagnostic, Span, error

IDENT = "ident"
STRING = "string"
PUNCT = "punct"
EOF = "eof"

# Longest match first.
_PUNCTUATION = (
    "|||", ":=", "[>", "[]", "|[", "]|", ">>", "->", "||",
    "[", "]", "(", ")", "{", "}", ";", ":", ",", "!", "?", "=", ".",
)

_CLOSERS = {"(*": "*)", "/*": "*/"}
_SPACE = re.compile(r"[ \t\r\n]*")
_COMMENT = "comment"
# Whitespace, then a token or a comment opener.  The group names are the
# token kinds; a comment opener comes before the punctuation "(".
_TOKEN = re.compile(
    rf"{_SPACE.pattern}(?:(?P<{IDENT}>[A-Za-z][A-Za-z0-9_]*(?:-[A-Za-z0-9_]+)*)"
    rf'|(?P<{STRING}>"[^"\n]*")'
    rf"|(?P<{_COMMENT}>{'|'.join(map(re.escape, _CLOSERS))})"
    rf"|(?P<{PUNCT}>{'|'.join(map(re.escape, _PUNCTUATION))}))"
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
        return "end of input" if self.kind == EOF else f"'{self.text}'"


class ParseFailure(Exception):
    """Bail-out of the lexer or a parser; parse_or_bail turns it into one
    diagnostic with the failure's code."""

    code = SYNTAX_ERROR

    def __init__(self, span: Span, message: str):
        super().__init__(message)
        self.span = span
        self.message = message


class LexFailure(ParseFailure):
    code = LEX_ERROR


class NestingFailure(ParseFailure):
    code = NESTING_TOO_DEEP


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
                raise LexFailure(self._point(start),
                                 f"unterminated comment ('{opener}' without '{closer}')")
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
            raise LexFailure(self._point(pos), "unterminated string literal" if ch == '"'
                             else f"unexpected character {ch!r}")
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
            raise LexFailure(open_span, "expected '{'")
        depth = 0
        for m in _BRACE.finditer(self.text, pos):
            depth += 1 if m.group() == "{" else -1
            if depth == 0:
                self.pos = end = m.end()
                close = self._point(end)
                return self.text[pos + 1:m.start()].strip(), Span(
                    open_span.line, open_span.col, close.line, close.col)
        raise LexFailure(open_span, "unterminated '{' block")


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
            raise ParseFailure(tok.span, f"expected '{text}', found '{tok.text}'")
        return self.next()

    def expect_kw(self, word: str) -> Token:
        tok = self.peek()
        if not self.at_kw(word):
            raise ParseFailure(tok.span, f"expected '{word}', found '{tok.text}'")
        return self.next()

    def expect_ident(self, what: str) -> Token:
        tok = self.peek()
        if tok.kind != IDENT:
            raise ParseFailure(tok.span, f"expected {what}, found '{tok.text}'")
        return self.next()

    def expect_file_name(self) -> str:
        tok = self.peek()
        if tok.kind != STRING:
            raise ParseFailure(tok.span, f"expected a quoted file name, found '{tok.text}'")
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
                raise ParseFailure(tok.span, f"expected a {what} section, found '{tok.text}'")
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


Value = TypeVar("Value")


def parse_or_bail(read: Callable[[], Value],
                  diagnostics: list[Diagnostic]) -> tuple[Value | None, list[Diagnostic]]:
    """The one contract of every reader: a value exactly when there are no
    diagnostics.  read()'s value when it added nothing to diagnostics;
    else no value and what it added, or the one diagnostic of a bail-out.
    Never raises."""
    try:
        value = read()
    except ParseFailure as exc:
        return None, [error(exc.message, exc.span, exc.code)]
    return (None if diagnostics else value), diagnostics
