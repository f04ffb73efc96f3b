"""Reference lexer used to cross-check lotoskit.syntax.lexer.

Deliberately written the slow, obvious way: it steps one character at a
time, keeps the line and column as it goes, and tries punctuation with
``startswith`` in a loop, longest first.  It shares only ``Span`` with
the real lexer; tokens are plain (kind, text, span) tuples, and a
failure carries its span.
"""
from __future__ import annotations

import re

from lotoskit.syntax.diagnostics import LEX_ERROR, SYNTAX_ERROR, Span

# the kinds of token
IDENT = "ident"
STRING = "string"
PUNCT = "punct"
EOF = "eof"
# the kind of the "" that ends a text which stops lexing
FAILED = "failed"

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*(?:-[A-Za-z0-9_]+)*")

# Longest match first.
PUNCTUATION = (
    "|||", ":=", "[>", "[]", "|[", "]|", ">>", "->", "||",
    "[", "]", "(", ")", "{", "}", ";", ":", ",", "!", "?", "=", ".",
)


class OracleFailure(Exception):
    """A lex or parse failure at span, with its diagnostic's code."""

    def __init__(self, span: Span, message: str, code: str = SYNTAX_ERROR):
        super().__init__(message)
        self.span = span
        self.message = message
        self.code = code


def stream_kind(ts) -> str:
    """The kind of a lotoskit TokenStream's current token, read off its
    text."""
    text = ts.text
    if not text:
        return EOF if ts.failure is None else FAILED
    if text[0] == '"':
        return STRING
    return IDENT if text[0].isalpha() else PUNCT


class OracleLexer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.line = 1
        self.col = 1

    def advance(self, n: int) -> None:
        for _ in range(n):
            if self.text[self.pos] == "\n":
                self.line += 1
                self.col = 1
            else:
                self.col += 1
            self.pos += 1

    def _skip_trivia(self) -> None:
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch in " \t\r\n":
                self.advance(1)
            elif self.text.startswith("(*", self.pos):
                self._skip_block("(*", "*)")
            elif self.text.startswith("/*", self.pos):
                self._skip_block("/*", "*/")
            else:
                return

    def _skip_block(self, opener: str, closer: str) -> None:
        start = Span.point(self.line, self.col)
        depth = 0
        while self.pos < len(self.text):
            if self.text.startswith(opener, self.pos):
                depth += 1
                self.advance(2)
            elif self.text.startswith(closer, self.pos):
                depth -= 1
                self.advance(2)
                if depth == 0:
                    return
            else:
                self.advance(1)
        raise OracleFailure(start, f"unterminated comment ('{opener}' without '{closer}')", LEX_ERROR)

    def next_token(self) -> tuple[str, str, Span]:
        self._skip_trivia()
        line, col = self.line, self.col
        if self.pos >= len(self.text):
            return EOF, "", Span.point(line, col)

        m = _IDENT_RE.match(self.text, self.pos)
        if m:
            self.advance(m.end() - m.start())
            return IDENT, m.group(), Span(line, col, self.line, self.col)

        if self.text[self.pos] == '"':
            self.advance(1)
            chunk_start = self.pos
            while self.pos < len(self.text) and self.text[self.pos] not in '"\n':
                self.advance(1)
            if self.pos >= len(self.text) or self.text[self.pos] != '"':
                raise OracleFailure(Span.point(line, col), "unterminated string literal", LEX_ERROR)
            value = self.text[chunk_start:self.pos]
            self.advance(1)
            return STRING, value, Span(line, col, self.line, self.col)

        for p in PUNCTUATION:
            if self.text.startswith(p, self.pos):
                self.advance(len(p))
                return PUNCT, p, Span(line, col, self.line, self.col)

        raise OracleFailure(Span.point(line, col),
                           f"unexpected character {self.text[self.pos]!r}", LEX_ERROR)

    def raw_brace_block(self) -> tuple[str, Span]:
        self._skip_trivia()
        open_span = Span.point(self.line, self.col)
        if self.pos >= len(self.text) or self.text[self.pos] != "{":
            # at the token there; one character wide at the end, or where
            # a character starts none
            try:
                open_span = self.next_token()[2]
            except OracleFailure:
                pass
            raise OracleFailure(open_span, "expected '{'", LEX_ERROR)
        self.advance(1)
        depth = 1
        chunk_start = self.pos
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
                if depth == 0:
                    body = self.text[chunk_start:self.pos]
                    self.advance(1)
                    end = Span.point(self.line, self.col)
                    return body.strip(), Span(open_span.line, open_span.col,
                                              end.line, end.col)
            self.advance(1)
        raise OracleFailure(open_span, "unterminated '{' block", LEX_ERROR)
