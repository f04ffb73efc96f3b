"""Reference lexer used to cross-check lotoskit.syntax.lexer.

Deliberately written the slow, obvious way: it steps one character at a
time, keeps the line and column as it goes, and tries punctuation with
``startswith`` in a loop, longest first.  It shares only ``Span``, the
failure class and the kind names with the real lexer; tokens are plain
(kind, text, span) tuples.
"""
from __future__ import annotations

import re

from lotoskit.syntax.diagnostics import LEX_ERROR, Span
from lotoskit.syntax.lexer import EOF, IDENT, PUNCT, STRING, ParseFailure

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*(?:-[A-Za-z0-9_]+)*")

# Longest match first.
PUNCTUATION = (
    "|||", ":=", "[>", "[]", "|[", "]|", ">>", "->", "||",
    "[", "]", "(", ")", "{", "}", ";", ":", ",", "!", "?", "=", ".",
)


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
        raise ParseFailure(start, f"unterminated comment ('{opener}' without '{closer}')", LEX_ERROR)

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
                raise ParseFailure(Span.point(line, col), "unterminated string literal", LEX_ERROR)
            value = self.text[chunk_start:self.pos]
            self.advance(1)
            return STRING, value, Span(line, col, self.line, self.col)

        for p in PUNCTUATION:
            if self.text.startswith(p, self.pos):
                self.advance(len(p))
                return PUNCT, p, Span(line, col, self.line, self.col)

        raise ParseFailure(Span.point(line, col),
                           f"unexpected character {self.text[self.pos]!r}", LEX_ERROR)

    def raw_brace_block(self) -> tuple[str, Span]:
        self._skip_trivia()
        open_span = Span.point(self.line, self.col)
        if self.pos >= len(self.text) or self.text[self.pos] != "{":
            raise ParseFailure(open_span, "expected '{'", LEX_ERROR)
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
        raise ParseFailure(open_span, "unterminated '{' block", LEX_ERROR)
