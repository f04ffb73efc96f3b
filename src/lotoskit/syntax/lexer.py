"""Shared lexer for the .lot, .asc and .adl text formats.

Tokens are generic: the lexer knows nothing about keywords.  Each parser
decides which identifiers are reserved words (matched case-insensitively,
while identifiers themselves stay case-sensitive).

Identifiers may contain internal hyphens (``Client-Server``); there is no
arithmetic anywhere in these grammars, so the reading is unambiguous.
Comments: ``(* ... *)`` (nesting allowed) and ``/* ... */``.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from .diagnostics import LEX_ERROR, SYNTAX_ERROR, Span

IDENT = "ident"
STRING = "string"
PUNCT = "punct"
EOF = "eof"

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*(?:-[A-Za-z0-9_]+)*")

# Longest match first.
_PUNCTUATION = (
    "|||", ":=", "[>", "[]", "|[", "]|", ">>", "->", "||",
    "[", "]", "(", ")", "{", "}", ";", ":", ",", "!", "?", "=", ".",
)


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    span: Span
    start: int  # character offset into the source
    end: int

    def is_kw(self, word: str) -> bool:
        return self.kind == IDENT and self.text.lower() == word

    def __str__(self) -> str:
        return "end of input" if self.kind == EOF else f"'{self.text}'"


class ParseFailure(Exception):
    """Bail-out of the lexer or a parser; each parser's entry point turns
    it into one diagnostic with the failure's code."""

    code = SYNTAX_ERROR

    def __init__(self, span: Span, message: str):
        super().__init__(message)
        self.span = span
        self.message = message


class LexFailure(ParseFailure):
    code = LEX_ERROR


class Lexer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.line = 1
        self.col = 1

    def _advance(self, n: int) -> None:
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
                self._advance(1)
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
                self._advance(2)
            elif self.text.startswith(closer, self.pos):
                depth -= 1
                self._advance(2)
                if depth == 0:
                    return
            else:
                self._advance(1)
        raise LexFailure(start, f"unterminated comment ('{opener}' without '{closer}')")

    def next_token(self) -> Token:
        self._skip_trivia()
        start, line, col = self.pos, self.line, self.col
        if self.pos >= len(self.text):
            return Token(EOF, "", Span.point(line, col), start, start)

        m = _IDENT_RE.match(self.text, self.pos)
        if m:
            self._advance(m.end() - m.start())
            return Token(IDENT, m.group(), Span(line, col, self.line, self.col),
                         start, self.pos)

        if self.text[self.pos] == '"':
            self._advance(1)
            chunk_start = self.pos
            while self.pos < len(self.text) and self.text[self.pos] not in '"\n':
                self._advance(1)
            if self.pos >= len(self.text) or self.text[self.pos] != '"':
                raise LexFailure(Span.point(line, col), "unterminated string literal")
            value = self.text[chunk_start:self.pos]
            self._advance(1)
            return Token(STRING, value, Span(line, col, self.line, self.col),
                         start, self.pos)

        for p in _PUNCTUATION:
            if self.text.startswith(p, self.pos):
                self._advance(len(p))
                return Token(PUNCT, p, Span(line, col, self.line, self.col),
                             start, self.pos)

        raise LexFailure(Span.point(line, col),
                         f"unexpected character {self.text[self.pos]!r}")

    def raw_brace_block(self) -> tuple[str, Span]:
        """Read a ``{ ... }`` block as raw text (used for stored-not-parsed
        sections).  Braces inside must balance; everything else is free
        text.  Returns the inner text, stripped."""
        self._skip_trivia()
        open_span = Span.point(self.line, self.col)
        if self.pos >= len(self.text) or self.text[self.pos] != "{":
            raise LexFailure(open_span, "expected '{'")
        self._advance(1)
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
                    self._advance(1)
                    end = Span.point(self.line, self.col)
                    return body.strip(), Span(open_span.line, open_span.col,
                                              end.line, end.col)
            self._advance(1)
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

    def expect_idents(self, what: str) -> list[str]:
        """IDENT ("," IDENT)*: the texts of one or more comma-separated
        identifiers, each described as what in a diagnostic."""
        names = [self.expect_ident(what).text]
        while self.accept_punct(","):
            names.append(self.expect_ident(what).text)
        return names

    def raw_brace_block(self) -> tuple[str, Span]:
        if self._buffered is not None:
            # Lookahead already consumed part of the raw region; rewind.
            raise RuntimeError("raw_brace_block called with buffered lookahead")
        return self.lexer.raw_brace_block()
