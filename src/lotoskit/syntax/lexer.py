"""Shared lexer for the .lot, .asc and .adl text formats.

Tokens are generic: the lexer knows nothing about keywords.  Each parser
decides which identifiers are reserved words (matched case-insensitively,
while identifiers themselves stay case-sensitive).

Identifiers may contain internal hyphens (``Client-Server``); there is no
arithmetic anywhere in these grammars, so the reading is unambiguous.
Comments are ``(* ... *)`` and ``/* ... */``, and both nest.  Each kind
counts only its own opener, so ``(*`` inside ``/* ... */`` is plain text.

``TokenStream`` lexes its text once, with one compiled regular
expression, into three flat lists: the kind and the text of each token
and its start offset.  A parser reads it through a cursor: ``kind`` and
``text`` are the current token's, ``advance()`` consumes it and returns
its index.  A syntax node keeps the offset of its token, a plain int;
``locate(text, offset)`` works out the line and columns of the token at
an offset, and only a diagnostic, or a caller that asks, calls it.

A text that stops lexing ends in a sentinel token whose kind no rule
accepts, and which holds the lex failure.  The failure is raised only
when a parser rejects the sentinel, so an error earlier in the text is
reported first, as if the text were lexed token by token.  An
``assert { ... }`` block of an .asc file is free text the token pattern
may reject: ``raw_brace_block`` reads it from the source where the
current token starts, past the last consumed one and its trivia, and
lexes the text after it again.

``TokenStream`` also checks the end of input and reads the keyword-led
sections of .asc and .adl files and their comma lists, and
``parse_or_bail`` gives every reader its one contract: a value exactly
when there are no diagnostics, and a bail-out as one diagnostic.
"""
from __future__ import annotations

import re
from collections.abc import Callable
from typing import TypeVar

from .diagnostics import LEX_ERROR, SYNTAX_ERROR, Diagnostic, Span, error

IDENT = "ident"
STRING = "string"
PUNCT = "punct"
EOF = "eof"
# the kind of the sentinel that ends a text which stops lexing
FAILED = "failed"

# Longest match first.
_PUNCTUATION = (
    "|||", ":=", "[>", "[]", "|[", "]|", ">>", "->", "||",
    "[", "]", "(", ")", "{", "}", ";", ":", ",", "!", "?", "=", ".",
)

_CLOSERS = {"(*": "*)", "/*": "*/"}
_SPACE = re.compile(r"[ \t\r\n]*")
_COMMENT = "comment"
_IDENT = r"[A-Za-z][A-Za-z0-9_]*(?:-[A-Za-z0-9_]+)*"
_STRING = r'"[^"\n]*"'
_PUNCT = "|".join(map(re.escape, _PUNCTUATION))
# Whitespace, then a token or a comment opener.  The group names are the
# token kinds; a comment opener comes before the punctuation "(".
_TOKEN = re.compile(
    rf"{_SPACE.pattern}(?:(?P<{IDENT}>{_IDENT})|(?P<{STRING}>{_STRING})"
    rf"|(?P<{_COMMENT}>{'|'.join(map(re.escape, _CLOSERS))})|(?P<{PUNCT}>{_PUNCT}))"
)
# the token that starts at an offset, for locate
_TOKEN_AT = re.compile(f"{_IDENT}|{_STRING}|{_PUNCT}")
_BRACE = re.compile(r"[{}]")

Value = TypeVar("Value")


def locate(text: str, offset: int) -> Span:
    """The span of the token at offset in text: its 1-based line and
    column, and the column just past it.  Where no token starts (the end
    of the text, a character that stops lexing) the span is one character
    wide.  It counts the lines before offset, so it is meant for a
    diagnostic; the parsers store only offsets."""
    return locate_all(text, [offset])[offset]


def locate_all(text: str, offsets: list[int]) -> dict[int, Span]:
    """locate's span at each of offsets, by offset, from one pass over
    text up to the last."""
    spans: dict[int, Span] = {}
    line, line_start, counted = 1, 0, 0
    for offset in sorted(set(offsets)):
        newlines = text.count("\n", counted, offset)
        if newlines:
            line += newlines
            line_start = text.rfind("\n", counted, offset) + 1
        counted = offset
        col = offset - line_start + 1
        token = _TOKEN_AT.match(text, offset)
        spans[offset] = Span(line, col, line, col + (token.end() - offset if token else 1))
    return spans


class ParseFailure(Exception):
    """Bail-out of the lexer or a parser; parse_or_bail turns it into one
    diagnostic with the failure's code."""

    def __init__(self, span: Span, message: str, code: str = SYNTAX_ERROR):
        super().__init__(message)
        self.span = span
        self.message = message
        self.code = code


class TokenStream:
    """A text lexed once into flat lists, read through a cursor at token i.
    The lists end with EOF or the sentinel, which no rule consumes."""

    __slots__ = ("source", "kind", "text", "i", "failure", "_kinds", "_texts", "_starts")

    def __init__(self, source: str):
        self.source = source
        self._kinds: list[str] = []
        self._texts: list[str] = []
        self._starts: list[int] = []
        self.failure: ParseFailure | None = None
        self._lex(0)
        self.i, self.kind, self.text = 0, self._kinds[0], self._texts[0]

    def _lex(self, pos: int) -> None:
        """Append the tokens from offset pos on, then EOF or the sentinel."""
        source = self.source
        kinds, texts, starts = self._kinds.append, self._texts.append, self._starts.append
        match = _TOKEN.match
        try:
            while m := match(source, pos):
                kind = m.lastgroup
                if kind == _COMMENT:
                    # the sentinel of an unterminated comment starts at its opener
                    pos = m.start(kind)
                    pos = self._skip_comment(pos)
                    continue
                value = m.group(kind)
                pos = m.end()
                kinds(kind)
                texts(value[1:-1] if kind == STRING else value)
                starts(pos - len(value))
            pos = _SPACE.match(source, pos).end()
            if pos < len(source):
                ch = source[pos]
                raise ParseFailure(self._point(pos), "unterminated string literal" if ch == '"'
                                   else f"unexpected character {ch!r}", LEX_ERROR)
            kinds(EOF)
        except ParseFailure as exc:
            self.failure = exc
            kinds(FAILED)
        texts("")
        starts(pos)

    def advance(self) -> int:
        """Move past the current token; returns its index."""
        i = self.i
        self.i = j = i + 1
        self.kind, self.text = self._kinds[j], self._texts[j]
        return i

    def span(self, i: int) -> Span:
        """Token i's span; EOF and the sentinel are one character wide."""
        return locate(self.source, self._starts[i])

    def error(self, message: str) -> ParseFailure:
        """The failure to raise for message at the current token; the lex
        failure instead when the cursor is on the sentinel."""
        if self.kind == FAILED:
            return self.failure
        return ParseFailure(self.span(self.i), message)

    def expected(self, what: str) -> ParseFailure:
        """The failure of a rule that wanted what at the current token,
        quoted as written if it is a string literal."""
        quote = '"' if self.kind == STRING else "'"
        found = "end of input" if self.kind == EOF else f"{quote}{self.text}{quote}"
        return self.error(f"expected {what}, found {found}")

    def _point(self, pos: int) -> Span:
        return Span.point(*locate(self.source, pos)[:2])

    def _skip_comment(self, start: int) -> int:
        """The offset just past the comment opened at start, which may
        nest comments of its own kind."""
        text = self.source
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

    def raw_brace_block(self) -> str:
        """Read a ``{ ... }`` block as raw text (used for stored-not-parsed
        sections) where the last consumed token's trivia end, which is
        where the current token starts, then lex what follows it again,
        from the cursor on.  Braces inside must balance; everything else
        is free text.  Returns the inner text, stripped."""
        i = self.i
        pos = self._starts[i]
        if not self.source.startswith("{", pos):
            # only the sentinel of an unterminated comment starts at an opener
            raise self.failure if self.source[pos:pos + 2] in _CLOSERS else ParseFailure(
                self._point(pos), "expected '{'", LEX_ERROR)
        depth = 0
        for m in _BRACE.finditer(self.source, pos):
            depth += 1 if m.group() == "{" else -1
            if depth == 0:
                for tokens in (self._kinds, self._texts, self._starts):
                    del tokens[i:]
                self.failure = None
                self._lex(m.end())
                self.kind, self.text = self._kinds[i], self._texts[i]
                return self.source[pos + 1:m.start()].strip()
        raise ParseFailure(self._point(pos), "unterminated '{' block", LEX_ERROR)

    def at_punct(self, text: str) -> bool:
        return self.kind == PUNCT and self.text == text

    def at_kw(self, word: str) -> bool:
        return self.kind == IDENT and self.text.lower() == word

    def accept_punct(self, text: str) -> bool:
        if self.at_punct(text):
            self.advance()
            return True
        return False

    def accept_kw(self, word: str) -> bool:
        if self.at_kw(word):
            self.advance()
            return True
        return False

    def expect_punct(self, text: str) -> int:
        if not self.at_punct(text):
            raise self.expected(f"'{text}'")
        return self.advance()

    def expect_kw(self, word: str) -> int:
        if not self.at_kw(word):
            raise self.expected(f"'{word}'")
        return self.advance()

    def expect_ident(self, what: str) -> str:
        if self.kind != IDENT:
            raise self.expected(what)
        return self._texts[self.advance()]

    def expect_file_name(self) -> str:
        if self.kind != STRING:
            raise self.expected("a quoted file name")
        return self._texts[self.advance()]

    def expect_idents(self, what: str) -> list[str]:
        """IDENT ("," IDENT)*: the texts of one or more comma-separated
        identifiers, each described as what in a diagnostic."""
        names = [self.expect_ident(what)]
        while self.accept_punct(","):
            names.append(self.expect_ident(what))
        return names

    def items(self, read: Callable[[], Value]) -> list[Value]:
        """item ("," item)*, each item read by read(), or no item when the
        current token is not an identifier.  A comma is always followed
        by an item, so a list takes no trailing comma."""
        if self.kind != IDENT:
            return []
        out = [read()]
        while self.accept_punct(","):
            out.append(read())
        return out

    def expect_eof(self, after: str) -> None:
        """Nothing may follow the closing word after."""
        if self.kind != EOF:
            raise self.error(f"unexpected '{self.text}' after {after}")

    def sections(self, what: str, handlers: dict[str, Callable[[], object]],
                 repeatable: frozenset[str] = frozenset()) -> tuple[dict[str, object], int]:
        """Sections led by a keyword of handlers, in any order, up to "end"
        and the end of input; each appears at most once unless it is
        repeatable.  Returns each section's last handler result, and the
        index of the "end" token."""
        found: dict[str, object] = {}
        while not self.at_kw("end"):
            if self.kind == EOF:
                raise self.error("missing 'end'")
            part = self.text.lower()
            if part in found and part not in repeatable:
                raise self.error(f"section '{part}' appears twice")
            handler = handlers.get(part) if self.kind == IDENT else None
            if handler is None:
                raise self.expected(f"a {what} section")
            self.advance()
            found[part] = handler()
        end = self.advance()
        self.expect_eof("end")
        return found, end


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
