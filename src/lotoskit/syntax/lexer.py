"""Shared lexer for the .lot, .asc and .adl text formats.

Tokens are generic: the lexer knows nothing about keywords.  Each parser
decides which identifiers are reserved words (matched case-insensitively,
while identifiers themselves stay case-sensitive).

Identifiers may contain internal hyphens (``Client-Server``); there is no
arithmetic anywhere in these grammars, so the reading is unambiguous.
Comments are ``(* ... *)`` and ``/* ... */``, and both nest.  Each kind
counts only its own opener, so ``(*`` inside ``/* ... */`` is plain text.

``TokenStream`` lexes a text with one ``findall`` of one pattern:
trivia (whitespace, and comments nested up to ``_DEPTH`` deep), then a
token, the pattern's one group.  The result is one list of raw token
texts, a string with its quotes, ending in "".  A parser reads it
through a cursor (``text``, ``advance()``) and tells a token's kind from
its text.  A syntax node keeps its token's index; ``spans`` and
``locate`` read the text again to find a token's line and columns, for a
diagnostic or a caller that asks.

A token the pattern cannot read whole takes the rest of the text, so no
character is passed over unseen.  From there on the text is lexed a
token at a time, each token's offset kept: a comment nested deeper than
the pattern reads is skipped by ``_skip_comment``.  An unterminated
comment or string, or a character that starts no token, ends the list
in "" and is held as the lex failure, raised only when a parser rejects
that "", so an error earlier in the text is reported first, as if the
text were lexed token by token.  An ``assert { ... }`` block of an .asc
file is free text: ``raw_brace_block`` reads it from the source where
the current token starts, and lexes the text after it a token at a time.

``TokenStream`` also checks the end of input and reads the keyword-led
sections of .asc and .adl files and their comma lists, and
``parse_or_bail`` gives every reader its one contract: a value exactly
when there are no diagnostics, and a bail-out as one diagnostic.
"""
from __future__ import annotations

import re
from bisect import bisect_left
from collections.abc import Callable, Iterable
from functools import cache
from typing import TypeVar

from .diagnostics import LEX_ERROR, SYNTAX_ERROR, Diagnostic, Span, error

# the kinds of token, as TokenStream.kind reads them off a token's text
IDENT = "ident"
STRING = "string"
PUNCT = "punct"
EOF = "eof"
# the kind of the "" that ends a text which stops lexing
FAILED = "failed"

# Longest match first.
_PUNCTUATION = (
    "|||", ":=", "[>", "[]", "|[", "]|", ">>", "->", "||",
    "[", "]", "(", ")", "{", "}", ";", ":", ",", "!", "?", "=", ".",
)

_CLOSERS = {"(*": "*)", "/*": "*/"}
# how deep the token pattern reads nested comments, the outermost counted
_DEPTH = 3
_SPACE = "[ \t\r\n]"
_IDENT = r"[A-Za-z][A-Za-z0-9_]*(?:-[A-Za-z0-9_]+)*"
_STRING = r'"[^"\n]*"'
# the "(" of a comment opener is no token
_PUNCT = "|".join(r"\((?!\*)" if p == "(" else re.escape(p) for p in _PUNCTUATION)


def _comment(opener: str, depth: int) -> str:
    """A comment opened by opener that nests its own kind up to depth
    deep, itself counted.  Its body is a run of plain characters, then
    any number of special ones, each followed by such a run: a nested
    comment, or the opener's first character or "*" where it starts no
    opener or closer.  An opener overlapping a closer, as in "(*)", is
    an opener, since the scan meets it first."""
    first, last = re.escape(opener[0]), re.escape(_CLOSERS[opener][1])
    special = rf"{first}(?!\*)|\*(?!{last})"
    if depth > 1:
        special += "|" + _comment(opener, depth - 1)
    plain = rf"[^{first}*]*"
    return rf"{re.escape(opener)}{plain}(?:(?:{special}){plain})*{re.escape(_CLOSERS[opener])}"


_TRIVIA = rf"{_SPACE}*(?:(?:{_comment('(*', _DEPTH)}|{_comment('/*', _DEPTH)}){_SPACE}*)*"
# a token read whole
_WHOLE = f"{_IDENT}|{_STRING}|{_PUNCT}"
_WHOLE_TOKEN = re.compile(_WHOLE)
# Trivia, then a token, the one group: one read whole, or what starts
# none, such as the opener of a comment the trivia could not read, with
# the rest of the text (which "(?s:.*)" reaches in one step); at the
# end, "".
_TOKEN = re.compile(rf"{_TRIVIA}({_WHOLE}|[^ \t\r\n](?s:.*)|\Z)")
_BRACE = re.compile(r"[{}]")

Value = TypeVar("Value")


@cache
def _skip(n: int) -> re.Pattern[str]:
    """n whole tokens, each after its trivia, read by one match.  A
    stretch the token pattern lexed reads only one way, and none reads a
    comment nested past _DEPTH.  _starts asks for fewer than 32, 32 or
    1024 tokens, so at most 33 patterns are kept."""
    return re.compile(f"(?:{_TRIVIA}(?:{_WHOLE})){{{n}}}")


@cache
def _at() -> re.Pattern[str]:
    """Trivia, then a whole token if there is one.  Locating a token reads
    it, and so does lexing past what the token pattern could not read,
    so it is compiled on first use, not by every command."""
    return re.compile(f"{_TRIVIA}({_WHOLE})?")


def locate(text: str, index: int) -> Span:
    """The span of token index of text, lexed as the .lot and .adl
    readers lex it: its 1-based line and column, and the column just past
    it.  The end of the text, and where it stops lexing, is one character
    wide.  It reads text again up to the token, so it is meant for a
    diagnostic; the parsers store only token indices."""
    return locate_all(text, (index,))[index]


def locate_all(text: str, indices: Iterable[int]) -> dict[int, Span]:
    """locate's span of each of indices, by index, from one pass over text
    up to the last.  Only where a comment nests past what the token
    pattern reads, or the index is where lexing stops or past the end,
    is text lexed first."""
    indices = sorted(set(indices))
    starts = _starts(text, indices)
    return TokenStream(text).spans(indices) if starts is None else _spans(text, starts)


def _starts(source: str, indices: list[int]) -> list[tuple[int, int, int]] | None:
    """(index, offset, width) of each of indices, ascending, from one pass
    over source up to the last, reading the tokens before each a stride
    at a time.  None where no whole token stands at an index that is not
    at the end."""
    out = []
    at = pos = 0
    token_at = _at().match
    for i in indices:
        while at < i:
            gap = i - at
            n = 1024 if gap >= 1024 else 32 if gap >= 32 else gap
            m = _skip(n).match(source, pos)
            if m is None:
                return None
            pos, at = m.end(), at + n
        m = token_at(source, pos)
        token = m.group(1)
        if token:
            out.append((i, m.start(1), len(token)))
        elif m.end() == len(source):
            out.append((i, m.end(), 1))
        else:
            return None
        pos, at = m.end(), i + 1
    return out


def _spans(source: str, starts: list[tuple[int, int, int]]) -> dict[int, Span]:
    """The span at each (index, offset, width) of starts, by index, from
    one pass that counts the lines up to the last."""
    spans: dict[int, Span] = {}
    line, line_start, counted = 1, 0, 0
    for i, offset, width in starts:
        newlines = source.count("\n", counted, offset)
        if newlines:
            line += newlines
            line_start = source.rfind("\n", counted, offset) + 1
        counted = offset
        col = offset - line_start + 1
        spans[i] = Span(line, col, line, col + width)
    return spans


def _point(text: str, offset: int) -> Span:
    """The one-character span at offset."""
    return Span.point(text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset))


class ParseFailure(Exception):
    """Bail-out of the lexer or a parser; parse_or_bail turns it into one
    diagnostic with the failure's code."""

    def __init__(self, span: Span, message: str, code: str = SYNTAX_ERROR):
        super().__init__(message)
        self.span = span
        self.message = message
        self.code = code


class TokenStream:
    """A text lexed into one list of raw token texts, read through a
    cursor at token i.  The list ends with "", which no rule consumes.
    The tokens before index _split were read by the token pattern from
    offset 0 and are located by strides; each from there on, the "" at
    the end at least, was lexed a token at a time, its offset kept in
    _offsets."""

    __slots__ = ("source", "text", "i", "failure", "_texts", "_split", "_offsets")

    def __init__(self, source: str):
        self.source = source
        self.failure: ParseFailure | None = None
        texts = self._texts = _TOKEN.findall(source)
        texts.pop()  # the "" of the match at the end
        if texts and not texts[-1]:
            texts.pop()  # that of the trivia at the end
        pos = len(source)
        if texts and not _WHOLE_TOKEN.fullmatch(texts[-1]):
            # a token that took the rest of the text
            pos -= len(texts.pop())
        self._split = len(texts)
        self._offsets: list[int] = []
        self._lex(pos)
        self.i, self.text = 0, texts[0]

    def _lex(self, pos: int) -> None:
        """Append the tokens from offset pos on, a token at a time, with
        their offsets, then ""."""
        source, texts, offsets = self.source, self._texts, self._offsets
        while pos < len(source):
            m = _at().match(source, pos)
            token, pos = m.group(1), m.end()
            if token:
                texts.append(token)
                offsets.append(m.start(1))
            elif pos < len(source):
                if source[pos:pos + 2] not in _CLOSERS:
                    message = ("unterminated string literal" if source[pos] == '"'
                               else f"unexpected character {source[pos]!r}")
                    self.failure = ParseFailure(_point(source, pos), message, LEX_ERROR)
                    break
                try:
                    pos = self._skip_comment(pos)
                except ParseFailure as exc:
                    self.failure = exc
                    break
        texts.append("")
        offsets.append(pos)

    @property
    def kind(self) -> str:
        """The current token's kind, read off its text."""
        text = self.text
        if not text:
            return EOF if self.failure is None else FAILED
        if text[0] == '"':
            return STRING
        return IDENT if text[0].isalpha() else PUNCT

    def advance(self) -> int:
        """Move past the current token; returns its index."""
        i = self.i
        self.i = j = i + 1
        self.text = self._texts[j]
        return i

    def spans(self, indices: Iterable[int]) -> dict[int, Span]:
        """The span of each token of indices, by index; the end and the
        failure are one character wide."""
        return _spans(self.source, self._locate(indices))

    def _locate(self, indices: Iterable[int]) -> list[tuple[int, int, int]]:
        """(index, offset, width) of each of indices, ascending: by strides
        before _split, from _offsets on."""
        split, texts = self._split, self._texts
        indices = sorted(set(indices))
        k = bisect_left(indices, split)
        starts = _starts(self.source, indices[:k])
        if starts is None:
            raise IndexError("no such token")
        return starts + [(i, self._offsets[i - split], len(texts[i]) or 1) for i in indices[k:]]

    def span(self, i: int) -> Span:
        return self.spans((i,))[i]

    def error(self, message: str) -> ParseFailure:
        """The failure to raise for message at the current token; the lex
        failure instead when the cursor is on the token that holds it."""
        if not self.text and self.failure is not None:
            return self.failure
        return ParseFailure(self.span(self.i), message)

    def expected(self, what: str) -> ParseFailure:
        """The failure of a rule that wanted what at the current token,
        quoted as written if it is a string literal."""
        text = self.text
        found = "end of input" if not text else text if text[0] == '"' else f"'{text}'"
        return self.error(f"expected {what}, found {found}")

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
                raise ParseFailure(_point(text, start),
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
        where the current token starts, then lex what follows it a token
        at a time, from the cursor on.  Braces inside must balance;
        everything else is free text.  Returns the inner text, stripped."""
        i = self.i
        [(_, pos, _)] = self._locate((i,))
        source = self.source
        if not source.startswith("{", pos):
            # only the token of an unterminated comment starts at an opener
            raise self.failure if source[pos:pos + 2] in _CLOSERS else ParseFailure(
                _point(source, pos), "expected '{'", LEX_ERROR)
        depth = 0
        for m in _BRACE.finditer(source, pos):
            depth += 1 if m.group() == "{" else -1
            if depth == 0:
                split = self._split = min(self._split, i)
                del self._texts[i:], self._offsets[i - split:]
                self.failure = None
                self._lex(m.end())
                self.text = self._texts[i]
                return source[pos + 1:m.start()].strip()
        raise ParseFailure(_point(source, pos), "unterminated '{' block", LEX_ERROR)

    # A token's kind follows from its text: an identifier starts with a
    # letter, a string with '"', and no two kinds share a text.

    def at_punct(self, text: str) -> bool:
        return self.text == text

    def at_kw(self, word: str) -> bool:
        return self.text.lower() == word

    def accept_punct(self, text: str) -> bool:
        if self.text == text:
            self.advance()
            return True
        return False

    def accept_kw(self, word: str) -> bool:
        if self.text.lower() == word:
            self.advance()
            return True
        return False

    def expect_punct(self, text: str) -> int:
        if self.text != text:
            raise self.expected(f"'{text}'")
        return self.advance()

    def expect_kw(self, word: str) -> int:
        if self.text.lower() != word:
            raise self.expected(f"'{word}'")
        return self.advance()

    def expect_ident(self, what: str) -> str:
        text = self.text
        if not text[:1].isalpha():
            raise self.expected(what)
        self.advance()
        return text

    def expect_file_name(self) -> str:
        text = self.text
        if text[:1] != '"':
            raise self.expected("a quoted file name")
        self.advance()
        return text[1:-1]

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
        if not self.text[:1].isalpha():
            return []
        out = [read()]
        while self.accept_punct(","):
            out.append(read())
        return out

    def expect_eof(self, after: str) -> None:
        """Nothing may follow the closing word after."""
        text = self.text
        if text or self.failure is not None:
            # a string literal is named without its quotes
            name = text[1:-1] if text[:1] == '"' else text
            raise self.error(f"unexpected '{name}' after {after}")

    def sections(self, what: str, handlers: dict[str, Callable[[], object]],
                 repeatable: frozenset[str] = frozenset()) -> tuple[dict[str, object], int]:
        """Sections led by a keyword of handlers, in any order, up to "end"
        and the end of input; each appears at most once unless it is
        repeatable.  Returns each section's last handler result, and the
        index of the "end" token."""
        found: dict[str, object] = {}
        while not self.at_kw("end"):
            if not self.text:
                raise self.error("missing 'end'")
            part = self.text.lower()
            if part in found and part not in repeatable:
                raise self.error(f"section '{part}' appears twice")
            handler = handlers.get(part)
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
