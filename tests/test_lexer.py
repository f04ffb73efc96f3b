"""The token stream against the character-by-character oracle, and the
comment rules."""
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import parse_oracle
from lex_oracle import PUNCTUATION, OracleLexer
from lotoskit.syntax import ast, lexer, parse_spec
from lotoskit.syntax.lexer import (
    _DEPTH,
    EOF,
    FAILED,
    PUNCT,
    STRING,
    ParseFailure,
    TokenStream,
    locate,
    locate_all,
)

ALPHABET = (
    "(*", "*)", "/*", "*/", '"', "{", "}", "\n", "\t", "\r", " ", "-", "_",
    *PUNCTUATION, "a", "Z", "g", "0", "9", "é", "*", "/", "|", ">", "@",
)

texts = st.lists(st.sampled_from(ALPHABET), max_size=60).map("".join)

# what the token pattern cannot read whole
STRAYS = ("\v", "\f", "é", "@", '"', '"open\n', "(*", "/*", "(* open", "/* open")


@st.composite
def deep_comments(draw):
    """A comment nested one or two levels deeper than the token pattern
    reads, of one kind or with the other kind's markers inside, each
    level with text of the alphabet around its nested comment; now and
    then a level is left unterminated."""
    opener = draw(st.sampled_from(("(*", "/*")))
    closer = {"(*": "*)", "/*": "*/"}[opener]
    body = ""
    for _ in range(draw(st.integers(_DEPTH + 1, _DEPTH + 2))):
        before = draw(texts.filter(lambda t: len(t) < 8))
        after = draw(st.sampled_from(("", " ", "x", "*", "(", "/", "(*)")))
        body = f"{opener}{before}{body}{after}" + ("" if draw(st.integers(0, 9)) == 0 else closer)
    return body


deep_texts = st.lists(st.one_of(st.sampled_from(ALPHABET + STRAYS), deep_comments()),
                      max_size=16).map("".join)


def fields(span):
    return (span.line, span.col, span.end_line, span.end_col)


def failure(exc):
    return ("failure", fields(exc.span), exc.message, exc.code)


def stream_tokens(ts):
    """Every token from the cursor on: (kind, text, span fields), ending
    with EOF or the stored lex failure.  A string's text is given without
    its quotes, as the oracle gives it."""
    out = []
    while ts.kind != EOF and ts.kind != FAILED:
        kind, text, i = ts.kind, ts.text, ts.advance()
        out.append((kind, text[1:-1] if kind == STRING else text, fields(ts.span(i))))
    if ts.kind == FAILED:
        return out + [failure(ts.failure)]
    return out + [(EOF, "", fields(ts.span(ts.i)))]


def oracle_tokens(oracle):
    out = []
    try:
        while True:
            kind, text, span = oracle.next_token()
            out.append((kind, text, fields(span)))
            if kind == EOF:
                return out
    except ParseFailure as exc:
        return out + [failure(exc)]


@settings(max_examples=800, deadline=None)
@given(texts)
def test_token_stream_matches_oracle(text):
    assert stream_tokens(TokenStream(text)) == oracle_tokens(OracleLexer(text))


@settings(max_examples=500, deadline=None)
@given(deep_texts)
def test_comments_nested_deeper_than_the_pattern_match_oracle(text):
    """A comment nested past the pattern's depth is skipped by the loop,
    and an unterminated one, a stray character or an open string fails
    where the oracle fails."""
    assert stream_tokens(TokenStream(text)) == oracle_tokens(OracleLexer(text))


@pytest.mark.parametrize("between", ["\n", " "])
def test_a_text_is_scanned_once_however_many_deep_comments(between):
    """Past the first comment the token pattern cannot read, the text is
    lexed a token at a time, on 50 lines or on one, and never scanned
    again; the tokens and their spans are still the oracle's."""
    deep = "(*" * (_DEPTH + 1) + " deep " + "*)" * (_DEPTH + 1)
    text = between.join(f"a{k} {deep}" for k in range(50)) + ' "s" }'
    scans = []

    class Counting:
        def findall(self, *args):
            scans.append(args)
            return token.findall(*args)

    token = lexer._TOKEN
    with mock.patch.object(lexer, "_TOKEN", Counting()):
        ts = TokenStream(text)
    assert len(scans) == 1
    assert stream_tokens(ts) == oracle_tokens(OracleLexer(text))


@settings(max_examples=300, deadline=None)
@given(deep_texts)
def test_a_syntax_error_before_a_lex_failure_is_reported(text):
    """Whatever follows "endspec", the stray ";" before it is the error
    reported; without it, the per-token parser's diagnostic is, the lex
    failure if the text after "endspec" starts with one."""
    head = "specification S [g] : noexit := behaviour g; ; stop\n endspec "
    _, diags = parse_spec(head + text)
    assert [(d.code, d.span[:2]) for d in diags] == [("syntax-error", (1, 46))]
    mended = head.replace("; ;", ";") + text
    assert parse_spec(mended)[1] == parse_oracle.parse_spec(mended)[1]


@settings(max_examples=300, deadline=None)
@given(st.one_of(texts, deep_texts), st.lists(st.integers(0, 40), min_size=1, max_size=4))
def test_raw_brace_block_matches_oracle(text, counts):
    """After any number of consumed tokens, up to all before EOF or the
    lex failure, the block is read from the end of the last one, and the
    text after it lexes as the oracle lexes it."""
    text = "{" + text  # at least one opener to read from
    lexed = stream_tokens(TokenStream(text))
    for count in counts:
        consumed = min(count, len(lexed) - 1)
        ts, oracle = TokenStream(text), OracleLexer(text)
        for _ in range(consumed):
            ts.advance()
            oracle.next_token()
        try:
            body = ts.raw_brace_block()
        except ParseFailure as exc:
            got = failure(exc)
        else:
            got = body, stream_tokens(ts)
        try:
            body, _ = oracle.raw_brace_block()
        except ParseFailure as exc:
            want = failure(exc)
        else:
            want = body, oracle_tokens(oracle)
        assert got == want


@settings(max_examples=300, deadline=None)
@given(st.one_of(texts, deep_texts), st.lists(st.integers(0, 40), max_size=8))
def test_locating_many_tokens_at_once_locates_each(text, indices):
    """locate_all gives each token index locate's span, the oracle's span
    of that token; the end, and where lexing stops, are one character wide."""
    tokens = oracle_tokens(OracleLexer(text))
    want = [entry[1] if entry[0] == "failure" else entry[2] for entry in tokens]
    indices = [index % len(want) for index in indices]
    spans = locate_all(text, indices)
    assert spans == {index: locate(text, index) for index in indices}
    assert {i: fields(span) for i, span in spans.items()} == {i: want[i] for i in indices}


def test_a_comment_nested_past_the_pattern_is_skipped_and_located_past():
    deep = "(*" * (_DEPTH + 1) + " x " + "*)" * (_DEPTH + 1)
    text = f"a {deep} b\n{deep}c"
    ts = TokenStream(text)
    assert [ts.expect_ident("a name") for _ in range(3)] == ["a", "b", "c"]
    want = {0: (1, 1), 1: (1, len(deep) + 4), 2: (2, len(deep) + 1), 3: (2, len(deep) + 2)}
    for spans in (ts.spans(range(4)), locate_all(text, range(4))):
        assert {i: span[:2] for i, span in spans.items()} == want


def test_each_comment_kind_nests_only_its_own_opener():
    # "(*" inside "/* */" is plain text, and so is "/*" inside "(* *)"
    for text in ("/* (* */ a", "(* /* *) a", "/* /* */ */ a", "(* (* *) *) a"):
        assert [TokenStream(text).text] == ["a"], text
    for text in ("/* /* */ a", "(* (* *) a"):
        ts = TokenStream(text)
        assert ts.kind == FAILED
        assert "unterminated comment" in ts.failure.message


@pytest.mark.parametrize("token", sorted(ast.OPERATORS))
def test_every_operator_lexes_as_one_token(token):
    ts = TokenStream(f"P {token} Q")
    ts.advance()
    assert (ts.kind, ts.text) == (PUNCT, token)
    ts.advance()
    assert ts.text == "Q"
