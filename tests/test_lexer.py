"""The token stream against the character-by-character oracle, and the
comment rules."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lex_oracle import PUNCTUATION, OracleLexer
from lotoskit.syntax import ast
from lotoskit.syntax.lexer import EOF, FAILED, PUNCT, ParseFailure, TokenStream, locate, locate_all

ALPHABET = (
    "(*", "*)", "/*", "*/", '"', "{", "}", "\n", "\t", "\r", " ", "-", "_",
    *PUNCTUATION, "a", "Z", "g", "0", "9", "é", "*", "/", "|", ">", "@",
)

texts = st.lists(st.sampled_from(ALPHABET), max_size=60).map("".join)


def fields(span):
    return (span.line, span.col, span.end_line, span.end_col)


def failure(exc):
    return ("failure", fields(exc.span), exc.message, exc.code)


def stream_tokens(ts):
    """Every token from the cursor on: (kind, text, span fields), ending
    with EOF or the stored lex failure."""
    out = []
    while ts.kind != EOF and ts.kind != FAILED:
        kind, text, i = ts.kind, ts.text, ts.advance()
        out.append((kind, text, fields(ts.span(i))))
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


@settings(max_examples=300, deadline=None)
@given(texts, st.lists(st.integers(0, 40), min_size=1, max_size=4))
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
@given(texts, st.lists(st.integers(0, 60), max_size=8))
def test_locating_many_offsets_at_once_locates_each(text, offsets):
    offsets = [min(offset, len(text)) for offset in offsets]
    assert locate_all(text, offsets) == {offset: locate(text, offset) for offset in offsets}
    for offset in offsets:
        line, col = locate(text, offset)[:2]
        before = text[:offset].split("\n")
        assert (line, col) == (len(before), len(before[-1]) + 1)


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
