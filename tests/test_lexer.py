"""The regex lexer against the character-by-character oracle, and the
comment rules."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lex_oracle import PUNCTUATION, OracleLexer
from lotoskit.syntax import ast
from lotoskit.syntax.lexer import EOF, PUNCT, LexFailure, Lexer, TokenStream

ALPHABET = (
    "(*", "*)", "/*", "*/", '"', "{", "}", "\n", "\t", "\r", " ", "-", "_",
    *PUNCTUATION, "a", "Z", "g", "0", "9", "é", "*", "/", "|", ">", "@",
)

texts = st.lists(st.sampled_from(ALPHABET), max_size=60).map("".join)


def fields(span):
    return (span.line, span.col, span.end_line, span.end_col)


def failure(exc):
    return ("failure", fields(exc.span), exc.message, exc.code)


def lex_all(lexer, token_fields):
    out = []
    try:
        while True:
            kind, text, span = token_fields(lexer.next_token())
            out.append((kind, text, fields(span)))
            if kind == EOF:
                return out
    except LexFailure as exc:
        return out + [failure(exc)]


def brace_block(lexer, token_fields):
    try:
        body, span = lexer.raw_brace_block()
    except LexFailure as exc:
        return failure(exc)
    return body, fields(span), lex_all(lexer, token_fields)


def new_fields(tok):
    return tok.kind, tok.text, tok.span


def oracle_fields(tok):
    return tok


@settings(max_examples=800, deadline=None)
@given(texts)
def test_token_stream_matches_oracle(text):
    assert lex_all(Lexer(text), new_fields) == lex_all(OracleLexer(text), oracle_fields)


@settings(max_examples=300, deadline=None)
@given(texts, st.lists(st.floats(0, 1), min_size=1, max_size=4))
def test_raw_brace_block_matches_oracle(text, fractions):
    text = "{" + text  # at least one opener to read from
    for fraction in fractions:
        offset = int(fraction * len(text))
        lexer, oracle = Lexer(text), OracleLexer(text)
        lexer.pos = offset
        oracle.advance(offset)
        assert brace_block(lexer, new_fields) == brace_block(oracle, oracle_fields)


def test_each_comment_kind_nests_only_its_own_opener():
    # "(*" inside "/* */" is plain text, and so is "/*" inside "(* *)"
    for text in ("/* (* */ a", "(* /* *) a", "/* /* */ */ a", "(* (* *) *) a"):
        assert [TokenStream(text).next().text] == ["a"], text
    for text in ("/* /* */ a", "(* (* *) a"):
        with pytest.raises(LexFailure) as exc:
            TokenStream(text).next()
        assert "unterminated comment" in exc.value.message


@pytest.mark.parametrize("token", sorted(ast.OPERATORS))
def test_every_operator_lexes_as_one_token(token):
    ts = TokenStream(f"P {token} Q")
    ts.next()
    tok = ts.next()
    assert (tok.kind, tok.text) == (PUNCT, token)
    assert ts.next().text == "Q"
