"""Unit tests for the SQL lexer."""

import json
import pathlib
import zlib

import pytest

from repro.errors import SqlSyntaxError
from repro.sql import Lexer, TokenType


def lex(text):
    tokens = Lexer(text).tokens()
    assert tokens[-1].type is TokenType.EOF
    return tokens[:-1]


class TestBasicTokens:
    def test_keywords_case_insensitive(self):
        tokens = lex("select From WHERE")
        assert all(t.type is TokenType.KEYWORD for t in tokens)
        # keywords keep their written case; matching is case-insensitive
        assert [t.value for t in tokens] == ["select", "From", "WHERE"]
        assert all(
            t.matches(TokenType.KEYWORD, v)
            for t, v in zip(tokens, ["SELECT", "FROM", "WHERE"])
        )

    def test_identifiers_preserve_case(self):
        tokens = lex("SocialNetwork lstName")
        assert [t.value for t in tokens] == ["SocialNetwork", "lstName"]
        assert all(t.type is TokenType.IDENTIFIER for t in tokens)

    def test_integers_and_floats(self):
        tokens = lex("42 3.14 1e3 2.5e-2")
        assert tokens[0].type is TokenType.INTEGER
        assert tokens[1].type is TokenType.FLOAT
        assert tokens[2].type is TokenType.FLOAT
        assert tokens[3].type is TokenType.FLOAT

    def test_string_literal(self):
        tokens = lex("'hello world'")
        assert tokens[0].type is TokenType.STRING
        assert tokens[0].value == "hello world"

    def test_string_escape_doubled_quote(self):
        tokens = lex("'it''s'")
        assert tokens[0].value == "it's"

    def test_quoted_identifier(self):
        tokens = lex('"Weird Name"')
        assert tokens[0].type is TokenType.IDENTIFIER
        assert tokens[0].value == "Weird Name"

    def test_operators(self):
        tokens = lex("<= >= <> != = < > + - * / %")
        assert all(t.type is TokenType.OPERATOR for t in tokens)

    def test_punctuation(self):
        tokens = lex("( ) , . ; [ ]")
        assert all(t.type is TokenType.PUNCTUATION for t in tokens)


class TestComments:
    def test_line_comment(self):
        tokens = lex("SELECT -- this is ignored\n1")
        assert [t.value for t in tokens] == ["SELECT", "1"]

    def test_block_comment(self):
        tokens = lex("SELECT /* multi\nline */ 1")
        assert [t.value for t in tokens] == ["SELECT", "1"]

    def test_unterminated_block_comment(self):
        with pytest.raises(SqlSyntaxError):
            lex("SELECT /* oops")


class TestPathSyntaxTokens:
    def test_range_accessor_tokens(self):
        # '[0..*]' must lex as [ 0 . . * ] — not as a float
        tokens = lex("[0..*]")
        values = [t.value for t in tokens]
        assert values == ["[", "0", ".", ".", "*", "]"]

    def test_bounded_range_tokens(self):
        tokens = lex("[2..5]")
        values = [t.value for t in tokens]
        assert values == ["[", "2", ".", ".", "5", "]"]

    def test_graph_keywords(self):
        tokens = lex("PATHS VERTEXES EDGES HINT SHORTESTPATH")
        assert all(t.type is TokenType.KEYWORD for t in tokens)


class TestErrors:
    def test_unterminated_string(self):
        with pytest.raises(SqlSyntaxError):
            lex("'oops")

    def test_unexpected_character(self):
        with pytest.raises(SqlSyntaxError):
            lex("SELECT @")

    def test_error_carries_position(self):
        try:
            lex("SELECT\n  @")
        except SqlSyntaxError as error:
            assert error.line == 2
        else:
            pytest.fail("expected SqlSyntaxError")


class TestTokenMatching:
    def test_matches_keyword_any_case(self):
        token = lex("select")[0]
        assert token.matches(TokenType.KEYWORD, "SELECT")
        assert token.matches(TokenType.KEYWORD, "select")

    def test_matches_identifier_exact(self):
        token = lex("Foo")[0]
        assert token.matches(TokenType.IDENTIFIER, "Foo")
        assert not token.matches(TokenType.IDENTIFIER, "foo")


# ---------------------------------------------------------------------------
# differential: the token stream recorded from the character-at-a-time lexer
# ---------------------------------------------------------------------------

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "lexer_golden.json").read_text(encoding="utf-8")
)


def stream(text):
    """``[type, value, line, column]`` per token, or the error's
    ``["error", message, line, column]``."""
    try:
        return [
            [t.type.name, t.value, t.line, t.column] for t in Lexer(text).tokens()
        ]
    except SqlSyntaxError as error:
        return ["error", str(error), error.line, error.column]


class TestGoldenStreams:
    """``lexer_golden.json`` was recorded with the hand-written lexer the
    regex replaced: ``explicit`` holds whole streams for inputs chosen to
    sit on the grammar's edges (comments, multi-line strings, ``..``,
    exponents, Unicode, every error and where it is reported), ``corpus``
    a CRC of the stream of every SQL string constant that tests/,
    benchmarks/ and examples/ held at the time."""

    @pytest.mark.parametrize(
        "text, expected", GOLDEN["explicit"], ids=lambda value: None
    )
    def test_explicit_streams(self, text, expected):
        assert stream(text) == expected

    def test_corpus_streams(self):
        assert len(GOLDEN["corpus"]) > 900
        changed = [
            text
            for text, crc in GOLDEN["corpus"]
            if zlib.crc32(json.dumps(stream(text)).encode()) != crc
        ]
        assert changed == []

    def test_unterminated_input_is_reported_at_its_end(self):
        for text, message in [
            ("SELECT 'abc\n  def", "unterminated string literal"),
            ("SELECT 'it''", "unterminated string literal"),
            ('SELECT "abc', "unterminated quoted identifier"),
            ("SELECT 1 /* abc\n", "unterminated block comment"),
        ]:
            with pytest.raises(SqlSyntaxError, match=message) as caught:
                Lexer(text).tokens()
            lines = text.split("\n")
            assert (caught.value.line, caught.value.column) == (
                len(lines), len(lines[-1]) + 1)

    def test_stray_character_is_reported_where_it_stands(self):
        with pytest.raises(SqlSyntaxError, match="unexpected character '@'") as caught:
            Lexer("SELECT a,\n       @b").tokens()
        assert (caught.value.line, caught.value.column) == (2, 8)
