"""SQL lexer: one compiled regular expression, one pass.

Token grammar (the alternatives of ``_MASTER``, tried in this order at
each position; keywords are recognized case-insensitively, identifiers
preserve their written case, lookups elsewhere are case-insensitive):

* skipped — whitespace, ``--`` line comments, ``/* */`` block comments;
* ``FLOAT`` — digits with a fraction (``3.14``, ``3.``) and/or an exponent
  (``1e3``, ``2.5e-2``); a number starts with a digit, and a ``.`` that
  begins ``..`` is the path-range punctuation (``Edges[0..*]``), never a
  decimal point;
* ``INTEGER`` — digits;
* ``KEYWORD`` / ``IDENTIFIER`` — a letter or ``_`` followed by letters,
  digits and ``_``; a keyword when its upper-cased text is in ``KEYWORDS``;
* ``STRING`` — single-quoted, ``''`` is an escaped quote;
* ``IDENTIFIER`` — double-quoted, taken verbatim;
* ``OPERATOR`` — ``<= >= <> != || = < > + - * / %``;
* ``PUNCTUATION`` — ``( ) , . ; [ ] ?``;
* anything else is a syntax error: an unterminated string, quoted
  identifier or block comment (reported at the end of the input) or an
  unexpected character (reported where it stands).

A token keeps its offset; line and column are derived from it when asked
for, which only error messages do.

:func:`statement_key` runs the same expression over a statement to key the
statement cache: its shape (the text with each literal replaced by a typed
placeholder) and the literal values, in order.
"""

from __future__ import annotations

import re
from enum import Enum, auto
from typing import Any, Iterator, List, Optional, Tuple

from ..errors import SqlSyntaxError


class TokenType(Enum):
    IDENTIFIER = auto()
    KEYWORD = auto()
    INTEGER = auto()
    FLOAT = auto()
    STRING = auto()
    OPERATOR = auto()
    PUNCTUATION = auto()
    EOF = auto()


# Keywords of the dialect, including the paper's graph extensions.
KEYWORDS = frozenset(
    """
    SELECT FROM WHERE GROUP BY HAVING ORDER ASC DESC LIMIT OFFSET TOP
    DISTINCT AS AND OR NOT IN IS NULL LIKE BETWEEN EXISTS
    INSERT INTO VALUES UPDATE SET DELETE TRUNCATE
    CREATE TABLE INDEX UNIQUE VIEW MATERIALIZED DROP ALTER ADD
    PRIMARY KEY FOREIGN REFERENCES DEFAULT CHECK PARTITION
    GRAPH VERTEXES EDGES PATHS UNDIRECTED DIRECTED HINT SHORTESTPATH
    DFS BFS
    JOIN INNER LEFT RIGHT OUTER ON CROSS
    TRUE FALSE
    COUNT SUM AVG MIN MAX
    UNION ALL CASE WHEN THEN ELSE END CAST
    EXPLAIN ANALYZE
    """.split()
)

_MASTER = re.compile(
    r"""
      (?P<SKIP>        \s+ )
    | (?P<COMMENT>     --[^\n]* | /\*[\s\S]*?\*/ )
    | (?P<FLOAT>       \d+ (?: \.(?!\.)\d* (?:[eE][+-]?\d+)? | [eE][+-]?\d+ ) )
    | (?P<INTEGER>     \d+ )
    | (?P<WORD>        [^\W\d]\w* )
    | (?P<STRING>      '[^']*(?:''[^']*)*'(?!') )
    | (?P<QUOTED>      "[^"]*" )
    | (?P<OPEN_COMMENT> /\* )
    | (?P<OPERATOR>    <= | >= | <> | != | \|\| | [=<>+\-*/%] )
    | (?P<PUNCTUATION> [(),.;\[\]?] )
    | (?P<OPEN_STRING>  ' )
    | (?P<OPEN_QUOTED>  " )
    | (?P<STRAY>        . )
    """,
    re.VERBOSE,
)

_UNTERMINATED = {
    "OPEN_COMMENT": "unterminated block comment",
    "OPEN_STRING": "unterminated string literal",
    "OPEN_QUOTED": "unterminated quoted identifier",
}

_PLAIN = {
    "FLOAT": TokenType.FLOAT,
    "INTEGER": TokenType.INTEGER,
    "OPERATOR": TokenType.OPERATOR,
    "PUNCTUATION": TokenType.PUNCTUATION,
}


def _position(text: str, offset: int):
    """1-based ``(line, column)`` of ``offset`` in ``text``."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


class Token:
    """``value`` is the token as written (quotes removed); ``upper`` is
    what keyword, operator and punctuation matching compares."""

    __slots__ = ("type", "value", "upper", "_text", "offset")

    def __init__(
        self, type_: TokenType, value: str, upper: str, text: str, offset: int
    ):
        self.type = type_
        self.value = value
        self.upper = upper
        self._text = text
        self.offset = offset

    @property
    def line(self) -> int:
        return _position(self._text, self.offset)[0]

    @property
    def column(self) -> int:
        return _position(self._text, self.offset)[1]

    def text_until(self, end: "Token") -> str:
        """The source text from this token up to (not including) ``end``."""
        return self._text[self.offset:end.offset].rstrip()

    def matches(self, type_: TokenType, value: Optional[str] = None) -> bool:
        if self.type is not type_:
            return False
        if value is None:
            return True
        if type_ is TokenType.IDENTIFIER or type_ is TokenType.STRING:
            return self.value == value
        return self.upper == value.upper()

    def __repr__(self) -> str:
        return f"Token({self.type.name}, {self.value!r})"


class Lexer:
    """Tokenize a SQL string; iterate or call :meth:`tokens`."""

    def __init__(self, text: str):
        self.text = text

    def tokens(self) -> List[Token]:
        return list(self)

    def __iter__(self) -> Iterator[Token]:
        text = self.text
        # every character belongs to some alternative, so the matches
        # tile the text and nothing is skipped unseen
        for match in _MASTER.finditer(text):
            kind = match.lastgroup
            if kind == "SKIP" or kind == "COMMENT":
                continue
            if kind == "WORD":
                # Keywords keep their written case (matching is done
                # case-insensitively) so that keyword-named attributes
                # like ``PS.Edges`` round-trip verbatim through the AST.
                word = match.group()
                upper = word.upper()
                type_ = (
                    TokenType.KEYWORD
                    if upper in KEYWORDS
                    else TokenType.IDENTIFIER
                )
                yield Token(type_, word, upper, text, match.start())
            elif kind in _PLAIN:
                value = match.group()
                yield Token(_PLAIN[kind], value, value, text, match.start())
            elif kind == "STRING":
                value = match.group()[1:-1].replace("''", "'")
                yield Token(TokenType.STRING, value, value, text, match.start())
            elif kind == "QUOTED":
                value = match.group()[1:-1]
                yield Token(
                    TokenType.IDENTIFIER, value, value, text, match.start()
                )
            elif kind == "STRAY":
                raise SqlSyntaxError(
                    f"unexpected character {match.group()!r}",
                    *_position(text, match.start()),
                )
            else:
                raise SqlSyntaxError(
                    _UNTERMINATED[kind], *_position(text, len(text))
                )
        yield Token(TokenType.EOF, "", "", text, len(text))


#: Token kinds that stand in a statement's shape as written.
_SHAPE_KINDS = frozenset(("SKIP", "WORD", "OPERATOR", "PUNCTUATION"))

#: The placeholder each literal kind leaves in a shape. ``\x00`` is a
#: character no keyed text holds outside a literal: anywhere else it is a
#: stray character, and texts with comments or quoted identifiers (which
#: could hold anything) are not keyed — so no two texts share a shape
#: unless they differ only in their literals' values.
_PLACEHOLDERS = {"INTEGER": "\x00i", "FLOAT": "\x00f", "STRING": "\x00s"}


def statement_key(
    text: str,
) -> Optional[Tuple[str, List[Any], List[int]]]:
    """Key one statement for the statement cache, in one pass of the
    lexer's own expression (so the key and the parser agree on what a
    literal is): ``(shape, values, offsets)`` — the text with every
    ``INTEGER`` / ``FLOAT`` / ``STRING`` token replaced by a placeholder
    of its type, the literals' values as the parser reads them, and
    where each literal starts. ``None`` for a text the cache does not
    take: one with a comment, a quoted identifier, or no valid lexing.
    """
    pieces: List[str] = []
    values: List[Any] = []
    offsets: List[int] = []
    copied = 0
    for match in _MASTER.finditer(text):
        kind = match.lastgroup
        if kind in _SHAPE_KINDS:
            continue
        placeholder = _PLACEHOLDERS.get(kind)
        if placeholder is None:
            return None
        start = match.start()
        literal = match.group()
        if kind == "INTEGER":
            values.append(int(literal))
        elif kind == "FLOAT":
            values.append(float(literal))
        else:
            values.append(literal[1:-1].replace("''", "'"))
        offsets.append(start)
        pieces.append(text[copied:start])
        pieces.append(placeholder)
        copied = match.end()
    pieces.append(text[copied:])
    return "".join(pieces), values, offsets
