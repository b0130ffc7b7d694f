"""SQL tokenizer.

Produces a flat token stream with line/column positions so the parser can
report useful syntax errors.  One compiled pattern does the scanning:
each match names the kind of token it found (``lastgroup``), and line and
column come from a running count of newlines.  Keywords are not reserved
at the lexer level: every identifier token carries its lower-cased text
as :attr:`Token.keyword`, which is what the parser compares.
"""

from __future__ import annotations

import re
from enum import Enum, auto
from functools import cache
from typing import NamedTuple

from repro.errors import SqlSyntaxError

__all__ = ["TokenType", "Token", "tokenize"]


class TokenType(Enum):
    """Kinds of lexical tokens."""
    IDENT = auto()
    NUMBER = auto()
    STRING = auto()
    OPERATOR = auto()
    PARAM = auto()  # a '?' placeholder
    EOF = auto()


class Token(NamedTuple):
    """One lexical token: its kind, text, and source position."""
    type: TokenType
    text: str
    value: object
    line: int
    column: int
    #: the lower-cased text of an IDENT token, ``None`` for any other kind
    keyword: str | None = None

    def matches_keyword(self, keyword: str) -> bool:
        """Case-insensitive keyword test for identifier tokens."""
        return self.type is TokenType.IDENT and self.text.lower() == keyword.lower()

    def __repr__(self) -> str:
        return f"Token({self.type.name}, {self.text!r})"


# Each match is one token after any run of blanks and ``--`` comments: an
# identifier starts with a letter (``str.isalpha``) or ``_`` and goes on
# with ``\w`` (= ``str.isalnum`` or ``_``); a number is digits
# (``str.isdigit``) with at most one ``.`` and then at most one exponent; a
# string's closing quote is never followed by another quote (which stops
# the pattern from backtracking to a shorter string).  A character no
# token starts with is an ``error``; blanks at the end match ``end``.
_SPEC = r"""
    (?:[ \t\r\n]+|--[^\n]*)*
    (?:
        (?P<ident>{alpha}\w*)
      | (?P<number>(?:{digit}+(?:\.{digit}*)?|\.{digit}+)(?:[eE][+-]?{digit}*)?)
      | (?P<operator><=|>=|<>|!=|\|\||[-+*/()=<>,.;])
      | (?P<string>'[^']*(?:''[^']*)*'(?!'))
      | (?P<param>\?)
      | (?P<end>\Z)
      | (?P<error>.)
    )
"""


@cache
def _scanner(ascii_only: bool) -> re.Pattern:
    """The token pattern.  On ASCII text ``[^\\W\\d]`` is ``isalpha`` plus
    ``_`` and ``\\d`` is ``isdigit``; beyond it they differ by the digits
    that are not decimal (``'²'``) and the numerals that are not letters
    (``'½'``), which are listed once, when non-ASCII text first comes."""
    alpha, digit = r"[^\W\d]", r"\d"
    if not ascii_only:
        numerals = list(filter(str.isnumeric, map(chr, range(0x80, 0x110000))))
        digits = re.escape("".join(c for c in numerals if c.isdigit() and not c.isdecimal()))
        odd = re.escape("".join(c for c in numerals if not c.isalpha() and not c.isdecimal()))
        alpha, digit = rf"(?![{odd}]){alpha}", rf"[\d{digits}]"
    return re.compile(_SPEC.format(alpha=alpha, digit=digit), re.VERBOSE | re.DOTALL)


#: builds a :class:`Token` without the keyword-argument handling of its
#: ``__new__``: the tokenizer always passes every field
_new_token = tuple.__new__

_IDENT, _NUMBER, _STRING, _OPERATOR, _PARAM = (
    TokenType.IDENT, TokenType.NUMBER, TokenType.STRING, TokenType.OPERATOR,
    TokenType.PARAM)


def tokenize(sql: str) -> list[Token]:
    """Tokenize SQL text; raises :class:`SqlSyntaxError` on bad input."""
    tokens: list[Token] = []
    append = tokens.append
    # ``line`` starts at ``line_start``; ``newline`` is the next line break,
    # or the end of the text when there is none
    line, line_start, wrap = 1, 0, len(sql) + 1
    newline = sql.find("\n") % wrap
    for match in _scanner(sql.isascii()).finditer(sql):
        kind = match.lastgroup
        start = match.start(kind)
        while start > newline:
            line, line_start = line + 1, newline + 1
            newline = sql.find("\n", line_start) % wrap
        text = match.group(kind)
        column = start - line_start + 1
        if kind == "ident":
            append(_new_token(Token, (_IDENT, text, text, line, column, text.lower())))
        elif kind == "operator":
            append(_new_token(Token, (_OPERATOR, text, text, line, column, None)))
        elif kind == "number":
            try:
                value = float(text) if "." in text or "e" in text or "E" in text else int(text)
            except ValueError:
                raise SqlSyntaxError(f"bad numeric literal {text!r}", line, column) from None
            append(_new_token(Token, (_NUMBER, text, value, line, column, None)))
        elif kind == "string":
            value = text[1:-1].replace("''", "'")
            append(_new_token(Token, (_STRING, text, value, line, column, None)))
        elif kind == "param":
            append(_new_token(Token, (_PARAM, text, None, line, column, None)))
        elif kind == "end":  # the pattern's last match, always
            append(Token(TokenType.EOF, "", None, line, column))
            return tokens
        elif text == "'":
            raise SqlSyntaxError("unterminated string literal", line, column)
        else:
            raise SqlSyntaxError(f"unexpected character {text!r}", line, column)
