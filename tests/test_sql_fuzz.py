"""Differential fuzz of the SQL front end.

* ``tokenize`` is held against :func:`oracle_tokenize`, the character-at-a-
  time scanner it replaced, kept here verbatim: every input must give the
  same tokens (kind, text, value, line, column) or the same error (message,
  line, column).
* ``parse`` has exactly two legal outcomes for any text: a
  :class:`~repro.db.sql.ast.Statement` or a :class:`SqlSyntaxError` — never
  another exception and never a hang.

Every suite is derandomized, so a failure replays from its node id.
"""

from __future__ import annotations

import signal
from collections import namedtuple
from contextlib import contextmanager

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.db.sql import lexer
from repro.db.sql.ast import Statement
from repro.db.sql.lexer import TokenType
from repro.db.sql.parser import parse
from repro.errors import SqlSyntaxError

# --------------------------------------------------------------------- #
# the oracle: the character-at-a-time tokenizer, verbatim
# --------------------------------------------------------------------- #

Token = namedtuple("Token", "type text value line column")

_TWO_CHAR_OPS = ("<=", ">=", "<>", "!=", "||")
_ONE_CHAR_OPS = "+-*/()=<>,.;"


def oracle_tokenize(sql: str) -> list[Token]:
    """Tokenize SQL text; raises :class:`SqlSyntaxError` on bad input."""
    tokens: list[Token] = []
    i = 0
    line, col = 1, 1
    n = len(sql)

    def advance(text: str) -> None:
        nonlocal i, line, col
        for ch in text:
            i += 1
            if ch == "\n":
                line += 1
                col = 1
            else:
                col += 1

    while i < n:
        ch = sql[i]
        if ch in " \t\r\n":
            advance(ch)
            continue
        if sql.startswith("--", i):  # line comment
            end = sql.find("\n", i)
            advance(sql[i:end] if end != -1 else sql[i:])
            continue
        start_line, start_col = line, col
        if ch == "?":
            tokens.append(Token(TokenType.PARAM, "?", None, start_line, start_col))
            advance("?")
            continue
        if ch == "'":
            j = i + 1
            chunks: list[str] = []
            while True:
                if j >= n:
                    raise SqlSyntaxError("unterminated string literal", start_line, start_col)
                if sql[j] == "'":
                    if j + 1 < n and sql[j + 1] == "'":  # escaped quote
                        chunks.append("'")
                        j += 2
                        continue
                    break
                chunks.append(sql[j])
                j += 1
            text = sql[i:j + 1]
            tokens.append(Token(TokenType.STRING, text, "".join(chunks), start_line, start_col))
            advance(text)
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and sql[i + 1].isdigit()):
            j = i
            seen_dot = False
            seen_exp = False
            while j < n:
                c = sql[j]
                if c.isdigit():
                    j += 1
                elif c == "." and not seen_dot and not seen_exp:
                    seen_dot = True
                    j += 1
                elif c in "eE" and not seen_exp and j > i:
                    seen_exp = True
                    j += 1
                    if j < n and sql[j] in "+-":
                        j += 1
                else:
                    break
            text = sql[i:j]
            try:
                value: object = float(text) if (seen_dot or seen_exp) else int(text)
            except ValueError:
                raise SqlSyntaxError(f"bad numeric literal {text!r}", start_line, start_col) from None
            tokens.append(Token(TokenType.NUMBER, text, value, start_line, start_col))
            advance(text)
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (sql[j].isalnum() or sql[j] == "_"):
                j += 1
            text = sql[i:j]
            tokens.append(Token(TokenType.IDENT, text, text, start_line, start_col))
            advance(text)
            continue
        two = sql[i:i + 2]
        if two in _TWO_CHAR_OPS:
            tokens.append(Token(TokenType.OPERATOR, two, two, start_line, start_col))
            advance(two)
            continue
        if ch in _ONE_CHAR_OPS:
            tokens.append(Token(TokenType.OPERATOR, ch, ch, start_line, start_col))
            advance(ch)
            continue
        raise SqlSyntaxError(f"unexpected character {ch!r}", start_line, start_col)
    tokens.append(Token(TokenType.EOF, "", None, line, col))
    return tokens


# --------------------------------------------------------------------- #
# (a) tokenize against the oracle
# --------------------------------------------------------------------- #


def _outcome(tokenizer, sql):
    """Tokens with their value's type, or the error's message and position."""
    try:
        return [(t.type, t.text, type(t.value), t.value, t.line, t.column)
                for t in tokenizer(sql)]
    except SqlSyntaxError as exc:
        return ("error", str(exc), exc.line, exc.column)


#: lexical pieces, the edges of every token kind among them: quotes and
#: doubled quotes, comments, newlines, exponents and signs, characters no
#: token starts with, a digit that is not decimal (``²``), a decimal digit
#: that is not ASCII (``١``), a non-ASCII letter, numerals that are not
#: letters (``½``, ``Ⅻ``) and one that is (``五``)
_PIECES = (
    [" ", "'", "''", "--", "\n", "\t", "\r", ".", "e", "E", "+", "-", "?",
     "_", "@", "$", "!", "|", "²", "١", "é", "½", "Ⅻ", "五", "a", "x", "Z"]
    + list("0123456789")
    + ["<=", ">=", "<>", "!=", "||"] + list("+-*/()=<>,.;")
)


def _assert_same_tokens(sql):
    assert _outcome(lexer.tokenize, sql) == _outcome(oracle_tokenize, sql), repr(sql)


class TestTokenizeMatchesTheOracle:
    @settings(max_examples=1500, deadline=None, derandomize=True)
    @given(st.lists(st.sampled_from(_PIECES), max_size=30).map("".join))
    @example("1²")
    @example(".²")
    @example("'a''")
    @example("a\n'b\nc' d -- e\n\n.5e-3")
    def test_pieces(self, sql):
        _assert_same_tokens(sql)

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(st.text(max_size=30))
    def test_any_text(self, sql):
        _assert_same_tokens(sql)

    def test_a_multi_line_statement(self):
        sql = ("select p.name, count(*) from patient p, rawVolume r"
               " where r.patientId = p.patientId and p.age >= 30.5e0"
               " and r.modality in ('PET', 'o''mri') -- trailing\n"
               " group by p.name order by 2 desc limit ?;")
        _assert_same_tokens(sql)

    def test_keyword_is_the_lowered_text_of_an_identifier_only(self):
        tokens = lexer.tokenize("SeLeCt 'SELECT' 1 ( ?")
        assert [t.keyword for t in tokens] == ["select", None, None, None, None, None]


# --------------------------------------------------------------------- #
# (b) parse ends in a Statement or a SqlSyntaxError
# --------------------------------------------------------------------- #


@contextmanager
def _within(seconds):
    """Turn a hang into a failure where the platform has SIGALRM."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError(f"no outcome within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


#: well-formed statements; the fuzz cuts them short and splices them
_STATEMENTS = [
    "select p.name as n, count(*) from patient p, rawVolume r where"
    " r.patientId = p.patientId and not p.age between 1 and ? group by p.name"
    " having count(*) > 1 order by n desc, 2 asc limit 3",
    "select distinct a from t where a in (select b from u) or exists"
    " (select 1 from u where u.b is not null) and a not in (1, 2.5, 'x')",
    "select -a * (b + c) / 2 || 'z', f(*), g() from t where a <> ? and b != -1e3",
    "insert into t (a, b) values (1, 'o''b'), (?, null)",
    "create table t (a varchar(40), b integer, c longfield)",
    "create index ix on t (a)",
    "create spatial index sx on t (r)",
    "drop table t",
    "drop index ix",
    "delete from t where a = true",
    "update t set a = a + 1, b = false where c is null",
    "explain analyze select a from t;",
    "analyze t",
]

_VOCABULARY = sorted({piece for sql in _STATEMENTS
                      for piece in sql.replace("(", " ( ").replace(")", " ) ")
                      .replace(",", " , ").split()})


@st.composite
def _statement_text(draw):
    """A cut, spliced or deeply nested variant of a well-formed statement."""
    words = draw(st.sampled_from(_STATEMENTS)).split(" ")
    cut = draw(st.integers(0, len(words)))
    words = words[:cut] + draw(st.lists(st.sampled_from(_VOCABULARY), max_size=6))
    depth = draw(st.sampled_from([0, 0, 0, 5, 400, 3000]))
    if depth:
        at = draw(st.integers(0, len(words)))
        words.insert(at, draw(st.sampled_from(["(", "not", "-", "+"])) * depth)
    return " ".join(words)


class TestParseEndsInAStatementOrASyntaxError:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(_statement_text())
    @example("create table t (a varchar(40")
    @example("select " + "(" * 3000 + "1" + ")" * 3000 + " from t")
    @example("select " + "not " * 3000 + "1 from t")
    def test_statement_shapes(self, sql):
        with _within(5):
            try:
                result = parse(sql)
            except SqlSyntaxError:
                return
        assert isinstance(result, Statement)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.sampled_from(_PIECES + _VOCABULARY), max_size=25).map(" ".join))
    def test_token_soup(self, sql):
        with _within(5):
            try:
                result = parse(sql)
            except SqlSyntaxError:
                return
        assert isinstance(result, Statement)


@pytest.mark.parametrize("sql", _STATEMENTS)
def test_the_seed_statements_parse(sql):
    assert isinstance(parse(sql), Statement)
