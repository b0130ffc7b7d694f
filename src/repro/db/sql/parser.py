"""Recursive-descent parser for the SQL subset.

Supported statements::

    SELECT [DISTINCT] expr [AS alias], ... | *
        FROM table [alias], ...
        [WHERE expr] [ORDER BY expr [ASC|DESC], ...] [LIMIT n]
    INSERT INTO table [(col, ...)] VALUES (expr, ...), ...
    CREATE TABLE name (col type, ...)
    DROP TABLE name
    DELETE FROM table [WHERE expr]

Expressions support literals, ``?`` parameters, (qualified) column
references, function calls, arithmetic, comparisons, string concatenation
``||``, ``AND`` / ``OR`` / ``NOT``, ``IS [NOT] NULL``, ``BETWEEN``, and
``IN (value list)`` — everything the paper's §3.4 query patterns use, plus
the conveniences the examples want.
"""

from __future__ import annotations

import threading

from repro.db.sql.ast import (
    Analyze,
    BinOp,
    Span,
    ColumnRef,
    CreateIndex,
    CreateSpatialIndex,
    CreateTable,
    Delete,
    DropIndex,
    DropTable,
    Exists,
    Explain,
    Expr,
    FuncCall,
    InSubquery,
    Insert,
    Literal,
    OrderItem,
    Param,
    Select,
    SelectItem,
    Star,
    Statement,
    Subquery,
    TableRef,
    UnaryOp,
    Update,
)
from repro.db.sql.lexer import Token, TokenType, tokenize
from repro.errors import SqlSyntaxError

__all__ = ["last_tokens", "parse", "parse_expression"]

_KEYWORDS = {
    "select", "distinct", "from", "where", "group", "having", "order", "by",
    "asc", "desc", "limit", "insert", "into", "values", "create", "drop",
    "table", "delete", "update", "set", "index", "on", "exists",
    "explain", "analyze",
    "and", "or", "not", "as", "is", "null", "true", "false", "between", "in",
}

#: what an alias cannot be: a keyword, or not an identifier (keyword None)
_NOT_ALIASES = _KEYWORDS | {None}

_COMPARISONS = ("=", "<>", "!=", "<", "<=", ">", ">=")

#: how tightly each binary operator binds (see ``parse_expr`` and
#: ``parse_additive``)
_LOGICAL = {"or": 1, "and": 2}
_ARITHMETIC = {"+": 1, "-": 1, "||": 1, "*": 2, "/": 2}

#: the keywords that are literal values
_LITERALS = {"null": None, "true": True, "false": False}

_IDENT, _NUMBER, _STRING, _OPERATOR, _PARAM, _EOF = (
    TokenType.IDENT, TokenType.NUMBER, TokenType.STRING, TokenType.OPERATOR,
    TokenType.PARAM, TokenType.EOF)


class _Parser:
    def __init__(self, sql: str):
        self.tokens = tokenize(sql)
        self.pos = 0
        self.param_count = 0

    # -------------------------------------------------------------- #
    # token plumbing
    # -------------------------------------------------------------- #

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.type is not _EOF:
            self.pos += 1
        return token

    def error(self, message: str) -> SqlSyntaxError:
        token = self.tokens[self.pos]
        found = token.text or "end of input"
        return SqlSyntaxError(f"{message} (found {found!r})", token.line, token.column)

    def span_here(self) -> Span:
        """The span of the token about to be consumed."""
        token = self.tokens[self.pos]
        return Span(token.line, token.column)

    # Keywords are compared lower-case against ``Token.keyword``, which is
    # None for anything but an identifier; an operator's text is never the
    # text of another kind of token, so operators are compared by text.
    # Neither can match the EOF token, so a match may always step past it.

    def at_keyword(self, *keywords: str) -> bool:
        return self.tokens[self.pos].keyword in keywords

    def expect_keyword(self, keyword: str) -> Token:
        token = self.tokens[self.pos]
        if token.keyword != keyword:
            raise self.error(f"expected {keyword.upper()}")
        self.pos += 1
        return token

    def accept_keyword(self, keyword: str) -> bool:
        if self.tokens[self.pos].keyword == keyword:
            self.pos += 1
            return True
        return False

    def accept_alias(self) -> str | None:
        """An identifier that is not a keyword, consumed: an alias."""
        token = self.tokens[self.pos]
        if token.keyword in _NOT_ALIASES:
            return None
        self.pos += 1
        return token.text

    def at_operator(self, *ops: str) -> bool:
        return self.tokens[self.pos].text in ops

    def expect_operator(self, op: str) -> Token:
        token = self.tokens[self.pos]
        if token.text != op:
            raise self.error(f"expected {op!r}")
        self.pos += 1
        return token

    def accept_operator(self, *ops: str) -> Token | None:
        token = self.tokens[self.pos]
        if token.text in ops:
            self.pos += 1
            return token
        return None

    def expect_ident(self, what: str) -> str:
        token = self.tokens[self.pos]
        if token.type is not _IDENT:
            raise self.error(f"expected {what}")
        self.pos += 1
        return token.text

    # -------------------------------------------------------------- #
    # statements
    # -------------------------------------------------------------- #

    def parse_statement(self) -> Statement:
        if self.at_keyword("explain"):
            span = self.span_here()
            self.advance()
            analyze = self.accept_keyword("analyze")
            stmt = Explain(self.parse_bare_statement(), analyze, span=span)
        else:
            stmt = self.parse_bare_statement()
        self.accept_operator(";")
        if self.peek().type is not _EOF:
            raise self.error("unexpected trailing input")
        return stmt

    def parse_bare_statement(self) -> Statement:
        parse_statement = _STATEMENTS.get(self.tokens[self.pos].keyword)
        if parse_statement is None:
            raise self.error("expected a SQL statement")
        return parse_statement(self)

    def parse_select(self) -> Select:
        span = self.span_here()
        self.expect_keyword("select")
        distinct = self.accept_keyword("distinct")
        items = self.parse_select_items()
        self.expect_keyword("from")
        tables = [self.parse_table_ref()]
        while self.accept_operator(","):
            tables.append(self.parse_table_ref())
        where = None
        if self.accept_keyword("where"):
            where = self.parse_expr()
        group_by: list[Expr] = []
        if self.accept_keyword("group"):
            self.expect_keyword("by")
            group_by.append(self.parse_expr())
            while self.accept_operator(","):
                group_by.append(self.parse_expr())
        having = None
        if self.accept_keyword("having"):
            having = self.parse_expr()
        order_by: list[OrderItem] = []
        if self.accept_keyword("order"):
            self.expect_keyword("by")
            while True:
                item_span = self.span_here()
                expr = self.parse_expr()
                ascending = True
                if self.accept_keyword("desc"):
                    ascending = False
                else:
                    self.accept_keyword("asc")
                order_by.append(OrderItem(expr, ascending, span=item_span))
                if not self.accept_operator(","):
                    break
        limit = None
        if self.accept_keyword("limit"):
            token = self.peek()
            if token.type is not _NUMBER or not isinstance(token.value, int):
                raise self.error("LIMIT expects an integer")
            self.advance()
            limit = token.value
        return Select(
            tuple(items), tuple(tables), where,
            tuple(group_by), having, tuple(order_by), limit, distinct,
            span=span,
        )

    def parse_select_items(self) -> list[SelectItem]:
        items = []
        while True:
            item_span = self.span_here()
            if self.accept_operator("*"):
                items.append(SelectItem(Star(span=item_span), span=item_span))
            else:
                expr = self.parse_expr()
                if self.accept_keyword("as"):
                    alias = self.expect_ident("an alias name")
                else:
                    alias = self.accept_alias()
                items.append(SelectItem(expr, alias, span=item_span))
            if not self.accept_operator(","):
                return items

    def parse_table_ref(self) -> TableRef:
        span = self.span_here()
        name = self.expect_ident("a table name")
        alias = self.accept_alias()
        if alias is None and self.accept_keyword("as"):
            alias = self.expect_ident("a table alias")
        return TableRef(name, alias, span=span)

    def parse_insert(self) -> Insert:
        span = self.span_here()
        self.expect_keyword("insert")
        self.expect_keyword("into")
        table = self.expect_ident("a table name")
        columns = None
        if self.accept_operator("("):
            columns = [self.expect_ident("a column name")]
            while self.accept_operator(","):
                columns.append(self.expect_ident("a column name"))
            self.expect_operator(")")
        self.expect_keyword("values")
        rows = [self.parse_value_row()]
        while self.accept_operator(","):
            rows.append(self.parse_value_row())
        return Insert(table, tuple(columns) if columns else None, tuple(rows), span=span)

    def parse_value_row(self) -> tuple[Expr, ...]:
        self.expect_operator("(")
        exprs = [self.parse_expr()]
        while self.accept_operator(","):
            exprs.append(self.parse_expr())
        self.expect_operator(")")
        return tuple(exprs)

    def parse_update(self) -> Update:
        span = self.span_here()
        self.expect_keyword("update")
        table = self.expect_ident("a table name")
        self.expect_keyword("set")
        assignments = [self.parse_assignment()]
        while self.accept_operator(","):
            assignments.append(self.parse_assignment())
        where = None
        if self.accept_keyword("where"):
            where = self.parse_expr()
        return Update(table, tuple(assignments), where, span=span)

    def parse_assignment(self) -> tuple[str, Expr]:
        column = self.expect_ident("a column name")
        self.expect_operator("=")
        return column, self.parse_expr()

    def parse_analyze(self) -> Analyze:
        span = self.span_here()
        self.expect_keyword("analyze")
        return Analyze(self.accept_alias(), span=span)

    def parse_create(self) -> CreateTable | CreateIndex | CreateSpatialIndex:
        span = self.span_here()
        self.expect_keyword("create")
        spatial = self.accept_keyword("spatial")
        if spatial:
            self.expect_keyword("index")
        if spatial or self.accept_keyword("index"):
            name = self.expect_ident("an index name")
            self.expect_keyword("on")
            table = self.expect_ident("a table name")
            self.expect_operator("(")
            column = self.expect_ident("a column name")
            self.expect_operator(")")
            index = CreateSpatialIndex if spatial else CreateIndex
            return index(name, table, column, span=span)
        self.expect_keyword("table")
        table = self.expect_ident("a table name")
        self.expect_operator("(")
        columns = [self.parse_column_def()]
        while self.accept_operator(","):
            columns.append(self.parse_column_def())
        self.expect_operator(")")
        return CreateTable(table, tuple(columns), span=span)

    def parse_column_def(self) -> tuple[str, str]:
        name = self.expect_ident("a column name")
        type_name = self.expect_ident("a type name")
        # Swallow optional length like VARCHAR(40).
        if self.accept_operator("("):
            while not self.accept_operator(")"):
                if self.advance().type is _EOF:
                    raise self.error("expected ')'")
        return name, type_name

    def parse_drop(self) -> DropTable | DropIndex:
        span = self.span_here()
        self.expect_keyword("drop")
        if self.accept_keyword("index"):
            return DropIndex(self.expect_ident("an index name"), span=span)
        self.expect_keyword("table")
        return DropTable(self.expect_ident("a table name"), span=span)

    def parse_delete(self) -> Delete:
        span = self.span_here()
        self.expect_keyword("delete")
        self.expect_keyword("from")
        table = self.expect_ident("a table name")
        where = None
        if self.accept_keyword("where"):
            where = self.parse_expr()
        return Delete(table, where, span=span)

    # -------------------------------------------------------------- #
    # expressions: OR, AND, NOT, comparisons, + - ||, * /, signs
    # -------------------------------------------------------------- #

    def parse_expr(self, level: int = 1) -> Expr:
        """An expression whose top operator binds at ``level`` or tighter:
        1 = OR, 2 = AND, 3 = NOT or a comparison."""
        token = self.tokens[self.pos]
        if token.keyword == "not":
            self.pos += 1
            left = UnaryOp("not", self.parse_expr(3), span=Span(token.line, token.column))
        else:
            left = self.parse_comparison()
        while True:
            token = self.tokens[self.pos]
            binds = _LOGICAL.get(token.keyword)
            if binds is None or binds < level:
                return left
            self.pos += 1
            left = BinOp(token.keyword, left, self.parse_expr(binds + 1),
                         span=Span(token.line, token.column))

    def parse_comparison(self) -> Expr:
        left = self.parse_additive()
        token = self.tokens[self.pos]
        keyword = token.keyword
        if keyword is None:
            if token.text not in _COMPARISONS:
                return left
            self.pos += 1
            op = "<>" if token.text == "!=" else token.text
            return BinOp(op, left, self.parse_additive(), span=Span(token.line, token.column))
        if keyword == "is":
            is_span = Span(token.line, token.column)
            self.pos += 1
            negated = self.accept_keyword("not")
            self.expect_keyword("null")
            test = FuncCall("__is_null", (left,), span=is_span)
            return UnaryOp("not", test, span=is_span) if negated else test
        if keyword == "between":
            between_span = Span(token.line, token.column)
            self.pos += 1
            lo = self.parse_additive()
            self.expect_keyword("and")
            hi = self.parse_additive()
            return BinOp(
                "and",
                BinOp(">=", left, lo, span=between_span),
                BinOp("<=", left, hi, span=between_span),
                span=between_span,
            )
        negated = keyword == "not"
        if negated:
            self.advance()
            if not self.at_keyword("in"):
                raise self.error("expected IN after NOT")
        if self.at_keyword("in"):
            in_span = self.span_here()
            self.pos += 1
            self.expect_operator("(")
            if self.at_keyword("select"):
                subquery = self.parse_select()
                self.expect_operator(")")
                return InSubquery(left, subquery, negated, span=in_span)
            options = [self.parse_expr()]
            while self.accept_operator(","):
                options.append(self.parse_expr())
            self.expect_operator(")")
            test: Expr = BinOp("=", left, options[0], span=in_span)
            for option in options[1:]:
                test = BinOp("or", test, BinOp("=", left, option, span=in_span), span=in_span)
            return UnaryOp("not", test, span=in_span) if negated else test
        return left

    def parse_additive(self, level: int = 1) -> Expr:
        """Arithmetic whose top operator binds at ``level`` or tighter:
        1 = ``+ - ||``, 2 = ``* /``."""
        left = self.parse_unary()
        while True:
            token = self.tokens[self.pos]
            binds = _ARITHMETIC.get(token.text)
            if binds is None or binds < level:
                return left
            self.pos += 1
            left = BinOp(token.text, left, self.parse_additive(binds + 1),
                         span=Span(token.line, token.column))

    def parse_unary(self) -> Expr:
        """A primary expression after any ``-`` / ``+`` signs."""
        token = self.tokens[self.pos]
        span = Span(token.line, token.column)
        kind = token.type
        if kind is _OPERATOR:
            if token.text == "-":
                self.pos += 1
                return UnaryOp("-", self.parse_unary(), span=span)
            if token.text == "+":
                self.pos += 1
                return self.parse_unary()
            if token.text == "(":
                self.pos += 1
                if self.at_keyword("select"):
                    subquery = self.parse_select()
                    self.expect_operator(")")
                    return Subquery(subquery, span=span)
                expr = self.parse_expr()
                self.expect_operator(")")
                return expr
        elif kind is _NUMBER or kind is _STRING:
            self.pos += 1
            return Literal(token.value, span=span)
        elif kind is _PARAM:
            self.pos += 1
            param = Param(self.param_count, span=span)
            self.param_count += 1
            return param
        elif kind is _IDENT:
            self.pos += 1
            keyword = token.keyword
            if keyword in _LITERALS:
                return Literal(_LITERALS[keyword], span=span)
            if keyword == "exists":
                self.expect_operator("(")
                subquery = self.parse_select()
                self.expect_operator(")")
                return Exists(subquery, span=span)
            name = token.text
            if self.accept_operator("("):  # function call
                args: list[Expr] = []
                if self.at_operator("*"):
                    star_span = self.span_here()
                    self.pos += 1
                    args.append(Star(span=star_span))
                elif not self.at_operator(")"):
                    args.append(self.parse_expr())
                    while self.accept_operator(","):
                        args.append(self.parse_expr())
                self.expect_operator(")")
                return FuncCall(name, tuple(args), span=span)
            if self.accept_operator("."):
                column = self.expect_ident("a column name")
                return ColumnRef(name, column, span=span)
            return ColumnRef(None, name, span=span)
        raise self.error("expected an expression")


#: the keyword a statement starts with -> the method that parses it
_STATEMENTS = {
    "select": _Parser.parse_select, "insert": _Parser.parse_insert,
    "create": _Parser.parse_create, "drop": _Parser.parse_drop,
    "delete": _Parser.parse_delete, "update": _Parser.parse_update,
    "analyze": _Parser.parse_analyze,
}


#: per thread, the tokens of the statement :func:`parse` last read
_LAST = threading.local()


def last_tokens() -> list[Token]:
    """The token stream this thread's last :func:`parse` read — what
    :class:`~repro.db.sql.Prepared` derives a statement's shape from."""
    return _LAST.tokens


def parse(sql: str) -> Statement:
    """Parse one SQL statement."""
    parser = _Parser(sql)
    _LAST.tokens = parser.tokens
    try:
        return parser.parse_statement()
    except RecursionError:
        raise parser.error("statement nests too deeply") from None


def parse_expression(sql: str) -> Expr:
    """Parse a standalone expression (used by tests and the REPL helper)."""
    parser = _Parser(sql)
    try:
        expr = parser.parse_expr()
    except RecursionError:
        raise parser.error("expression nests too deeply") from None
    if parser.peek().type is not _EOF:
        raise parser.error("unexpected trailing input after expression")
    return expr
