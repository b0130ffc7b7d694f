"""SQL front end: lexer, AST, parser, unparser, and the prepared statement."""

from __future__ import annotations

from repro.db.sql import ast
from repro.db.sql.ast import Span
from repro.db.sql.lexer import Token, TokenType, tokenize
from repro.db.sql.parser import parse, parse_expression
from repro.db.sql.prepared import Prepared
from repro.db.sql.unparse import unparse, unparse_expression

__all__ = [
    "ast",
    "Span",
    "tokenize",
    "Token",
    "TokenType",
    "parse",
    "parse_expression",
    "Prepared",
    "unparse",
    "unparse_expression",
]
