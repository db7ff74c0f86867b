"""Recursive-descent parser for the supported SQL subset.

Unsupported SQL that we can name (OR, subqueries, ORDER BY, GROUP BY,
arbitrary LIMIT, arithmetic) raises `UnsupportedSqlError`; everything
else malformed raises `SqlSyntaxError` with a line/column position.
"""

from __future__ import annotations

from .lexutil import SourceError, TokenStream, tokenize
from .sqlast import (
    CountStar,
    JoinClause,
    OneLit,
    QueryAst,
    SelectCol,
    SelectItem,
    Star,
    TableRef,
    TableStar,
)
from .terms import (
    SESSION_PARAMS,
    BoolCol,
    BoolLit,
    Cmp,
    IntLit,
    IsNull,
    NamedCol,
    Not,
    NullLit,
    PlaceholderRef,
    Predicate,
    RequestParam,
    SessionParam,
    Term,
    TruePred,
    conjoin,
)


class SqlSyntaxError(SourceError):
    pass


class UnsupportedSqlError(SourceError):
    """A recognized SQL construct that is deliberately outside the grammar."""

    def __init__(self, construct: str, line: int, col: int):
        super().__init__(f"unsupported SQL construct: {construct}", line, col)
        self.construct = construct


_RESERVED = {
    "SELECT", "DISTINCT", "FROM", "WHERE", "AND", "NOT", "IS", "NULL",
    "TRUE", "FALSE", "INNER", "LEFT", "JOIN", "ON", "LIMIT", "AS",
}

# Constructs we recognize only to reject them by name.
_REJECTED_KEYWORDS = {
    "OR": "OR",
    "ORDER": "ORDER BY",
    "GROUP": "GROUP BY",
    "HAVING": "HAVING",
    "UNION": "UNION",
    "EXISTS": "EXISTS subquery",
    "IN": "IN",
    "BETWEEN": "BETWEEN",
    "LIKE": "LIKE",
    "OUTER": "OUTER JOIN",
    "RIGHT": "RIGHT JOIN",
    "CROSS": "CROSS JOIN",
    "SUM": "SUM aggregate",
    "MIN": "MIN aggregate",
    "MAX": "MAX aggregate",
    "AVG": "AVG aggregate",
    "OFFSET": "OFFSET",
}


def _is_param_name(name: str) -> bool:
    return name[0].isupper()


class _Parser:
    def __init__(self, text: str):
        self.ts = TokenStream(tokenize(text))
        self.placeholders = 0

    # -- entry ---------------------------------------------------------------

    def parse(self) -> QueryAst:
        ts = self.ts
        ts.expect_keyword("SELECT")
        distinct = ts.accept_keyword("DISTINCT") is not None
        select = self.select_list()
        ts.expect_keyword("FROM")
        tables = [self.table_ref()]
        while ts.accept_punct(","):
            tables.append(self.table_ref())
        join = self.join_clause()
        where: Predicate = TruePred()
        if ts.accept_keyword("WHERE"):
            where = conjoin(self.atoms())
        limit_one = False
        if ts.accept_keyword("LIMIT"):
            tok = ts.expect_int()
            if tok.text != "1":
                raise UnsupportedSqlError(f"LIMIT {tok.text}", tok.line, tok.col)
            limit_one = True
        self.reject_trailing()
        ast = QueryAst(tuple(select), tuple(tables), join, where, distinct, limit_one)
        self.check_shape(ast)
        return ast

    def reject_trailing(self) -> None:
        tok = self.ts.peek()
        if tok.kind == "eof":
            return
        if tok.kind == "ident" and tok.text.upper() in _REJECTED_KEYWORDS:
            raise UnsupportedSqlError(_REJECTED_KEYWORDS[tok.text.upper()], tok.line, tok.col)
        raise SqlSyntaxError(f"unexpected trailing input {tok.text!r}", tok.line, tok.col)

    def check_shape(self, ast: QueryAst) -> None:
        tok = self.ts.peek()
        has_count = any(isinstance(i, CountStar) for i in ast.select)
        has_one = any(isinstance(i, OneLit) for i in ast.select)
        if has_count and (len(ast.select) != 1 or ast.join is not None or ast.limit_one):
            raise UnsupportedSqlError("COUNT(*) combined with other select features", tok.line, tok.col)
        if has_count and len(ast.tables) != 1:
            raise UnsupportedSqlError("COUNT(*) over more than one table", tok.line, tok.col)
        if has_one and len(ast.select) != 1:
            raise UnsupportedSqlError("literal select item in a column list", tok.line, tok.col)
        if has_one and not ast.limit_one:
            raise UnsupportedSqlError("SELECT 1 without LIMIT 1", tok.line, tok.col)
        if ast.limit_one and not has_one:
            raise UnsupportedSqlError("LIMIT 1 on a non-existence query", tok.line, tok.col)
        aliases = [t.alias for t in ast.all_tables()]
        if len(set(aliases)) != len(aliases):
            raise SqlSyntaxError("duplicate table alias in FROM", tok.line, tok.col)

    # -- select list ----------------------------------------------------------

    def select_list(self) -> list[SelectItem]:
        items = [self.select_item()]
        while self.ts.accept_punct(","):
            items.append(self.select_item())
        return items

    def select_item(self) -> SelectItem:
        ts = self.ts
        tok = ts.peek()
        if ts.accept_punct("*"):
            return Star()
        if tok.kind == "int":
            ts.next()
            if tok.text != "1":
                raise UnsupportedSqlError(f"literal select item {tok.text}", tok.line, tok.col)
            return OneLit()
        if ts.accept_keyword("COUNT"):
            ts.expect_punct("(")
            ts.expect_punct("*")
            ts.expect_punct(")")
            return CountStar()
        if tok.kind == "ident" and tok.text.upper() in _REJECTED_KEYWORDS:
            raise UnsupportedSqlError(_REJECTED_KEYWORDS[tok.text.upper()], tok.line, tok.col)
        if tok.kind == "ident" and tok.text.upper() in _RESERVED:
            raise SqlSyntaxError(f"expected a select item, got {tok.text!r}", tok.line, tok.col)
        name = ts.expect_ident("column").text
        if ts.accept_punct("."):
            if ts.accept_punct("*"):
                return TableStar(name)
            col = ts.expect_ident("column").text
            return SelectCol(name, col)
        return SelectCol(None, name)

    # -- FROM / JOIN ----------------------------------------------------------

    def table_ref(self) -> TableRef:
        ts = self.ts
        name_tok = ts.expect_ident("table name")
        alias = name_tok.text
        ts.accept_keyword("AS")
        nxt = ts.peek()
        if nxt.kind == "ident" and nxt.text.upper() not in _RESERVED and nxt.text.upper() not in _REJECTED_KEYWORDS:
            alias = ts.next().text
        return TableRef(name_tok.text, alias)

    def join_clause(self) -> JoinClause | None:
        ts = self.ts
        kind = None
        if ts.accept_keyword("INNER"):
            kind = "inner"
        elif ts.accept_keyword("LEFT"):
            kind = "left"
        elif ts.at_keyword("JOIN"):
            kind = "inner"
        if kind is None:
            return None
        ts.expect_keyword("JOIN")
        table = self.table_ref()
        ts.expect_keyword("ON")
        eqs = [self.join_equality()]
        while ts.accept_keyword("AND"):
            eqs.append(self.join_equality())
        if ts.at_keyword("INNER", "LEFT", "JOIN"):
            tok = ts.peek()
            raise UnsupportedSqlError("more than one JOIN clause", tok.line, tok.col)
        return JoinClause(kind, table, tuple(eqs))

    def join_equality(self) -> Cmp:
        tok = self.ts.peek()
        left = self.term()
        self.ts.expect_punct("=")
        right = self.term()
        if not isinstance(left, NamedCol) or not isinstance(right, NamedCol):
            raise SqlSyntaxError("JOIN ... ON expects column = column", tok.line, tok.col)
        return Cmp("=", left, right)

    # -- WHERE ----------------------------------------------------------------

    def atoms(self) -> list[Predicate]:
        out = [self.atom()]
        while True:
            if self.ts.accept_keyword("AND"):
                out.append(self.atom())
                continue
            tok = self.ts.peek()
            if tok.kind == "ident" and tok.text.upper() == "OR":
                raise UnsupportedSqlError("OR", tok.line, tok.col)
            return out

    def atom(self) -> Predicate:
        ts = self.ts
        if ts.accept_keyword("NOT"):
            if ts.accept_punct("("):
                inner = self.atom()
                ts.expect_punct(")")
                return Not(inner)
            return Not(self.atom())
        tok = ts.peek()
        if tok.kind == "punct" and tok.text == "(":
            raise UnsupportedSqlError("parenthesized condition or subquery", tok.line, tok.col)
        term = self.term()
        if ts.accept_keyword("IS"):
            negated = ts.accept_keyword("NOT") is not None
            ts.expect_keyword("NULL")
            pred: Predicate = IsNull(term)
            return Not(pred) if negated else pred
        op_tok = ts.peek()
        op = None
        if op_tok.kind == "punct" and op_tok.text in ("=", "<>", "!=", "<", "<=", ">", ">="):
            ts.next()
            op = "<>" if op_tok.text == "!=" else op_tok.text
        if op is None:
            # Bare term: boolean-column truthiness.
            if isinstance(term, (NamedCol, SessionParam, RequestParam)):
                return BoolCol(term)
            raise SqlSyntaxError("expected comparison operator", op_tok.line, op_tok.col)
        right = self.term()
        return Cmp(op, term, right)

    def term(self) -> Term:
        ts = self.ts
        tok = ts.peek()
        if tok.kind == "punct" and tok.text == "?":
            ts.next()
            self.placeholders += 1
            return PlaceholderRef(self.placeholders)
        if tok.kind == "int":
            ts.next()
            self.reject_arithmetic()
            return IntLit(int(tok.text))
        if tok.kind == "string":
            raise UnsupportedSqlError("string literal", tok.line, tok.col)
        if tok.kind == "ident":
            upper = tok.text.upper()
            if upper == "TRUE":
                ts.next()
                return BoolLit(True)
            if upper == "FALSE":
                ts.next()
                return BoolLit(False)
            if upper == "NULL":
                ts.next()
                return NullLit()
            if upper in _REJECTED_KEYWORDS:
                raise UnsupportedSqlError(_REJECTED_KEYWORDS[upper], tok.line, tok.col)
            if upper in _RESERVED:
                raise SqlSyntaxError(f"unexpected keyword {tok.text!r}", tok.line, tok.col)
            ts.next()
            if ts.accept_punct("."):
                col = ts.expect_ident("column").text
                return NamedCol(tok.text, col)
            if _is_param_name(tok.text):
                if tok.text in SESSION_PARAMS:
                    return SessionParam(tok.text)
                return RequestParam(tok.text)
            self.reject_arithmetic()
            return NamedCol(None, tok.text)
        raise SqlSyntaxError(f"expected a term, got {tok.text!r}", tok.line, tok.col)

    def reject_arithmetic(self) -> None:
        tok = self.ts.peek()
        if tok.kind == "punct" and tok.text in ("+", "-", "*", "/"):
            raise UnsupportedSqlError("arithmetic expression", tok.line, tok.col)


def parse_sql(text: str) -> QueryAst:
    """Parse one SELECT statement; raises SqlSyntaxError / UnsupportedSqlError."""
    try:
        return _Parser(text).parse()
    except (SqlSyntaxError, UnsupportedSqlError):
        raise
    except SourceError as e:
        raise SqlSyntaxError(e.message, e.line, e.col) from None
