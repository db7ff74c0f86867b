"""Parsed form of the supported SQL subset.

The grammar (documented in README.md) is:

    SELECT [DISTINCT] cols
    FROM tbl [alias] {, tbl [alias]}
    [INNER JOIN tbl [alias] ON eq {AND eq} | LEFT JOIN tbl [alias] ON eq {AND eq}]
    [WHERE atom {AND atom}]
    [LIMIT 1]

where `cols` is `*`, `1`, `COUNT(*)`, or a list of `col` / `tbl.col` /
`tbl.*` items; placeholders are `?`; identifiers starting with an
uppercase letter are parameters (`MyUserId` and `Now` are the session
parameters, everything else is a request parameter).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .terms import Cmp, Predicate

@dataclass(frozen=True)
class Star:
    pass


@dataclass(frozen=True)
class TableStar:
    alias: str


@dataclass(frozen=True)
class OneLit:
    """The literal `1` select list of an existence query."""


@dataclass(frozen=True)
class CountStar:
    pass


@dataclass(frozen=True)
class SelectCol:
    table: str | None
    name: str


SelectItem = Union[Star, TableStar, OneLit, CountStar, SelectCol]


@dataclass(frozen=True)
class TableRef:
    table: str
    alias: str


@dataclass(frozen=True)
class JoinClause:
    kind: str  # "inner" | "left"
    table: TableRef
    on: tuple[Cmp, ...]  # column = column equalities


@dataclass(frozen=True)
class QueryAst:
    select: tuple[SelectItem, ...]
    tables: tuple[TableRef, ...]
    join: JoinClause | None
    where: Predicate
    distinct: bool
    limit_one: bool

    def all_tables(self) -> tuple[TableRef, ...]:
        if self.join is None:
            return self.tables
        return self.tables + (self.join.table,)
