"""Relational normal form and the mechanical rewrites into it.

A `NormalFormQuery` is a projection over a filtered cross product of
base tables (unnamed perspective: columns are ordinals into the product).
Project-select-join queries convert losslessly; the other supported
shapes are rewritten:

  * inner join      -> cross product plus filter (lossless)
  * SELECT 1..LIMIT 1 -> projection of the empty tuple (lossless)
  * COUNT(*)        -> projection of the table's unique key column
                       (approximate)
  * LEFT JOIN       -> the matching inner part plus the left-only part
                       (approximate; the caller duplicates the
                       conditioned query accordingly), except when the
                       WHERE clause rejects unmatched rows anyway, in
                       which case the inner part alone is lossless.

Execution-facing code keeps the precise semantics instead: `to_executable`
yields a form the interpreter and the symbolic encoder share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .schema import Schema
from .sqlparser import parse_sql
from .sqlast import (
    COUNT_AGGREGATE,
    EXISTENCE_LIMIT1,
    INNER_JOIN,
    LEFT_JOIN,
    PSJ,
    CountStar,
    OneLit,
    QueryAst,
    SelectCol,
    Star,
    TableRef,
    TableStar,
)
from .terms import (
    Col,
    NamedCol,
    PlaceholderRef,
    Predicate,
    RequestParam,
    RowCol,
    Scalar,
    Term,
    TRUE,
    conjoin,
    fold_nulls,
    iter_terms,
    map_terms,
    render_scalar,
)


class NormalizeError(Exception):
    pass


@dataclass(frozen=True)
class NormalFormQuery:
    projection: tuple[int, ...]
    filter: Predicate
    sources: tuple[str, ...]

    def arity(self, schema: Schema) -> int:
        return sum(schema.table(t).arity for t in self.sources)


@dataclass(frozen=True)
class ResultCol:
    name: str
    type: str
    nullable: bool


@dataclass(frozen=True)
class PlainQuery:
    nf: NormalFormQuery
    result: tuple[ResultCol, ...]


@dataclass(frozen=True)
class LeftJoinQuery:
    left_sources: tuple[str, ...]
    right_source: str
    on: Predicate  # over ordinals of left_sources ++ right_source
    where: Predicate
    projection: tuple[int, ...]
    result: tuple[ResultCol, ...]


@dataclass(frozen=True)
class CountQuery:
    source: str
    filter: Predicate
    result: tuple[ResultCol, ...]


ExecutableQuery = Union[PlainQuery, LeftJoinQuery, CountQuery]


@dataclass(frozen=True)
class RewriteVariant:
    """One PSJ approximation of a query, with the result-column renumbering."""

    tag: str  # "full" | "inner" | "left_only"
    nf: NormalFormQuery
    lossless: bool
    result_map: tuple[int | None, ...]  # old result column -> new index (None: dropped)


# ---------------------------------------------------------------------------
# Name resolution


class _Space:
    """The column space of a FROM list: ordinals into the cross product."""

    def __init__(self, schema: Schema, tables: tuple[TableRef, ...]):
        self.schema = schema
        self.tables = tables
        self.offsets: list[int] = []
        off = 0
        for ref in tables:
            self.offsets.append(off)
            off += schema.table(ref.table).arity
        self.arity = off

    def resolve(self, ref: NamedCol) -> int:
        if ref.table is not None:
            for pos, t in enumerate(self.tables):
                if t.alias == ref.table:
                    return self.offsets[pos] + self.schema.table(t.table).column_index(ref.name)
            raise NormalizeError(f"unknown table or alias {ref.table!r}")
        hits = []
        for pos, t in enumerate(self.tables):
            table = self.schema.table(t.table)
            for i, c in enumerate(table.columns):
                if c.name == ref.name:
                    hits.append(self.offsets[pos] + i)
        if not hits:
            raise NormalizeError(f"unknown column {ref.name!r}")
        if len(hits) > 1:
            raise NormalizeError(f"ambiguous column {ref.name!r}")
        return hits[0]

    def resolve_pred(self, p: Predicate) -> Predicate:
        def sub(t: Term) -> Term:
            if isinstance(t, NamedCol):
                return Col(self.resolve(t))
            return t

        return map_terms(p, sub)

    def column_at(self, ordinal: int) -> tuple[TableRef, int]:
        for pos in reversed(range(len(self.tables))):
            if ordinal >= self.offsets[pos]:
                return self.tables[pos], ordinal - self.offsets[pos]
        raise NormalizeError(f"ordinal {ordinal} out of range")

    def select_ordinals(self, items) -> list[int]:
        out: list[int] = []
        for item in items:
            if isinstance(item, Star):
                out.extend(range(self.arity))
            elif isinstance(item, TableStar):
                for pos, t in enumerate(self.tables):
                    if t.alias == item.alias:
                        n = self.schema.table(t.table).arity
                        out.extend(range(self.offsets[pos], self.offsets[pos] + n))
                        break
                else:
                    raise NormalizeError(f"unknown table or alias {item.alias!r}")
            elif isinstance(item, SelectCol):
                out.append(self.resolve(NamedCol(item.table, item.name)))
            elif isinstance(item, (OneLit, CountStar)):
                continue  # handled by the shape-specific rewrites
            else:
                raise NormalizeError(f"bad select item {item!r}")
        return out


def column_of_ordinal(schema: Schema, sources: tuple[str, ...], ordinal: int) -> tuple[str, int, str]:
    """Map a product ordinal to (table, source position, column name)."""
    off = 0
    for pos, name in enumerate(sources):
        n = schema.table(name).arity
        if ordinal < off + n:
            return name, pos, schema.table(name).columns[ordinal - off].name
        off += n
    raise NormalizeError(f"ordinal {ordinal} out of range for sources {sources}")


def check_nf(nf: NormalFormQuery, schema: Schema) -> None:
    """Assert the normal-form invariants; raises NormalizeError."""
    arity = nf.arity(schema)
    for j in nf.projection:
        if not 0 <= j < arity:
            raise NormalizeError(f"projection ordinal {j} out of range 0..{arity - 1}")
    for t in iter_terms(nf.filter):
        if isinstance(t, Col) and not 0 <= t.index < arity:
            raise NormalizeError(f"filter ordinal {t.index} out of range")
        if isinstance(t, NamedCol):
            raise NormalizeError("unresolved column reference in normal form")


def non_session_scalar(nf: NormalFormQuery) -> Scalar | None:
    """The first placeholder, request parameter or result-row reference in
    `nf`, or None.  Policy views and checked queries may hold only columns,
    constants and session parameters."""
    for t in iter_terms(nf.filter):
        if isinstance(t, (PlaceholderRef, RequestParam, RowCol)):
            return t
    return None


def session_view(sql: str, schema: Schema) -> NormalFormQuery:
    """The normal form of a policy view or a checked query: `sql` must have
    one lossless PSJ variant, holding no scalar but session parameters.
    Raises NormalizeError (SourceError if `sql` does not parse)."""
    variants = normalize_query(parse_sql(sql), schema)
    if len(variants) != 1 or not variants[0].lossless:
        raise NormalizeError(f"{sql!r} is not a PSJ (or existence) query")
    bad = non_session_scalar(variants[0].nf)
    if bad is not None:
        raise NormalizeError(f"{sql!r} uses {render_scalar(bad)}, not a session parameter")
    return variants[0].nf


# ---------------------------------------------------------------------------
# Conversions


def to_normal_form(ast: QueryAst, schema: Schema) -> NormalFormQuery:
    """Convert a PSJ-shaped query; other shapes must go through rewrite_to_psj."""
    if ast.shape != PSJ:
        raise NormalizeError(f"query shape {ast.shape!r} is not PSJ; rewrite first")
    space = _Space(schema, ast.tables)
    projection = tuple(space.select_ordinals(ast.select))
    filt = space.resolve_pred(ast.where)
    nf = NormalFormQuery(projection, filt, tuple(t.table for t in ast.tables))
    check_nf(nf, schema)
    return nf


def _key_column(schema: Schema, table: str) -> int:
    t = schema.table(table)
    for i, c in enumerate(t.columns):
        if c.unique:
            return i
    raise NormalizeError(f"COUNT(*) rewrite needs a unique key column on table {table!r}")


def rewrite_to_psj(ast: QueryAst, schema: Schema) -> list[RewriteVariant]:
    """Rewrite a non-PSJ query into PSJ normal form(s)."""
    shape = ast.shape
    if shape == PSJ:
        raise NormalizeError("query is already PSJ; use to_normal_form")

    if shape == EXISTENCE_LIMIT1:
        space = _Space(schema, ast.tables)
        nf = NormalFormQuery((), space.resolve_pred(ast.where), tuple(t.table for t in ast.tables))
        return [RewriteVariant("full", nf, True, ())]

    if shape == COUNT_AGGREGATE:
        table = ast.tables[0]
        space = _Space(schema, ast.tables)
        key = _key_column(schema, table.table)
        nf = NormalFormQuery((key,), space.resolve_pred(ast.where), (table.table,))
        # The count value itself has no column in the rewrite.
        return [RewriteVariant("full", nf, False, (None,))]

    if shape == INNER_JOIN:
        space = _Space(schema, ast.all_tables())
        projection = tuple(space.select_ordinals(ast.select))
        on = conjoin([space.resolve_pred(eq) for eq in ast.join.on])
        filt = conjoin([on, space.resolve_pred(ast.where)])
        nf = NormalFormQuery(projection, filt, tuple(t.table for t in ast.all_tables()))
        check_nf(nf, schema)
        return [RewriteVariant("full", nf, True, tuple(range(len(projection))))]

    if shape == LEFT_JOIN:
        space = _Space(schema, ast.all_tables())
        left_arity = space.offsets[-1]  # join table is last
        projection = tuple(space.select_ordinals(ast.select))
        on = conjoin([space.resolve_pred(eq) for eq in ast.join.on])
        where = space.resolve_pred(ast.where)
        inner_nf = NormalFormQuery(
            projection, conjoin([on, where]), tuple(t.table for t in ast.all_tables())
        )
        check_nf(inner_nf, schema)
        identity = tuple(range(len(projection)))
        folded = fold_nulls(where, lambda t: isinstance(t, Col) and t.index >= left_arity)
        if folded is False:
            # WHERE rejects unmatched rows, so the join is equivalent to an inner join.
            return [RewriteVariant("full", inner_nf, True, identity)]
        left_filter: Predicate = TRUE if folded is True else folded
        kept: list[int] = []
        result_map: list[int | None] = []
        for o in projection:
            if o < left_arity:
                result_map.append(len(kept))
                kept.append(o)
            else:
                result_map.append(None)
        left_nf = NormalFormQuery(tuple(kept), left_filter, tuple(t.table for t in ast.tables))
        check_nf(left_nf, schema)
        return [
            RewriteVariant("inner", inner_nf, False, identity),
            RewriteVariant("left_only", left_nf, False, tuple(result_map)),
        ]

    raise NormalizeError(f"unsupported query shape {shape!r}")


def normalize_query(ast: QueryAst, schema: Schema) -> list[RewriteVariant]:
    """PSJ passthrough plus the rewrites; what policy generation consumes."""
    if ast.shape == PSJ:
        nf = to_normal_form(ast, schema)
        return [RewriteVariant("full", nf, True, tuple(range(len(nf.projection))))]
    return rewrite_to_psj(ast, schema)


def _result_cols(schema: Schema, space: _Space, ordinals: tuple[int, ...], force_nullable_from: int | None = None) -> tuple[ResultCol, ...]:
    cols = []
    for o in ordinals:
        ref, ci = space.column_at(o)
        col = schema.table(ref.table).columns[ci]
        nullable = col.nullable or (force_nullable_from is not None and o >= force_nullable_from)
        cols.append(ResultCol(col.name, col.type, nullable))
    return tuple(cols)


def to_executable(ast: QueryAst, schema: Schema) -> ExecutableQuery:
    """Precise, execution-facing form of a parsed query."""
    shape = ast.shape
    if shape in (PSJ, INNER_JOIN, EXISTENCE_LIMIT1):
        variant = normalize_query(ast, schema)[0]
        space = _Space(schema, ast.all_tables())
        return PlainQuery(variant.nf, _result_cols(schema, space, variant.nf.projection))
    if shape == COUNT_AGGREGATE:
        table = ast.tables[0]
        space = _Space(schema, ast.tables)
        return CountQuery(table.table, space.resolve_pred(ast.where), (ResultCol("count", "int", False),))
    if shape == LEFT_JOIN:
        space = _Space(schema, ast.all_tables())
        left_arity = space.offsets[-1]
        projection = tuple(space.select_ordinals(ast.select))
        on = conjoin([space.resolve_pred(eq) for eq in ast.join.on])
        where = space.resolve_pred(ast.where)
        result = _result_cols(schema, space, projection, force_nullable_from=left_arity)
        return LeftJoinQuery(
            tuple(t.table for t in ast.tables),
            ast.join.table.table,
            on,
            where,
            projection,
            result,
        )
    raise NormalizeError(f"unsupported query shape {shape!r}")
