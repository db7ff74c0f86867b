"""Relational normal form, and the one lowering of parsed SQL into it.

A `NormalFormQuery` is a projection over a filtered cross product of
base tables (unnamed perspective: columns are ordinals into the product).

`to_executable` lowers every parsed query once, with precise semantics,
for the interpreter and the symbolic encoder: names resolve over the
product of the FROM list and the joined table, an inner join's ON joins
its WHERE, and an existence query projects the empty tuple.  It yields
a `PlainQuery`, a `LeftJoinQuery` or a `CountQuery`.

`psj_variants` derives what policy generation reads from that lowering,
as PSJ normal forms:

  * a plain query (PSJ, inner join, existence) -> itself (lossless)
  * COUNT(*)  -> projection of the table's first row key, `Table.keys()`
                 (approximate)
  * LEFT JOIN -> the matching inner part plus the left-only part
                 (approximate; the caller duplicates the conditioned
                 query accordingly), except when the WHERE clause
                 rejects unmatched rows anyway, in which case the inner
                 part alone is lossless.

`to_normal_form` is a query's single lossless variant, the form policy
views, checked queries and `contain` constraints take.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .schema import Column, Schema
from .sqlparser import parse_sql
from .sqlast import CountStar, QueryAst, SelectCol, Star, TableRef, TableStar
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


def _cached_hash(query, fields: tuple) -> int:
    return query.__dict__.get("_hash") or query.__dict__.setdefault("_hash", hash(fields))


@dataclass(frozen=True)
class NormalFormQuery:
    projection: tuple[int, ...]
    filter: Predicate
    sources: tuple[str, ...]

    def arity(self, schema: Schema) -> int:
        return sum(schema.table(t).arity for t in self.sources)

    def __hash__(self) -> int:  # the fields' hash, computed once: paths and memos key on queries
        return _cached_hash(self, (self.projection, self.filter, self.sources))


@dataclass(frozen=True)
class ResultCol:
    name: str
    type: str
    nullable: bool


@dataclass(frozen=True)
class PlainQuery:
    nf: NormalFormQuery
    result: tuple[ResultCol, ...]

    def __hash__(self) -> int:  # as `NormalFormQuery.__hash__`
        return _cached_hash(self, (self.nf, self.result))


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
# Column layout and name resolution


def source_ranges(schema: Schema, sources: tuple[str, ...]) -> list[tuple[int, int]]:
    """Each source's (start, end) ordinal range in the product of `sources`."""
    ranges = []
    off = 0
    for t in sources:
        n = schema.table(t).arity
        ranges.append((off, off + n))
        off += n
    return ranges


def column_of_ordinal(schema: Schema, sources: tuple[str, ...], ordinal: int) -> tuple[str, Column]:
    """Map a product ordinal to its (table, column)."""
    for name, (lo, hi) in zip(sources, source_ranges(schema, sources)):
        if lo <= ordinal < hi:
            return name, schema.table(name).columns[ordinal - lo]
    raise NormalizeError(f"ordinal {ordinal} out of range for sources {sources}")


class _Space:
    """The column space of a FROM list: ordinals into the cross product."""

    def __init__(self, schema: Schema, tables: tuple[TableRef, ...]):
        self.schema = schema
        self.tables = tables
        self.ranges = source_ranges(schema, tuple(t.table for t in tables))

    def resolve(self, ref: NamedCol) -> int:
        if ref.table is not None:
            for t, (lo, _) in zip(self.tables, self.ranges):
                if t.alias == ref.table:
                    return lo + self.schema.table(t.table).column_index(ref.name)
            raise NormalizeError(f"unknown table or alias {ref.table!r}")
        hits = []
        for t, (lo, _) in zip(self.tables, self.ranges):
            for i, c in enumerate(self.schema.table(t.table).columns):
                if c.name == ref.name:
                    hits.append(lo + i)
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

    def select_ordinals(self, items) -> list[int]:
        """The projected ordinals; `1` and `COUNT(*)` project none."""
        out: list[int] = []
        for item in items:
            if isinstance(item, Star):
                out.extend(range(self.ranges[-1][1]))
            elif isinstance(item, TableStar):
                for t, span in zip(self.tables, self.ranges):
                    if t.alias == item.alias:
                        out.extend(range(*span))
                        break
                else:
                    raise NormalizeError(f"unknown table or alias {item.alias!r}")
            elif isinstance(item, SelectCol):
                out.append(self.resolve(NamedCol(item.table, item.name)))
        return out


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
    """The normal form of a policy view or a checked query: `to_normal_form`
    of `sql`, holding no scalar but session parameters.  Raises
    NormalizeError (SourceError if `sql` does not parse)."""
    try:
        nf = to_normal_form(parse_sql(sql), schema)
    except NormalizeError as e:
        raise NormalizeError(f"{sql!r}: {e}") from e
    bad = non_session_scalar(nf)
    if bad is not None:
        raise NormalizeError(f"{sql!r} uses {render_scalar(bad)}, not a session parameter")
    return nf


# ---------------------------------------------------------------------------
# The lowering and the PSJ variants derived from it


def to_executable(ast: QueryAst, schema: Schema) -> ExecutableQuery:
    """Precise, execution-facing form of a parsed query."""
    tables = ast.all_tables()
    space = _Space(schema, tables)
    sources = tuple(t.table for t in tables)
    if ast.select == (CountStar(),):
        return CountQuery(sources[0], space.resolve_pred(ast.where), (ResultCol("count", "int", False),))
    projection = tuple(space.select_ordinals(ast.select))
    on = conjoin([space.resolve_pred(eq) for eq in ast.join.on]) if ast.join else TRUE
    where = space.resolve_pred(ast.where)
    if ast.join is not None and ast.join.kind == "left":
        result = _result_cols(schema, sources, projection, space.ranges[-1][0])
        return LeftJoinQuery(sources[:-1], sources[-1], on, where, projection, result)
    nf = NormalFormQuery(projection, conjoin([on, where]), sources)
    return PlainQuery(nf, _result_cols(schema, sources, projection, space.ranges[-1][1]))


def _result_cols(
    schema: Schema, sources: tuple[str, ...], ordinals: tuple[int, ...], nullable_from: int
) -> tuple[ResultCol, ...]:
    """The result columns; those at `nullable_from` and after (a LEFT JOIN's
    right side) may be NULL whatever the schema says."""
    columns = [c for t in sources for c in schema.table(t).columns]
    return tuple(
        ResultCol(columns[o].name, columns[o].type, columns[o].nullable or o >= nullable_from) for o in ordinals
    )


def to_normal_form(ast: QueryAst, schema: Schema) -> NormalFormQuery:
    """The query's single lossless PSJ variant: a plain, inner-join or
    existence query, or a LEFT JOIN whose WHERE rejects unmatched rows.
    COUNT(*) and a LEFT JOIN that splits raise NormalizeError."""
    variants = normalize_query(ast, schema)
    if len(variants) != 1 or not variants[0].lossless:
        raise NormalizeError("not a PSJ (or existence) query")
    return variants[0].nf


def psj_variants(exe: ExecutableQuery, schema: Schema) -> list[RewriteVariant]:
    """The PSJ normal forms of an executable query; what policy generation
    consumes."""
    if isinstance(exe, PlainQuery):
        return [RewriteVariant("full", exe.nf, True, tuple(range(len(exe.nf.projection))))]
    if isinstance(exe, CountQuery):
        keys = schema.table(exe.source).keys()
        if not keys:
            raise NormalizeError(
                f"COUNT(*) rewrite needs a non-nullable unique key column on table {exe.source!r}"
            )
        nf = NormalFormQuery(keys[0], exe.filter, (exe.source,))
        # The count value itself has no column in the rewrite.
        return [RewriteVariant("full", nf, False, (None,))]
    left_arity = sum(schema.table(t).arity for t in exe.left_sources)
    inner_nf = NormalFormQuery(
        exe.projection, conjoin([exe.on, exe.where]), exe.left_sources + (exe.right_source,)
    )
    identity = tuple(range(len(exe.projection)))
    folded = fold_nulls(exe.where, lambda t: isinstance(t, Col) and t.index >= left_arity)
    if folded is False:
        # WHERE rejects unmatched rows, so the join is equivalent to an inner join.
        return [RewriteVariant("full", inner_nf, True, identity)]
    left_filter: Predicate = TRUE if folded is True else folded
    kept: list[int] = []
    result_map: list[int | None] = []
    for o in exe.projection:
        if o < left_arity:
            result_map.append(len(kept))
            kept.append(o)
        else:
            result_map.append(None)
    left_nf = NormalFormQuery(tuple(kept), left_filter, exe.left_sources)
    return [
        RewriteVariant("inner", inner_nf, False, identity),
        RewriteVariant("left_only", left_nf, False, tuple(result_map)),
    ]


def normalize_query(ast: QueryAst, schema: Schema) -> list[RewriteVariant]:
    """The PSJ variants of a parsed query."""
    return psj_variants(to_executable(ast, schema), schema)
