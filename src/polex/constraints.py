"""Database constraints: uniqueness and query containment.

Two general forms cover everything: a column set is unique, or one
query's result is contained in another's (or in a literal-row relation,
allowed only on the right side).  Shorthands for the common cases
(non-null, foreign key, domain, fixed value) expand into these forms.

Config file format, one constraint per line, `#` comments::

    unique roles(user_id, course_id)
    fk grades.course_id -> courses.id
    nonnull roles.user_id
    domain profiles.language in {'en', 'fr'}
    fixed items.kind = 3
    contain SELECT a FROM t in SELECT b FROM u
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .evaluate import eval_nf
from .instance import ConcreteInput
from .lexutil import SourceError, TokenStream, tokenize, unquote
from .normal import NormalFormQuery, column_of_ordinal, to_normal_form
from .schema import Interner, Schema, SchemaError, hash_once
from .sqlparser import parse_sql
from .terms import (
    Col,
    IntLit,
    IsNull,
    Not,
    PlaceholderRef,
    RequestParam,
    SessionParam,
    TRUE,
    iter_terms,
)


class ConstraintError(Exception):
    pass


class RangeError(ValueError):
    """A constant that no symbol of its column can take."""


@dataclass(frozen=True)
class LiteralRelation:
    arity: int
    rows: tuple[tuple, ...]


@hash_once
@dataclass(frozen=True)
class Unique:
    table: str
    columns: tuple[str, ...]


@hash_once
@dataclass(frozen=True)
class Containment:
    left: NormalFormQuery
    right: Union[NormalFormQuery, LiteralRelation]
    label: str


Constraint = Union[Unique, Containment]


@dataclass(frozen=True)
class NonNull:
    table: str
    column: str


@dataclass(frozen=True)
class ForeignKey:
    table: str
    column: str
    ref_table: str
    ref_column: str


@dataclass(frozen=True)
class DomainConstraint:
    table: str
    column: str
    values: tuple[int, ...]


@dataclass(frozen=True)
class FixedValue:
    table: str
    column: str
    value: int


ConstraintShorthand = Union[NonNull, ForeignKey, DomainConstraint, FixedValue]


def _check_query_side(nf: NormalFormQuery) -> None:
    for t in iter_terms(nf.filter):
        if isinstance(t, (SessionParam, RequestParam, PlaceholderRef)):
            raise ConstraintError(f"constraint query may not reference {t!r}")


def make_containment(left: NormalFormQuery, right, label: str) -> Containment:
    _check_query_side(left)
    right_arity = right.arity if isinstance(right, LiteralRelation) else len(right.projection)
    if not isinstance(right, LiteralRelation):
        _check_query_side(right)
    if len(left.projection) != right_arity:
        raise ConstraintError(f"containment sides have different arity in {label!r}")
    return Containment(left, right, label)


# ---------------------------------------------------------------------------
# Shorthand expansion


def expand_shorthand(s: ConstraintShorthand, schema: Schema) -> list[Constraint]:
    try:
        if isinstance(s, NonNull):
            col = schema.table(s.table).column(s.column)
            if not col.nullable:
                return []  # already guaranteed by the schema
            ci = schema.table(s.table).column_index(s.column)
            left = NormalFormQuery((), IsNull(Col(ci)), (s.table,))
            return [make_containment(left, LiteralRelation(0, ()), render_constraint(s))]
        if isinstance(s, ForeignKey):
            t = schema.table(s.table)
            ci = t.column_index(s.column)
            rt = schema.table(s.ref_table)
            rci = rt.column_index(s.ref_column)
            left = NormalFormQuery((ci,), Not(IsNull(Col(ci))), (s.table,))
            right = NormalFormQuery((rci,), TRUE, (s.ref_table,))
            return [make_containment(left, right, render_constraint(s))]
        if isinstance(s, (DomainConstraint, FixedValue)):  # a fixed value is a one-value domain, labelled as written
            values = s.values if isinstance(s, DomainConstraint) else (s.value,)
            ci = schema.table(s.table).column_index(s.column)
            left = NormalFormQuery((ci,), TRUE, (s.table,))
            rows = tuple((v,) for v in values)
            return [make_containment(left, LiteralRelation(1, rows), render_constraint(s))]
    except SchemaError as e:
        raise ConstraintError(str(e)) from e
    raise ConstraintError(f"not a shorthand: {s!r}")


def expand_all(items: list, schema: Schema) -> list[Constraint]:
    out: list[Constraint] = []
    for item in items:
        if isinstance(item, (Unique, Containment)):
            if isinstance(item, Unique):
                t = schema.table(item.table)
                for c in item.columns:
                    t.column(c)
            out.append(item)
        else:
            out.extend(expand_shorthand(item, schema))
    return out


# ---------------------------------------------------------------------------
# Auto-generation from the schema


def generate_constraints(schema: Schema) -> list:
    """Uniques, foreign keys, and non-nulls implied by schema declarations."""
    out: list = []
    for t in schema.tables:
        for c in t.columns:
            if c.unique:
                out.append(Unique(t.name, (c.name,)))
        for group in t.composite_uniques:
            out.append(Unique(t.name, group))
    for t in schema.tables:
        for c in t.columns:
            if c.foreign_key is not None:
                out.append(ForeignKey(t.name, c.name, c.foreign_key[0], c.foreign_key[1]))
    for t in schema.tables:
        for c in t.columns:
            if not c.nullable:
                out.append(NonNull(t.name, c.name))
    return out


# ---------------------------------------------------------------------------
# Serialization


def render_constraint(item) -> str:
    if isinstance(item, Unique):
        return f"unique {item.table}({', '.join(item.columns)})"
    if isinstance(item, NonNull):
        return f"nonnull {item.table}.{item.column}"
    if isinstance(item, ForeignKey):
        return f"fk {item.table}.{item.column} -> {item.ref_table}.{item.ref_column}"
    if isinstance(item, DomainConstraint):
        return f"domain {item.table}.{item.column} in {{{', '.join(str(v) for v in item.values)}}}"
    if isinstance(item, FixedValue):
        return f"fixed {item.table}.{item.column} = {item.value}"
    if isinstance(item, Containment):
        return item.label
    raise ConstraintError(f"cannot render {item!r}")


def render_constraint_file(items: list) -> str:
    lines = ["# database constraints (editable)"]
    lines.extend(render_constraint(i) for i in items)
    return "\n".join(lines) + "\n"


def _parse_value(ts: TokenStream, interner: Interner) -> int:
    tok = ts.peek()
    if tok.kind == "int":
        ts.next()
        return int(tok.text)
    if tok.kind == "string":
        ts.next()
        return interner.intern(unquote(tok.text))
    if ts.accept_keyword("TRUE"):
        return 1
    if ts.accept_keyword("FALSE"):
        return 0
    raise SourceError(f"expected a value, got {tok.text!r}", tok.line, tok.col)


def _parse_col(ts: TokenStream) -> tuple[str, str]:
    table = ts.expect_ident("table").text
    ts.expect_punct(".")
    column = ts.expect_ident("column").text
    return table, column


def parse_constraint_line(line: str, schema: Schema, interner: Interner):
    """Parse one config line into a Constraint or ConstraintShorthand."""
    tokens = tokenize(line)
    ts = TokenStream(tokens)
    head = ts.expect_ident("constraint kind").text.lower()
    if head == "unique":
        table = ts.expect_ident("table").text
        ts.expect_punct("(")
        cols = [ts.expect_ident("column").text]
        while ts.accept_punct(","):
            cols.append(ts.expect_ident("column").text)
        ts.expect_punct(")")
        ts.expect_eof()
        return Unique(table, tuple(cols))
    if head == "fk":
        table, column = _parse_col(ts)
        ts.expect_punct("->")
        ref_table, ref_column = _parse_col(ts)
        ts.expect_eof()
        return ForeignKey(table, column, ref_table, ref_column)
    if head == "nonnull":
        table, column = _parse_col(ts)
        ts.expect_eof()
        return NonNull(table, column)
    if head == "domain":
        table, column = _parse_col(ts)
        ts.expect_keyword("IN")
        ts.expect_punct("{")
        values = [_parse_value(ts, interner)]
        while ts.accept_punct(","):
            values.append(_parse_value(ts, interner))
        ts.expect_punct("}")
        ts.expect_eof()
        return DomainConstraint(table, column, tuple(values))
    if head == "fixed":
        table, column = _parse_col(ts)
        ts.expect_punct("=")
        value = _parse_value(ts, interner)
        ts.expect_eof()
        return FixedValue(table, column, value)
    if head == "contain":
        hits = [i for i, word in enumerate(ts.words) if word == "IN"]
        if len(hits) != 1:
            raise ConstraintError("contain constraint needs exactly one top-level 'in'")
        # Positions are 1-based columns on a single line.
        at = tokens[hits[0]].col - 1
        left_sql = line[tokens[0].col - 1 + len(head):at].strip()
        right_sql = line[at + 2:].strip()
        left = to_normal_form(parse_sql(left_sql), schema)
        right = to_normal_form(parse_sql(right_sql), schema)
        return make_containment(left, right, f"contain {left_sql} in {right_sql}")
    raise ConstraintError(f"unknown constraint kind {head!r}")


def parse_constraint_file(text: str, schema: Schema, interner: Interner) -> list:
    """One item per line; the tokenizer skips `#` and `--` comments outside
    quoted values, and a line of only a comment or blanks holds no item
    (a comment runs to the end of its line, so such a line is not lexed)."""
    return [parse_constraint_line(line, schema, interner)
            for line in text.splitlines() if (rest := line.lstrip()) and not rest.startswith(("#", "--"))]


# ---------------------------------------------------------------------------
# Value domains


def column_domain(value_range: tuple[int, int], col_type: str) -> tuple[int, int]:
    if col_type == "bool":
        return (0, 1)
    return value_range


def check_range(schema: Schema, constraints: list[Constraint], value_range: tuple[int, int], program=None) -> None:
    """Raise RangeError for a literal of `program` outside `value_range`, or
    a constraint constant outside its column's domain (the range for the
    constants of a `contain` filter): a row never takes such a value, so
    the paths that need one would drop silently."""
    found = [(v, value_range, f"handler {program.name}") for v in sorted(program.literals)] if program else []
    for c in constraints:
        if isinstance(c, Containment):
            where = f"constraint {c.label!r}"
            found += [(t.value, value_range, where) for nf in (c.left, c.right) if isinstance(nf, NormalFormQuery)
                      for t in iter_terms(nf.filter) if isinstance(t, IntLit)]
            found += [(v, column_domain(value_range, column_of_ordinal(schema, c.left.sources, j)[1].type), where)
                      for row in getattr(c.right, "rows", ()) for v, j in zip(row, c.left.projection) if v is not None]
    for v, (lo, hi), where in found:
        if not lo <= v <= hi:
            raise RangeError(f"value {v} in {where} lies outside the value range {lo}:{hi}")


# ---------------------------------------------------------------------------
# Validation of concrete instances


def _unique_violated(input: ConcreteInput, schema: Schema, u: Unique) -> bool:
    t = schema.table(u.table)
    idxs = [t.column_index(c) for c in u.columns]
    rows = input.tables[u.table]
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            key_i = [rows[i][k] for k in idxs]
            key_j = [rows[j][k] for k in idxs]
            if any(v is None for v in key_i + key_j):
                continue  # null keys never collide, as in SQL
            if key_i == key_j:
                return True
    return False


def validate_instance(
    input: ConcreteInput, constraints: list[Constraint], schema: Schema
) -> tuple[bool, str | None]:
    """Brute-force check; returns (satisfied, first violation description)."""
    for c in constraints:
        if isinstance(c, Unique):
            if _unique_violated(input, schema, c):
                return False, f"unique violated: {render_constraint(c)}"
        elif isinstance(c, Containment):
            left = eval_nf(c.left, input, schema)
            if isinstance(c.right, LiteralRelation):
                right = frozenset(c.right.rows)
            else:
                right = eval_nf(c.right, input, schema)
            if not left <= right:
                return False, f"containment violated: {c.label}"
        else:
            raise ConstraintError(f"unexpanded constraint {c!r}")
    return True, None
