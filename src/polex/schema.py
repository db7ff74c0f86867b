"""Database schema: tables, typed columns, and the string interner.

All database values are modeled as integers; strings and timestamps are
interned/encoded to ints at ingestion.  The interning table is persisted
with a run so replays are stable.

Schema file format, one table per block::

    table roles {
      user_id int
      course_id int
      is_instructor bool
      unique (user_id, course_id)
    }

Column attributes after the type: `nullable`, `unique`, `fk table.col`.
`#` starts a comment.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .lexutil import SourceError, TokenStream, tokenize

COLUMN_TYPES = ("int", "bool", "timestamp", "string")


class SchemaError(Exception):
    pass


def hash_once(cls):
    """Keep a frozen dataclass's hash after its first use: its fields never
    change, and a solver context is looked up by its schema and constraints."""
    fields_hash = cls.__hash__
    cls.__hash__ = lambda self: self.__dict__.get("_hash") or self.__dict__.setdefault("_hash", fields_hash(self))
    return cls


@dataclass(frozen=True)
class Column:
    name: str
    type: str
    nullable: bool = False
    unique: bool = False
    foreign_key: tuple[str, str] | None = None  # (table, column)


@dataclass(frozen=True)
class Table:
    name: str
    columns: tuple[Column, ...]
    composite_uniques: tuple[tuple[str, ...], ...] = ()

    def column(self, name: str) -> Column:
        for c in self.columns:
            if c.name == name:
                return c
        raise SchemaError(f"no column {name!r} in table {self.name!r}")

    def column_index(self, name: str) -> int:
        for i, c in enumerate(self.columns):
            if c.name == name:
                return i
        raise SchemaError(f"no column {name!r} in table {self.name!r}")

    @property
    def arity(self) -> int:
        return len(self.columns)

    def keys(self) -> tuple[tuple[int, ...], ...]:
        """The column-index tuples that identify a row: each `unique` column,
        then each composite unique, leaving out those with a nullable
        column (rows whose key is NULL do not collide)."""
        groups = [(i,) for i, c in enumerate(self.columns) if c.unique]
        groups += [tuple(self.column_index(c) for c in g) for g in self.composite_uniques]
        return tuple(g for g in groups if not any(self.columns[i].nullable for i in g))


@hash_once
@dataclass(frozen=True)
class Schema:
    tables: tuple[Table, ...]

    def table(self, name: str) -> Table:
        for t in self.tables:
            if t.name == name:
                return t
        raise SchemaError(f"no table {name!r} in schema")

    def validate(self) -> None:
        names = [t.name for t in self.tables]
        if len(set(names)) != len(names):
            raise SchemaError("duplicate table name")
        for t in self.tables:
            cols = [c.name for c in t.columns]
            if len(set(cols)) != len(cols):
                raise SchemaError(f"duplicate column name in table {t.name!r}")
            for group in t.composite_uniques:
                for c in group:
                    t.column(c)
            for c in t.columns:
                if c.type not in COLUMN_TYPES:
                    raise SchemaError(f"bad column type {c.type!r} for {t.name}.{c.name}")
                if c.foreign_key is not None:
                    ref_table, ref_col = c.foreign_key
                    target = self.table(ref_table).column(ref_col)
                    if not target.unique:
                        raise SchemaError(
                            f"foreign key {t.name}.{c.name} targets non-unique {ref_table}.{ref_col}"
                        )


def parse_schema(text: str) -> Schema:
    ts = TokenStream(tokenize(text))
    tables: list[Table] = []
    while ts.peek().kind != "eof":
        ts.expect_keyword("TABLE")
        name = ts.expect_ident("table name").text
        ts.expect_punct("{")
        columns: list[Column] = []
        uniques: list[tuple[str, ...]] = []
        while not ts.accept_punct("}"):
            if ts.at_keyword("UNIQUE") and ts.peek(1).text == "(":
                ts.next()
                ts.expect_punct("(")
                group = [ts.expect_ident("column").text]
                while ts.accept_punct(","):
                    group.append(ts.expect_ident("column").text)
                ts.expect_punct(")")
                uniques.append(tuple(group))
                continue
            col_name = ts.expect_ident("column name").text
            type_tok = ts.expect_ident("column type")
            col_type = type_tok.text.lower()
            if col_type not in COLUMN_TYPES:
                raise SourceError(f"bad column type {type_tok.text!r}", type_tok.line, type_tok.col)
            nullable = unique = False
            fk = None
            while True:
                if ts.at_keyword("NULLABLE"):
                    ts.next()
                    nullable = True
                elif ts.at_keyword("UNIQUE") and ts.peek(1).text != "(":
                    ts.next()
                    unique = True
                elif ts.at_keyword("FK"):
                    ts.next()
                    ref_table = ts.expect_ident("referenced table").text
                    ts.expect_punct(".")
                    ref_col = ts.expect_ident("referenced column").text
                    fk = (ref_table, ref_col)
                else:
                    break
            columns.append(Column(col_name, col_type, nullable, unique, fk))
        tables.append(Table(name, tuple(columns), tuple(uniques)))
    schema = Schema(tuple(tables))
    try:
        schema.validate()
    except SchemaError as e:
        raise SchemaError(f"invalid schema: {e}") from e
    return schema


def load_schema(path: str | Path) -> Schema:
    return parse_schema(Path(path).read_text(encoding="utf-8"))


@dataclass
class Interner:
    """Stable string-to-int mapping, persisted per run.

    Ids are assigned in first-use order, so re-parsing the same inputs in
    the same order reproduces the same table.
    """

    mapping: dict[str, int] = field(default_factory=dict)

    def intern(self, value: str) -> int:
        if value not in self.mapping:
            self.mapping[value] = len(self.mapping)
        return self.mapping[value]

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.mapping, indent=1, sort_keys=False) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "Interner":
        p = Path(path)
        if not p.exists():
            return cls()
        return cls(dict(json.loads(p.read_text(encoding="utf-8"))))
