"""Concrete handler inputs: database rows plus parameter values.

Rows are tuples of ints with None for NULL, in schema column order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .schema import Schema

Row = tuple  # tuple[int | None, ...]


@dataclass(frozen=True)
class ConcreteInput:
    input_id: str
    handler: str
    tables: dict[str, tuple[Row, ...]]
    session: dict[str, int]
    request: dict[str, int]

    def to_json(self, schema: Schema) -> dict:
        tables = {}
        for name in sorted(self.tables):
            cols = [c.name for c in schema.table(name).columns]
            tables[name] = [dict(zip(cols, row)) for row in self.tables[name]]
        return {
            "inputId": self.input_id,
            "handler": self.handler,
            "session": dict(sorted(self.session.items())),
            "request": dict(sorted(self.request.items())),
            "tables": tables,
        }

    @classmethod
    def from_json(cls, data: dict, schema: Schema) -> "ConcreteInput":
        tables = {}
        for name, rows in data["tables"].items():
            cols = [c.name for c in schema.table(name).columns]
            tables[name] = tuple(tuple(r[c] for c in cols) for r in rows)
        return cls(
            input_id=data["inputId"],
            handler=data["handler"],
            tables=tables,
            session={k: int(v) for k, v in data["session"].items()},
            request={k: int(v) for k, v in data["request"].items()},
        )

    def save(self, path: str | Path, schema: Schema) -> None:
        Path(path).write_text(
            json.dumps(self.to_json(schema), indent=1, sort_keys=False) + "\n", encoding="utf-8"
        )

    @classmethod
    def load(cls, path: str | Path, schema: Schema) -> "ConcreteInput":
        return cls.from_json(json.loads(Path(path).read_text(encoding="utf-8")), schema)
