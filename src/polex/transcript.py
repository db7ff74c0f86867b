"""Transcript records and their JSON-lines serialization.

A transcript is the ordered record of one concrete execution: one Query
record per issued query (with its parameters in symbolic form and the
observed emptiness) and one Branch record per symbolic condition tested.
On disk: line 1 is run metadata, then one line per record, e.g.

    {"t": "Q", "i": 1, "sql": "SELECT ...", "params": [...], "empty": false}
    {"t": "B", "cond": {...}, "out": true}

A transcript that `interpreter.execute` returns also holds the input it
ran on, outside its equality and its JSON lines; the simplifier answers
its sat questions with these inputs where one takes the path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Union

from .instance import ConcreteInput
from .terms import (
    And,
    BoolCol,
    BoolLit,
    Cmp,
    IntLit,
    IsNull,
    Not,
    NullLit,
    Predicate,
    RequestParam,
    RowCol,
    Scalar,
    SessionParam,
    TruePred,
    render_scalar,
)


@dataclass(frozen=True)
class QueryRecord:
    index: int  # 1-based, sequential within a transcript
    sql: str
    params: tuple[Scalar, ...]
    is_empty: bool
    line: int | None = field(default=None, compare=False)


@dataclass(frozen=True)
class BranchRecord:
    cond: Predicate  # over scalars only
    outcome: bool
    line: int | None = field(default=None, compare=False)


TranscriptRecord = Union[QueryRecord, BranchRecord]


@dataclass(frozen=True)
class Transcript:
    handler: str
    input_id: str
    records: tuple[TranscriptRecord, ...]
    outcome: str  # "rendered" | "abort:<code>" | "end"
    input: ConcreteInput | None = field(default=None, compare=False, repr=False)  # the run's input, if known


# ---------------------------------------------------------------------------
# Scalar / predicate JSON


def scalar_to_json(s: Scalar) -> dict:
    if isinstance(s, IntLit):
        return {"k": "int", "v": s.value}
    if isinstance(s, BoolLit):
        return {"k": "bool", "v": s.value}
    if isinstance(s, NullLit):
        return {"k": "null"}
    if isinstance(s, SessionParam):
        return {"k": "sess", "n": s.name}
    if isinstance(s, RequestParam):
        return {"k": "req", "n": s.name}
    if isinstance(s, RowCol):
        return {"k": "col", "q": s.query_index, "c": s.column_index}
    raise TypeError(f"cannot serialize scalar {s!r}")


def scalar_from_json(d: dict) -> Scalar:
    k = d["k"]
    if k == "int":
        return IntLit(d["v"])
    if k == "bool":
        return BoolLit(d["v"])
    if k == "null":
        return NullLit()
    if k == "sess":
        return SessionParam(d["n"])
    if k == "req":
        return RequestParam(d["n"])
    if k == "col":
        return RowCol(d["q"], d["c"])
    raise ValueError(f"bad scalar json {d!r}")


def pred_to_json(p: Predicate) -> dict:
    if isinstance(p, Cmp):
        return {"op": "cmp", "cmp": p.op, "l": scalar_to_json(p.left), "r": scalar_to_json(p.right)}
    if isinstance(p, IsNull):
        return {"op": "isnull", "t": scalar_to_json(p.term)}
    if isinstance(p, BoolCol):
        return {"op": "truthy", "t": scalar_to_json(p.term)}
    if isinstance(p, Not):
        return {"op": "not", "p": pred_to_json(p.inner)}
    if isinstance(p, And):
        return {"op": "and", "l": pred_to_json(p.left), "r": pred_to_json(p.right)}
    if isinstance(p, TruePred):
        return {"op": "true"}
    raise TypeError(f"cannot serialize predicate {p!r}")


def pred_from_json(d: dict) -> Predicate:
    op = d["op"]
    if op == "cmp":
        return Cmp(d["cmp"], scalar_from_json(d["l"]), scalar_from_json(d["r"]))
    if op == "isnull":
        return IsNull(scalar_from_json(d["t"]))
    if op == "truthy":
        return BoolCol(scalar_from_json(d["t"]))
    if op == "not":
        return Not(pred_from_json(d["p"]))
    if op == "and":
        return And(pred_from_json(d["l"]), pred_from_json(d["r"]))
    if op == "true":
        return TruePred()
    raise ValueError(f"bad predicate json {d!r}")


def render_pred(p: Predicate) -> str:
    if isinstance(p, Cmp):
        return f"{render_scalar(p.left)} {p.op} {render_scalar(p.right)}"
    if isinstance(p, IsNull):
        return f"is_null({render_scalar(p.term)})"
    if isinstance(p, BoolCol):
        return render_scalar(p.term)
    if isinstance(p, Not):
        return f"!({render_pred(p.inner)})"
    if isinstance(p, And):
        return f"{render_pred(p.left)} AND {render_pred(p.right)}"
    if isinstance(p, TruePred):
        return "true"
    raise TypeError(f"cannot render predicate {p!r}")


# ---------------------------------------------------------------------------
# Record / transcript JSON lines


def record_to_json(r: TranscriptRecord) -> dict:
    if isinstance(r, QueryRecord):
        return {
            "t": "Q",
            "i": r.index,
            "sql": r.sql,
            "params": [scalar_to_json(s) for s in r.params],
            "empty": r.is_empty,
        }
    return {"t": "B", "cond": pred_to_json(r.cond), "out": r.outcome}


def record_from_json(d: dict) -> TranscriptRecord:
    if d["t"] == "Q":
        return QueryRecord(d["i"], d["sql"], tuple(scalar_from_json(s) for s in d["params"]), d["empty"])
    if d["t"] == "B":
        return BranchRecord(pred_from_json(d["cond"]), d["out"])
    raise ValueError(f"bad record json {d!r}")


def record_line(r: TranscriptRecord) -> str:
    return json.dumps(record_to_json(r), separators=(", ", ": "), sort_keys=False)


def render_record(r: TranscriptRecord) -> str:
    if isinstance(r, QueryRecord):
        params = ", ".join(render_scalar(s) for s in r.params)
        return f"Query_{r.index}({r.sql!r}, <{params}>, isEmpty={str(r.is_empty).lower()})"
    return f"Branch({render_pred(r.cond)}, outcome={str(r.outcome).lower()})"


def transcript_to_jsonl(t: Transcript, meta: dict) -> str:
    head = {"handler": t.handler, "inputId": t.input_id, "outcome": t.outcome}
    head.update(meta)
    lines = [json.dumps(head, separators=(", ", ": "), sort_keys=False)]
    lines.extend(record_line(r) for r in t.records)
    return "\n".join(lines) + "\n"


def transcript_from_jsonl(text: str) -> tuple[dict, Transcript]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    meta = json.loads(lines[0])
    records = tuple(record_from_json(json.loads(ln)) for ln in lines[1:])
    return meta, Transcript(meta["handler"], meta["inputId"], records, meta.get("outcome", "end"))
