"""Witness-closure row bounds (`solver.row_bounds`) never change a verdict.

`solver.Question.ask` answers a question's full-bound rung as unsat without
a search, or searches it with rows above r_T assumed absent, when the
question carries row bounds.  Every such unsat answer must also be the
answer of one fresh, uncapped search at the full bound
(`full_bound.ask`).  The runs below cover generated `synth-front` corpora
and random explore prefixes and entailment questions over random small
schemas, at bounds 2 and 3.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from polex import solver
from polex.constraints import Containment, expand_all, generate_constraints, parse_constraint_file
from polex.dsl import parse_handler, parse_handlers
from polex.explorer import INFEASIBLE, ExplorationConfig, Explorer, explore
from polex.normal import NormalFormQuery, PlainQuery
from polex.policygen import CondBranch, CondQuery, Simplifier, simplify, to_conditioned_queries
from polex.schema import Interner, parse_schema
from polex.terms import BoolCol, RequestParam, RowCol
from polex.transcript import BranchRecord, QueryRecord

import full_bound

ROOT = Path(__file__).resolve().parent.parent


def _checked(monkeypatch) -> dict:
    """Route `Question.ask` through a check that each unsat answer whose
    full-bound rung the row bounds skipped or capped is unsat on a fresh
    uncapped search too; returns counts of the questions checked."""
    ask = solver.Question.ask
    seen = {"skipped": 0, "capped": 0}

    def checked(self, encode, rows=None):
        status, inputs = ask(self, encode, rows)
        if status == "unsat" and rows is not None and self.bound > 1 and min(rows.values()) < self.bound:
            seen["skipped" if max(rows.values()) <= 1 else "capped"] += 1
            assert full_bound.ask(self, encode)[0] == "unsat", rows
        return status, inputs

    monkeypatch.setattr(solver.Question, "ask", checked)
    return seen


def _load(schema_text: str, extra: str = ""):
    s = parse_schema(schema_text)
    items = generate_constraints(s) + parse_constraint_file(extra, s, Interner())
    return s, expand_all(items, s)


# ---------------------------------------------------------------------------
# Generated corpora: explore and policy-gen end to end


@pytest.mark.parametrize("seed", random.Random(12).sample(range(4, 1000), 2))
@pytest.mark.parametrize("bound", [2, 3])
def test_capped_synth_front_answers_match_the_full_bound(seed, bound, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import synth

    schema_text, handlers, _ = synth.generate(seed)
    s, cons = _load(schema_text)
    seen = _checked(monkeypatch)
    config = ExplorationConfig(table_bound=bound, solver_timeout=None)
    for name in sorted(handlers)[::3]:
        for program in parse_handlers(handlers[name]):
            result = explore(program, s, cons, config)
            cqs = to_conditioned_queries(result.transcripts, s)
            simplify(cqs, s, cons, dict(program.request_params), table_bound=bound, timeout_s=None)
    assert seen["skipped"] > 0 and seen["capped"] > 0


# ---------------------------------------------------------------------------
# Random schemas: random explore prefixes and entailment questions


def random_fk_schema(rng: random.Random):
    """Two or three tables, each with a unique `id`, an int `v` (maybe
    unique, maybe nullable) and a bool `f`; past the first, a `ref` column
    with a foreign key to an earlier table's `id`, or a `contain` line into
    its `v`, maybe filtered on `f`.  Returns (schema, constraints)."""
    lines, extra = [], []
    for i in range(rng.choice([2, 2, 3])):
        v = "v int" + rng.choice(["", "", " unique", " nullable"])
        cols = ["id int unique", v, "f bool"]
        if i:
            target = f"t{rng.randrange(i)}"
            if rng.random() < 0.6:
                cols.append(f"ref int{rng.choice(['', ' nullable'])} fk {target}.id")
            else:
                cols.append("ref int")
                extra.append(f"contain SELECT ref FROM t{i} in SELECT v FROM {target}{rng.choice(['', ' WHERE f'])}")
        lines.append(f"table t{i} {{ {'  '.join(cols)} }}")
    return _load("\n".join(lines), "\n".join(extra))


def random_prefix(rng: random.Random, schema, constraints) -> list:
    """Query and branch records as explore asserts them: each query reads
    the request parameter or a column of an earlier non-empty query, and
    some fetch the row an earlier row's `ref` points to."""
    links = {c.left.sources[0]: c for c in constraints
             if isinstance(c, Containment) and isinstance(c.right, NormalFormQuery)}
    records, rows = [], []  # rows: (index, table) of each non-empty query
    for index in range(1, rng.randint(2, 5)):
        if rows and rng.random() < 0.2:  # a branch on an earlier row's flag
            j, u = rng.choice(rows)
            records.append(BranchRecord(BoolCol(RowCol(j, schema.table(u).column_index("f"))), rng.random() < 0.5))
        followed = [(j, links[u]) for j, u in rows if u in links]
        fk = None
        if followed and rng.random() < 0.4:
            j, c = rng.choice(followed)
            t = schema.table(c.right.sources[0])
            atoms = [f"{t.columns[c.right.projection[0]].name} = ?"]
            param = RowCol(j, c.left.projection[0])
        else:
            t = rng.choice(schema.tables)
            fk = t.column("ref").foreign_key if "ref" in [c.name for c in t.columns] else None
            fk = fk if rng.random() < 0.25 else None  # a join through the foreign key
            own = f"{t.name}." if fk else ""
            atoms = [f"{own}{rng.choice(t.columns).name} = ?"]
            if rows and rng.random() < 0.7:
                j, u = rng.choice(rows)
                param = RowCol(j, rng.randrange(schema.table(u).arity))
            else:
                param = RequestParam("P")
        if rng.random() < 0.3:
            own = f"{t.name}." if fk else ""
            atoms.append(rng.choice([f"{own}f", f"NOT {own}f", f"{own}v = 1"]))
        sources = t.name
        if fk:
            atoms.append(f"{t.name}.ref = {fk[0]}.{fk[1]}")
            sources += f", {fk[0]}"
        empty = rng.random() < 0.35
        records.append(QueryRecord(index, f"SELECT * FROM {sources} WHERE {' AND '.join(atoms)}", (param,), empty))
        if not empty:
            rows.append((index, t.name))
    return records


PROGRAM = parse_handler("handler h(P: int) {\n  render();\n}\n")


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("bound", [2, 3])
def test_capped_random_questions_match_the_full_bound(seed, bound, monkeypatch):
    rng = random.Random(seed)
    seen = _checked(monkeypatch)
    for _ in range(12):
        schema, cons = random_fk_schema(rng)
        explorer = Explorer(PROGRAM, schema, cons, ExplorationConfig(table_bound=bound, solver_timeout=None))
        simplifier = Simplifier(schema, cons, {"P": "int"}, table_bound=bound, timeout_s=None)
        for _ in range(6):
            records = random_prefix(rng, schema, cons)
            explorer.generate_input(records)
            conditions = [
                CondBranch(r.cond, r.outcome) if isinstance(r, BranchRecord)
                else CondQuery(r.index, explorer.catalog.executable(r.sql).nf, r.params)
                for r in records if isinstance(r, BranchRecord) or not r.is_empty
            ]
            for k in range(1, len(conditions)):
                simplifier._countermodel(conditions, k)
    assert seen["skipped"] > 0 and seen["capped"] > 0


# ---------------------------------------------------------------------------
# No cap where deletion is not known to be safe


def test_a_self_fk_question_gets_no_cap():
    s, cons = _load("table nodes { id int unique  parent_id int nullable fk nodes.id }")
    q = Explorer(PROGRAM, s, cons, ExplorationConfig()).catalog.executable("SELECT * FROM nodes WHERE id = ?")
    assert solver.row_bounds(s, cons, [(1, q, (RequestParam("P"),), True)]) is None


@pytest.mark.parametrize("non_empty", [True, False])
def test_a_left_join_question_gets_no_cap(toys_schema, toys_constraints, non_empty):
    # An empty LEFT JOIN record, or one explore only restricts to one row,
    # counts too: deleting a right row can make an unmatched-left row.
    catalog = Explorer(PROGRAM, toys_schema, toys_constraints, ExplorationConfig()).catalog
    plain = catalog.executable("SELECT * FROM items WHERE id = ?")
    lj = catalog.executable("SELECT * FROM items LEFT JOIN details ON details.item_id = items.id WHERE items.id = ?")
    assert isinstance(plain, PlainQuery) and not isinstance(lj, PlainQuery)
    params = (RequestParam("P"),)
    assert solver.row_bounds(toys_schema, toys_constraints, [(1, plain, params, True)]) is not None
    records = [(1, plain, params, True), (2, lj, params, non_empty)]
    assert solver.row_bounds(toys_schema, toys_constraints, records) is None


# ---------------------------------------------------------------------------
# Pins: a key the witness fixes saves a chased row only where it is sound


def _second_row_path(schema_text: str, extra: str, b_sql: str):
    """Explore a handler that fetches `a` by id, then `b` on `u` by
    `b_sql` with `a.ref`; returns (the path where `b` returned a row was
    found, row bounds of that prefix)."""
    s, cons = _load(schema_text, extra)
    program = parse_handler(f"""
handler h(Id: int) {{
  let a = query("SELECT * FROM t WHERE id = ?", Id);
  abort_if_empty(a, 404);
  let b = query("{b_sql}", a.ref);
  if (nonempty(b)) {{
    render(a, b);
  }}
  render(a);
}}
""")
    result = explore(program, s, cons, ExplorationConfig(table_bound=2, solver_timeout=None))
    found = any(isinstance(r, QueryRecord) and r.index == 2 and not r.is_empty
                for t in result.transcripts for r in t.records)
    catalog = Explorer(program, s, cons, ExplorationConfig()).catalog
    records = [(1, catalog.executable("SELECT * FROM t WHERE id = ?"), (RequestParam("Id"),), True),
               (2, catalog.executable(b_sql), (RowCol(1, 1),), True)]
    return found, solver.row_bounds(s, cons, records), result


def test_no_pin_on_a_key_that_is_not_unique():
    # `b` needs a u row with k = a.ref that is not flagged, and the
    # containment a flagged one: two rows, infeasible at bound 1.  A pin
    # that ignored uniqueness would count one u row and skip bound 2.
    found, rows, result = _second_row_path(
        "table t { id int unique  ref int }\ntable u { k int  flag bool }",
        "contain SELECT ref FROM t in SELECT k FROM u WHERE flag",
        "SELECT * FROM u WHERE k = ? AND NOT flag",
    )
    assert rows == {"t": 1, "u": 2}
    assert found and result.tree.counts()[INFEASIBLE] == 0


def test_no_pin_on_a_key_equality_under_not():
    # `b` reads a u row whose key is not a.ref; the foreign key needs the
    # one whose key is: two rows again, though u.k is unique.
    found, rows, result = _second_row_path(
        "table u { k int unique  flag bool }\ntable t { id int unique  ref int fk u.k }",
        "",
        "SELECT * FROM u WHERE NOT k = ?",
    )
    assert rows == {"u": 2, "t": 1}
    assert found and result.tree.counts()[INFEASIBLE] == 0


def test_a_unique_key_pins_the_fetched_parent():
    # The same fetch with `k = ?`: the foreign key's u row is b's own row.
    found, rows, result = _second_row_path(
        "table u { k int unique  flag bool }\ntable t { id int unique  ref int fk u.k }",
        "",
        "SELECT * FROM u WHERE k = ?",
    )
    assert rows == {"u": 1, "t": 1}
    assert found and result.tree.counts()[INFEASIBLE] == 1  # b empty: the foreign key forbids it


def test_no_pin_from_a_key_another_value_fixes():
    # `b` is keyed by the request, not by `a.ref`, so the foreign key's u
    # row is b's only where a.ref = Key; the other branch needs two rows.
    s, cons = _load("table u { k int unique  flag bool }\ntable t { id int unique  ref int fk u.k }")
    program = parse_handler("""
handler h(Id: int, Key: int) {
  let a = query("SELECT * FROM t WHERE id = ?", Id);
  abort_if_empty(a, 404);
  let b = query("SELECT * FROM u WHERE k = ?", Key);
  abort_if_empty(b, 404);
  if (a.ref = Key) {
    render(a, b);
  }
  render(b);
}
""")
    result = explore(program, s, cons, ExplorationConfig(table_bound=2, solver_timeout=None))
    outcomes = {r.outcome for t in result.transcripts for r in t.records if isinstance(r, BranchRecord)}
    assert outcomes == {True, False}
