"""Witness-closure row bounds (`solver.Question.row_bounds`) and paths
the chase refutes without a search (`solver.Question.chase_refutes`)
never change a verdict.

`solver.Question.ask` answers a question's full-bound rung as unsat without
a search, or searches it with rows above r_T assumed absent, when the
question is a path with query steps and bound 1 was unsat.  Every such unsat
answer must also be the answer of one fresh, uncapped search at the full
bound (`full_bound.ask`).  A path the chase refutes is unsat before any
search; asked again without the chase, it must be unsat at bound 1 and at
the full bound, and on tiny schemas no instance of the exhaustive oracle
may satisfy it.  The runs below cover generated `synth-front` corpora and
random explore prefixes and entailment questions over random small
schemas, at bounds 2 and 3.
"""

from __future__ import annotations

import random
from dataclasses import replace
from pathlib import Path

import pytest

from polex import fdsolver, solver
from polex.constraints import Containment, expand_all, generate_constraints, parse_constraint_file
from polex.dsl import parse_handler, parse_handlers
from polex.evaluate import ScalarEnv, eval_branch, eval_executable
from polex.explorer import INFEASIBLE, ExplorationConfig, Explorer, explore
from polex.normal import NormalFormQuery, PlainQuery
from polex.policygen import CondBranch, CondQuery, simplify, to_conditioned_queries
from polex.interpreter import QueryCatalog
from polex.schema import Interner, parse_schema
from polex.terms import BoolCol, Cmp, RequestParam, RowCol
from polex.transcript import BranchRecord, QueryRecord

import full_bound
from conftest import simplifier
from oracle import enumerate_instances

ROOT = Path(__file__).resolve().parent.parent


def _checked(monkeypatch) -> dict:
    """Route `Question.ask` through a check that each unsat answer whose
    full-bound rung the row bounds skipped or capped is unsat on a fresh
    uncapped search too; returns counts of the questions checked."""
    ask, row_bounds = solver.Question.ask, solver.Question.row_bounds
    seen = {"unsat": 0, "skipped": 0, "capped": 0}

    def checked(self, encode, copies, steps=None):
        status, inputs = ask(self, encode, copies, steps)
        seen["unsat"] += status == "unsat"
        rows = row_bounds(self, steps) if status == "unsat" and steps is not None and self.bound > 1 else None
        if rows is not None and min(rows.values()) < self.bound:
            seen["skipped" if max(rows.values()) <= 1 else "capped"] += 1
            assert full_bound.ask(self, encode, copies)[0] == "unsat", rows
        return status, inputs

    monkeypatch.setattr(solver.Question, "ask", checked)
    return seen


def _decided(monkeypatch) -> list:
    """Route `Question.chase_refutes` through a check that each path it
    refutes is unsat when asked again without it, by one fresh search at
    bound 1 and one at the full bound; returns the paths it refuted."""
    chase_refutes, decided = solver.Question.chase_refutes, []

    def checked(self, steps):
        if not chase_refutes(self, steps):
            return False
        decided.append(steps)
        for bound in dict.fromkeys((1, self.bound)):
            assert full_bound.ask_path(self, steps, bound)[0] == "unsat", steps
        return True

    monkeypatch.setattr(solver.Question, "chase_refutes", checked)
    return decided


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
    seen, decided = _checked(monkeypatch), _decided(monkeypatch)
    config = ExplorationConfig(table_bound=bound, solver_timeout=None)
    for name in sorted(handlers)[::3]:
        for program in parse_handlers(handlers[name]):
            result = explore(program, s, cons, config)
            cqs = to_conditioned_queries(result.transcripts, s)
            simplify(cqs, s, cons, dict(program.request_params), table_bound=bound, timeout_s=None)
    # The chase refutes every unsat question, so none reaches a search.
    assert seen == {"unsat": 0, "skipped": 0, "capped": 0} and decided


def test_synth_front_counts_the_closure_once_per_bound_1_unsat_question(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import synth

    schema_text, handlers, _ = synth.generate(1)
    s, cons = _load(schema_text)
    calls = {"row_bounds": 0, "unsat": 0, "refuted": 0}
    row_bounds, check, bounded = solver.Question.row_bounds, fdsolver.CdclBackend.check, solver.bounded
    chase_refutes = solver.Question.chase_refutes
    bounds = set()

    def counted_row_bounds(self, steps):
        calls["row_bounds"] += 1
        return row_bounds(self, steps)

    def counted_chase_refutes(self, steps):
        refuted = chase_refutes(self, steps)
        calls["refuted"] += refuted
        return refuted

    def counted_check(self, *args, **kwargs):
        verdict = check(self, *args, **kwargs)
        calls["unsat"] += verdict.status == "unsat"
        return verdict

    def recorded_bounded(schema, constraints, bound, *args):
        bounds.add(bound)
        return bounded(schema, constraints, bound, *args)

    monkeypatch.setattr(solver.Question, "row_bounds", counted_row_bounds)
    monkeypatch.setattr(solver.Question, "chase_refutes", counted_chase_refutes)
    monkeypatch.setattr(fdsolver.CdclBackend, "check", counted_check)
    monkeypatch.setattr(solver, "bounded", recorded_bounded)
    config = ExplorationConfig(table_bound=2, solver_timeout=None)
    for name in sorted(handlers):
        for program in parse_handlers(handlers[name]):
            result = explore(program, s, cons, config)
            cqs = to_conditioned_queries(result.transcripts, s)
            simplify(cqs, s, cons, dict(program.request_params), table_bound=2, timeout_s=None)
    # The chase refutes all 96 unsat questions, so no search is unsat and
    # no closure is counted, and it builds every sat question's input
    # (`test_chased_inputs.py`): no question reaches a rung.
    assert calls == {"row_bounds": 0, "unsat": 0, "refuted": 96} and bounds == set()


# ---------------------------------------------------------------------------
# Random schemas: random explore prefixes and entailment questions


def random_fk_schema(rng: random.Random):
    """Two or three tables, each with a unique `id`, an int `v` (maybe
    unique, maybe nullable) and a bool `f`; past the first, a `ref` column
    with a foreign key to an earlier table's `id`, or a `contain` line into
    its `v`, maybe filtered on `f` on one side.  Returns (schema,
    constraints)."""
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
                left, right = rng.choice([("", ""), ("", " WHERE f"), (" WHERE f", "")])
                extra.append(f"contain SELECT ref FROM t{i}{left} in SELECT v FROM {target}{right}")
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
    seen, decided = _checked(monkeypatch), _decided(monkeypatch)
    for _ in range(12):
        schema, cons = random_fk_schema(rng)
        explorer = Explorer(PROGRAM, schema, cons, ExplorationConfig(table_bound=bound, solver_timeout=None))
        s = simplifier(schema, cons, {"P": "int"}, bound=bound, timeout_s=None)
        for _ in range(6):
            records = random_prefix(rng, schema, cons)
            explorer.generate_input(records)
            conditions = [
                CondBranch(r.cond, r.outcome) if isinstance(r, BranchRecord)
                else CondQuery(r.index, explorer.catalog.executable(r.sql).nf, r.params)
                for r in records if isinstance(r, BranchRecord) or not r.is_empty
            ]
            for k in range(1, len(conditions)):
                s._entails(conditions, k)
    assert seen["skipped"] > 0 and seen["capped"] > 0 and decided


# ---------------------------------------------------------------------------
# No cap where deletion is not known to be safe


def test_a_self_fk_question_gets_no_cap():
    s, cons = _load("table nodes { id int unique  parent_id int nullable fk nodes.id }")
    explorer = Explorer(PROGRAM, s, cons, ExplorationConfig())
    q = explorer.catalog.executable("SELECT * FROM nodes WHERE id = ?")
    assert explorer.question.row_bounds([(1, q, (RequestParam("P"),), False)]) is None


@pytest.mark.parametrize("empty", [False, True, None])
def test_a_left_join_question_gets_no_cap(toys_schema, toys_constraints, empty):
    # An empty LEFT JOIN record, or one explore only restricts to one row,
    # counts too: deleting a right row can make an unmatched-left row.
    explorer = Explorer(PROGRAM, toys_schema, toys_constraints, ExplorationConfig())
    plain = explorer.catalog.executable("SELECT * FROM items WHERE id = ?")
    lj = explorer.catalog.executable(
        "SELECT * FROM items LEFT JOIN details ON details.item_id = items.id WHERE items.id = ?")
    assert isinstance(plain, PlainQuery) and not isinstance(lj, PlainQuery)
    params = (RequestParam("P"),)
    assert explorer.question.row_bounds([(1, plain, params, False)]) is not None
    steps = [(1, plain, params, False), (2, lj, params, empty)]
    assert explorer.question.row_bounds(steps) is None


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
    explorer = Explorer(program, s, cons, ExplorationConfig())
    steps = [(1, explorer.catalog.executable("SELECT * FROM t WHERE id = ?"), (RequestParam("Id"),), False),
             (2, explorer.catalog.executable(b_sql), (RowCol(1, 1),), False)]
    return found, explorer.question.row_bounds(steps), result


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


# ---------------------------------------------------------------------------
# Merged rows: two fetches that a unique key fixes to one term are one row,
# and only those


def _two_u_rows(schema_text: str, y_sql: str, y_arg: str):
    """Explore a handler that fetches `x`, a flagged u row with k = A, then
    `y` by `y_sql` with `y_arg`; returns (the path where both returned a
    row was found, row bounds of that prefix)."""
    s, cons = _load(schema_text)
    x_sql = "SELECT * FROM u WHERE k = ? AND flag"
    program = parse_handler(f"""
handler h(A: int, B: int) {{
  let x = query("{x_sql}", A);
  abort_if_empty(x, 404);
  let y = query("{y_sql}", {y_arg});
  abort_if_empty(y, 404);
  render(x, y);
}}
""")
    result = explore(program, s, cons, ExplorationConfig(table_bound=2, solver_timeout=None))
    found = any(isinstance(r, QueryRecord) and r.index == 2 and not r.is_empty
                for t in result.transcripts for r in t.records)
    explorer = Explorer(program, s, cons, ExplorationConfig())
    steps = [(1, explorer.catalog.executable(x_sql), (RequestParam("A"),), False),
             (2, explorer.catalog.executable(y_sql), (RequestParam(y_arg),), False)]
    return found, explorer.question.row_bounds(steps)


# `y` must be a second u row in each case: it is not flagged, or its key is
# not A.  A merge that ignored the term, the uniqueness, the conjunct's
# position or the key's width would count one row and skip bound 2.
@pytest.mark.parametrize("schema_text, y_sql, y_arg", [
    ("table u { k int unique  flag bool }", "SELECT * FROM u WHERE k = ? AND NOT flag", "B"),
    ("table u { k int  flag bool }", "SELECT * FROM u WHERE k = ? AND NOT flag", "A"),
    ("table u { k int unique  flag bool }", "SELECT * FROM u WHERE NOT k = ?", "A"),
    ("table u {\n  k int\n  j int\n  flag bool\n  unique (k, j)\n}", "SELECT * FROM u WHERE k = ? AND NOT flag", "A"),
], ids=["other-term", "not-unique", "under-not", "two-column-key"])
def test_no_merged_row_unless_one_unique_key_fixes_both(schema_text, y_sql, y_arg):
    found, rows = _two_u_rows(schema_text, y_sql, y_arg)
    assert rows == {"u": 2}
    assert found


def test_an_existence_fetch_and_a_full_fetch_of_one_parent_are_one_row(monkeypatch):
    # `e` and `b` fetch the same b row by its id; only `b` reads its
    # `parent_id`, which `c` is keyed by, so the merged row is pinned and
    # the `d` that c's foreign key needs is the only chased row.  Counting
    # `e` alone, with `b` dropped, would chase a second c row.
    s, cons = _load("""
table d { id int unique  flag bool }
table c { id int unique  parent_id int fk d.id }
table b { id int unique  parent_id int fk c.id }
table a { id int unique  parent_id int fk b.id }
""")
    program = parse_handler("""
handler h(Id: int) {
  let a = query("SELECT * FROM a WHERE id = ?", Id);
  abort_if_empty(a, 404);
  let e = query("SELECT 1 FROM b WHERE id = ? LIMIT 1", a.parent_id);
  abort_if_empty(e, 404);
  let b = query("SELECT * FROM b WHERE id = ?", a.parent_id);
  abort_if_empty(b, 404);
  let c = query("SELECT * FROM c WHERE id = ?", b.parent_id);
  abort_if_empty(c, 404);
  let d = query("SELECT * FROM d WHERE id = ?", c.parent_id);
  render(a, c, d);
}
""")
    explorer = Explorer(program, s, cons, ExplorationConfig())
    fetch = explorer.catalog.executable
    steps = [(1, fetch("SELECT * FROM a WHERE id = ?"), (RequestParam("Id"),), False),
             (2, fetch("SELECT 1 FROM b WHERE id = ? LIMIT 1"), (RowCol(1, 1),), False),
             (3, fetch("SELECT * FROM b WHERE id = ?"), (RowCol(1, 1),), False),
             (4, fetch("SELECT * FROM c WHERE id = ?"), (RowCol(3, 1),), False),
             (5, fetch("SELECT * FROM d WHERE id = ?"), (RowCol(4, 1),), True)]
    assert explorer.question.row_bounds(steps) == {"a": 1, "b": 1, "c": 1, "d": 1}
    seen, decided = _checked(monkeypatch), _decided(monkeypatch)
    result = explore(program, s, cons, ExplorationConfig(table_bound=2, solver_timeout=None))
    # Every empty parent fetch, d's too, is infeasible, and each is an
    # empty fetch by a non-null foreign key: none reaches a search.
    assert result.tree.counts()[INFEASIBLE] == len(decided) == 4
    assert seen == {"unsat": 0, "skipped": 0, "capped": 0}


# ---------------------------------------------------------------------------
# Paths a foreign key decides: the exhaustive oracle agrees


def _holds(steps, ci, schema, request) -> bool:
    """Whether the path `steps` holds on the input `ci` with `request`:
    each query step returns at most one row, and a row or none as asserted."""
    env = ScalarEnv(session=dict(ci.session), request=request)
    for step in steps:
        if len(step) == 2:
            if eval_branch(step[0], env) != step[1]:
                return False
            continue
        index, q, params, empty = step
        rows = eval_executable(q, ci, schema, replace(env, placeholders=tuple(map(env.lookup, params))))
        if len(rows) > 1 or (empty is not None and empty != (not rows)):
            return False
        if empty is False:
            (env.rows[index],) = rows
    return True


REPLIES = """
table users { id int unique }
table posts { id int unique  author_id int fk users.id  parent_id int nullable fk posts.id }
"""
NODES = "table nodes { id int unique  parent_id int fk nodes.id }"
FLAGGED = "table t0 { id int unique }\ntable t1 { id int unique  ref int  alt int  f bool }"
FLAGGED_LINES = "contain SELECT ref FROM t1 WHERE f in SELECT id FROM t0\ncontain SELECT alt FROM t1 in SELECT id FROM t0"
POST = ("SELECT * FROM posts WHERE id = ?", RequestParam("P"))


# Each path fetches rows, then asserts empty its last fetch.  The rule must
# decide exactly the paths no instance satisfies: a non-null foreign key,
# also to its own table, but not a nullable one, a key into another table
# than the line's, a fetch with a second conjunct, or a line whose left
# side is filtered.
@pytest.mark.parametrize("schema_text, extra, path, decided", [
    (REPLIES, "", [POST, ("SELECT * FROM users WHERE id = ?", RowCol(1, 1))], True),
    (REPLIES, "", [POST, ("SELECT * FROM posts WHERE id = ?", RowCol(1, 2))], False),
    (REPLIES, "", [POST, ("SELECT * FROM posts WHERE id = ?", RowCol(1, 1))], False),
    (REPLIES, "", [POST, ("SELECT * FROM posts WHERE id = ?", RowCol(1, 2)),
                   ("SELECT * FROM users WHERE id = ?", RowCol(2, 1))], True),
    (REPLIES, "", [POST, ("SELECT * FROM users WHERE id = ? AND id = 1", RowCol(1, 1))], False),
    (NODES, "", [("SELECT * FROM nodes WHERE id = ?", RequestParam("P")),
                 ("SELECT * FROM nodes WHERE id = ?", RowCol(1, 1))], True),
    (FLAGGED, FLAGGED_LINES, [("SELECT * FROM t1 WHERE id = ?", RequestParam("P")),
                              ("SELECT * FROM t0 WHERE id = ?", RowCol(1, 1))], False),
    (FLAGGED, FLAGGED_LINES, [("SELECT * FROM t1 WHERE id = ?", RequestParam("P")),
                              ("SELECT * FROM t0 WHERE id = ?", RowCol(1, 2))], True),
], ids=["author", "nullable-parent", "wrong-table", "parents-author", "two-conjuncts", "self-fk",
        "filtered-left", "unfiltered-left"])
def test_no_instance_satisfies_a_path_the_rule_decides(schema_text, extra, path, decided, monkeypatch):
    s, cons = _load(schema_text, extra)
    exe = QueryCatalog(s).executable
    steps = [(i, exe(sql), (param,) * sql.count("?"), i == len(path)) for i, (sql, param) in enumerate(path, 1)]
    question = solver.Question(s, cons, 2, (0, 1), (("P", "int"),), timeout_s=None)
    seen = _decided(monkeypatch)
    models = [(ci, p) for ci in enumerate_instances(s, cons, 2, (0, 1)) for p in (0, 1)
              if _holds(steps, ci, s, {"P": p})]
    assert question.ask_path(steps)[0] == ("unsat" if decided else "sat")
    assert (len(seen), not models) == (decided, decided)


# ---------------------------------------------------------------------------
# Every path the chase refutes: the exhaustive oracle agrees

TINY = {
    "self-fk": ("table nodes { id int unique  parent_id int fk nodes.id }", ""),
    "nullable-self-fk": ("table nodes { id int unique  parent_id int nullable fk nodes.id }", ""),
    "nullable-fk": ("table p { id int unique }\ntable c { id int unique  pid int nullable fk p.id }", ""),
    "filtered-contain": ("table p { id int unique }\ntable c { id int unique  ref int  f bool }",
                         "contain SELECT ref FROM c WHERE f in SELECT id FROM p"),
    "composite-unique": ("table u {\n  k int\n  j int\n  unique (k, j)\n}", ""),
}


def _tiny_path(rng: random.Random, schema, exe) -> list:
    """Fetches of one row by a column equal to the request parameter or to
    an earlier row's column, maybe with a second conjunct, and branches
    between those values, then the last step asserted negatively: a fetch
    empty or a branch false."""
    steps, rows = [], []  # rows: (index, table) of each fetched row

    def value():
        if rows and rng.random() < 0.7:
            j, u = rng.choice(rows)
            return RowCol(j, rng.randrange(schema.table(u).arity))
        return RequestParam("P")

    def fetch(index, empty):
        t = rng.choice(schema.tables)
        atoms = [f"{rng.choice(t.columns).name} = ?"]
        if rng.random() < 0.3:
            c = rng.choice(t.columns)
            atoms.append(rng.choice([c.name, f"NOT {c.name}"]) if c.type == "bool" else f"{c.name} = {rng.randrange(3)}")
        steps.append((index, exe(f"SELECT * FROM {t.name} WHERE {' AND '.join(atoms)}"), (value(),), empty))
        if not empty:
            rows.append((index, t.name))

    for index in range(1, rng.randint(2, 4)):
        if rows and rng.random() < 0.3:
            steps.append((Cmp("=", value(), value()), rng.random() < 0.5))
        fetch(index, False)
    if rng.random() < 0.6:
        fetch(len(rows) + 1, True)
    else:
        steps.append((Cmp("=", value(), value()), False))
    return steps


@pytest.mark.parametrize("name", sorted(TINY))
def test_no_instance_satisfies_a_path_the_chase_refutes(name):
    s, cons = _load(*TINY[name])
    exe, rng = QueryCatalog(s).executable, random.Random(name)
    instances = enumerate_instances(s, cons, 2, (0, 1, 2))
    question = solver.Question(s, cons, 2, (0, 2), (("P", "int"),), timeout_s=None)
    refuted = satisfied = 0
    for _ in range(40):
        steps = _tiny_path(rng, s, exe)
        holds = any(_holds(steps, ci, s, {"P": p}) for ci in instances for p in (0, 1, 2))
        if question.chase_refutes(steps):
            assert not holds, steps
            refuted += 1
        satisfied += holds
    assert refuted and satisfied, (refuted, satisfied)
