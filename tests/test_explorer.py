from __future__ import annotations

import gc
from functools import cmp_to_key
from pathlib import Path

import pytest

from polex import fdsolver, policygen, pruner, solver
from polex.constraints import expand_all, generate_constraints
from polex.dsl import parse_handler, parse_handlers
from polex.explorer import (
    ABANDONED,
    INFEASIBLE,
    PENDING,
    VISITED,
    DivergenceError,
    ExplorationConfig,
    Explorer,
    PrefixTree,
    explore,
)
from polex.interpreter import MultiRowResult, execute
from polex.schema import parse_schema
from polex.terms import BoolCol, Cmp, IntLit, RequestParam, RowCol, SessionParam
from polex.transcript import BranchRecord, QueryRecord, Transcript

import full_bound

ROOT = Path(__file__).resolve().parent.parent


def canonical_transcript():
    return Transcript(
        "view_grade_sheet",
        "x-0001",
        (
            QueryRecord(1, "SELECT * FROM roles WHERE user_id = ? AND course_id = ?",
                        (SessionParam("MyUserId"), RequestParam("CourseId")), False),
            BranchRecord(BoolCol(RowCol(1, 2)), True),
            QueryRecord(2, "SELECT * FROM grades WHERE course_id = ?", (RowCol(1, 1),), False),
        ),
        "rendered",
    )


# ---------------------------------------------------------------------------
# Prefix tree


def popped_tree():
    """A fresh tree with its root prefix popped, as the explorer pops it."""
    tree = PrefixTree()
    assert tree.pending.popleft() == ()
    return tree


def depth_first(prefixes):
    """Pending prefixes in the depth-first preorder of their tree, a run's
    own child ahead of the flipped sibling it opened.  Pending prefixes lie
    in disjoint subtrees, so where two first differ one of them ends: that
    one is the flipped sibling."""
    def cmp(p, q):
        i = next(i for i, (a, b) in enumerate(zip(p, q)) if a != b)
        return 1 if len(p) == i + 1 else -1
    return sorted(prefixes, key=cmp_to_key(cmp))


def test_fresh_tree_targets_root():
    tree = PrefixTree()
    assert list(tree.pending) == [()]
    assert tree.counts() == {PENDING: 1, VISITED: 0, INFEASIBLE: 0, ABANDONED: 0}


def test_insert_canonical_transcript_creates_three_pendings():
    tree = popped_tree()
    records = canonical_transcript().records
    pendings = tree.extend(canonical_transcript())
    assert list(tree.pending) == pendings
    assert [len(p) for p in pendings] == [3, 2, 1]
    assert tree.counts() == {PENDING: 3, VISITED: 4, INFEASIBLE: 0, ABANDONED: 0}
    # one sibling per record, with the outcome flipped
    for p in pendings:
        assert p[:-1] == records[: len(p) - 1] and p[-1] != records[len(p) - 1]
    assert any(isinstance(p[-1], QueryRecord) and p[-1].is_empty for p in pendings)
    branch_sibs = [p for p in pendings if isinstance(p[-1], BranchRecord)]
    assert len(branch_sibs) == 1 and branch_sibs[0][-1].outcome is False


def test_insert_empty_transcript_marks_root_visited():
    tree = popped_tree()
    t = Transcript("h", "h-0001", (), "end")
    assert tree.extend(t) == []
    assert tree.counts()[VISITED] == 1
    assert tree.counts()[PENDING] == 0


def test_next_target_is_deterministic_depth_first():
    tree = popped_tree()
    pendings = tree.extend(canonical_transcript())
    # a run's new prefixes enter deepest first, their depth-first preorder
    assert pendings == depth_first(pendings)
    first = tree.pending.popleft()
    assert first == pendings[0]
    assert isinstance(first[-1], QueryRecord) and first[-1].index == 2
    assert first[-1].is_empty is True
    # a run through the deepest sibling opens a prefix below it, queued
    # after the older ones but ahead of them in depth-first order
    branch = BranchRecord(Cmp("=", RequestParam("CourseId"), IntLit(3)), True)
    added = tree.extend(Transcript("view_grade_sheet", "x-0002", (*first, branch), "rendered"), first)
    assert added == [(*first, BranchRecord(branch.cond, False))]
    assert list(tree.pending) == pendings[1:] + added
    assert depth_first(tree.pending) == added + pendings[1:]


def test_run_through_a_pending_prefix_queues_the_flips_after_it():
    tree = popped_tree()
    tree.extend(canonical_transcript())
    target = tree.pending.pop()  # the first query, found empty
    before = tree.counts()
    cond = Cmp("=", RequestParam("CourseId"), IntLit(3))
    sql = "SELECT * FROM grades WHERE course_id = ?"
    params = (RequestParam("CourseId"),)
    records = (*target, BranchRecord(cond, True), QueryRecord(2, sql, params, True),
               BranchRecord(cond, False))
    added = tree.extend(Transcript("view_grade_sheet", "x-0002", records, "end"), target)
    assert added == [
        (*records[:3], BranchRecord(cond, True)),
        (*records[:2], QueryRecord(2, sql, params, False)),
        (*target, BranchRecord(cond, False)),
    ]
    assert list(tree.pending)[-3:] == added
    assert tree.counts() == {**before, PENDING: before[PENDING] + 3,
                             VISITED: before[VISITED] + 1 + len(records) - len(target)}


def test_fully_explored_tree_has_no_target():
    tree = popped_tree()
    t = Transcript("h", "h-0001", (), "end")
    tree.extend(t)
    assert not tree.pending
    assert tree.counts() == {PENDING: 0, VISITED: 1, INFEASIBLE: 0, ABANDONED: 0}


def test_divergence_detected():
    tree = popped_tree()
    pendings = tree.extend(canonical_transcript())
    target = [p for p in pendings if isinstance(p[-1], BranchRecord)][0]
    snapshot = tree.counts()
    with pytest.raises(DivergenceError, match="^run diverged from its prefix at record 2$"):
        tree.extend(canonical_transcript(), target)
    assert list(tree.pending) == pendings
    assert tree.counts() == snapshot


# ---------------------------------------------------------------------------
# Exploration


def test_grade_sheet_explores_exactly_four_paths(grade_program, grade_schema, grade_constraints):
    res = explore(grade_program, grade_schema, grade_constraints, ExplorationConfig())
    assert res.complete
    assert len(res.transcripts) == 4
    outcomes = sorted(t.outcome for t in res.transcripts)
    assert outcomes == ["abort:403", "abort:404", "rendered", "rendered"]
    # the canonical instructor-with-grades transcript is among them
    want = canonical_transcript().records
    assert any(t.records == want for t in res.transcripts)
    # every transcript reproduces from its logged input
    for t in res.transcripts:
        again, _ = execute(grade_program, res.inputs[t.input_id], grade_schema)
        assert again.records == t.records


def test_program_without_queries_explores_once(grade_schema, grade_constraints):
    p = parse_handler("handler nothing() { }")
    res = explore(p, grade_schema, grade_constraints, ExplorationConfig())
    assert len(res.transcripts) == 1
    assert res.transcripts[0].records == ()


def test_single_param_branch_explores_both_arms_and_emptiness():
    schema = parse_schema("table t { a int }")
    constraints = expand_all(generate_constraints(schema), schema)
    p = parse_handler(
        """
handler h(Uid: int) {
  if (Uid = 0) {
    let x = query("SELECT * FROM t WHERE a = ?", Uid);
    render(x);
  } else {
    let y = query("SELECT * FROM t WHERE a = 1");
    render(y);
  }
}
"""
    )
    res = explore(p, schema, constraints, ExplorationConfig())
    # Each arm contributes one Branch and one Query; the query's emptiness is
    # itself a branch point, so each arm splits in two: four paths in all.
    assert res.complete
    assert len(res.transcripts) == 4
    for t in res.transcripts:
        assert sum(1 for r in t.records if isinstance(r, BranchRecord)) == 1
        assert sum(1 for r in t.records if isinstance(r, QueryRecord)) == 1


def test_coverage_every_sibling_resolved(grade_program, grade_schema, grade_constraints):
    res = explore(grade_program, grade_schema, grade_constraints, ExplorationConfig())
    assert not res.tree.pending
    assert res.tree.counts()[PENDING] == 0


def test_reproducible_visited_set(grade_program, grade_schema, grade_constraints):
    def visited_set(res):
        out = set()
        for t in res.transcripts:
            out.add(t.records)
        return out

    r1 = explore(grade_program, grade_schema, grade_constraints, ExplorationConfig())
    r2 = explore(grade_program, grade_schema, grade_constraints, ExplorationConfig())
    assert visited_set(r1) == visited_set(r2)


def test_max_paths_cutoff_flags_incomplete(grade_program, grade_schema, grade_constraints):
    res = explore(grade_program, grade_schema, grade_constraints, ExplorationConfig(max_paths=1))
    assert not res.complete
    assert len(res.transcripts) == 1
    # the prefixes left unvisited stay pending
    assert res.tree.counts()[PENDING] >= 1


def test_infeasible_sibling_for_count_query(toys_schema, toys_constraints):
    from pathlib import Path

    text = (Path(__file__).parent.parent / "corpus" / "toys" / "handlers" / "category_count.hdl").read_text()
    p = parse_handler(text)
    res = explore(p, toys_schema, toys_constraints, ExplorationConfig())
    assert len(res.transcripts) == 1
    counts = res.tree.counts()
    assert counts[INFEASIBLE] == 1  # "the count came back empty" is impossible


def test_empty_parent_fetch_is_refuted_in_few_conflicts(monkeypatch):
    """The filter of a fetch through a foreign key and the containment
    itself compare the same two row symbols, so "the parent came back
    empty" is refuted without splitting on the key's values.  The path is
    one `solver.Question.chase_refutes` answers without a search, so the
    search is asked with the chase bypassed."""
    schema = parse_schema(
        "table parents { id int unique }\ntable children { id int unique  parent_id int fk parents.id }"
    )
    p = parse_handler(
        """
handler h(Id: int) {
  let c = query("SELECT * FROM children WHERE id = ?", Id);
  abort_if_empty(c, 404);
  let p = query("SELECT * FROM parents WHERE id = ?", c.parent_id);
  abort_if_empty(p, 404);
  render(c, p);
}
"""
    )
    conflicts = []
    solve = fdsolver._Cdcl.solve

    def counted_solve(self, *args):
        out = solve(self, *args)
        conflicts.append(self.conflicts)
        return out

    monkeypatch.setattr(fdsolver._Cdcl, "solve", counted_solve)
    constraints = expand_all(generate_constraints(schema), schema)
    explorer = Explorer(p, schema, constraints, ExplorationConfig(table_bound=2, solver_timeout=None))
    prefix = (
        QueryRecord(1, "SELECT * FROM children WHERE id = ?", (RequestParam("Id"),), False),
        QueryRecord(2, "SELECT * FROM parents WHERE id = ?", (RowCol(1, 1),), True),
    )
    assert explorer.generate_input(prefix) == (INFEASIBLE, None)
    assert conflicts == []  # no search
    monkeypatch.setattr(solver.Question, "chase_refutes", lambda self, steps: False)
    assert explorer.generate_input(prefix) == (INFEASIBLE, None)
    # Bound 1 only: the prefix's witness closure is one row of each table,
    # so its row bounds answer bound 2 without a search.
    assert len(conflicts) == 1 and sum(conflicts) <= 16
    full_bound.only(monkeypatch)
    assert explorer.generate_input(prefix) == (INFEASIBLE, None)
    assert len(conflicts) == 2 and conflicts[1] <= 16  # one fresh search at bound 2


@pytest.mark.parametrize("corpus", ["toys-b3", "synth-front-s1"])
def test_exploration_is_the_same_without_the_bound_1_rung(corpus, monkeypatch):
    """Explore's inputs, transcripts and tree counts are the same when every
    prefix is asked at the full bound alone (`full_bound.ask`)."""
    if corpus == "toys-b3":
        schema_text = (ROOT / "corpus" / "toys" / "schema.txt").read_text()
        texts = [p.read_text() for p in sorted((ROOT / "corpus" / "toys" / "handlers").glob("*.hdl"))]
        bound = 3
    else:
        monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
        import synth

        schema_text, handlers, _ = synth.generate(1)
        texts, bound = list(handlers.values()), 2
    schema = parse_schema(schema_text)
    constraints = expand_all(generate_constraints(schema), schema)
    programs = [p for text in texts for p in parse_handlers(text)]
    checks = []
    backend_check = fdsolver.CdclBackend.check

    def counted_check(self, *args, **kwargs):
        checks[-1] += 1
        return backend_check(self, *args, **kwargs)

    def explored():
        checks.append(0)
        config = ExplorationConfig(table_bound=bound, solver_timeout=None)
        return [
            (r.transcripts, r.inputs, r.tree.counts(), r.reports, r.warnings)
            for r in (explore(p, schema, constraints, config) for p in programs)
        ]

    decided, built = [], []
    chase_refutes, chased_input = solver.Question.chase_refutes, solver.Question.chased_input

    def counted_chase_refutes(self, steps):
        decided.append(chase_refutes(self, steps))
        return decided[-1]

    def counted_chased_input(self, steps):
        built.append(chased_input(self, steps))
        return built[-1]

    monkeypatch.setattr(fdsolver.CdclBackend, "check", counted_check)
    monkeypatch.setattr(solver.Question, "chase_refutes", counted_chase_refutes)
    monkeypatch.setattr(solver.Question, "chased_input", counted_chased_input)
    with_rung = explored()
    full_bound.only(monkeypatch)
    assert explored() == with_rung
    # Every prefix the chase did not refute that is infeasible has a
    # closure of one row per table, and every one the chase did not build
    # an input for that is sat has a bound-1 model: one check each.
    answered = sum(decided) + sum(ci is not None for ci in built)
    assert checks[0] + answered == checks[1] and any(decided) and any(built)


def test_multi_row_repair(toys_schema, toys_constraints):
    p = parse_handler(
        """
handler h(Body: int) {
  let d = query("SELECT * FROM details WHERE body = ?", Body);
  render(d);
}
"""
    )
    explorer = Explorer(p, toys_schema, toys_constraints, ExplorationConfig())
    bad = {
        "users": (), "items": ((1, 0, 1, 0), (2, 0, 1, 0)),
        "details": ((1, 5, None), (2, 5, None)),
    }
    from polex.instance import ConcreteInput

    ci = ConcreteInput("h-9999", "h", bad, {"MyUserId": 0, "Now": 0}, {"Body": 5})
    with pytest.raises(MultiRowResult) as e:
        execute(p, ci, toys_schema)
    fixed_ci, (transcript, _) = explorer.repair_and_run((), e.value)
    assert len(transcript.records) == 1
    # the repaired input satisfies the at-most-one restriction
    matching = [r for r in fixed_ci.tables["details"] if r[1] == fixed_ci.request["Body"]]
    assert len(matching) <= 1


def test_new_query_and_constant_reports(toys_schema, toys_constraints):
    p = parse_handler(
        """
handler h() {
  let x = query("SELECT * FROM items WHERE category = 3");
  render(x);
}
"""
    )
    res = explore(p, toys_schema, toys_constraints, ExplorationConfig())
    assert any(r.startswith("new query:") for r in res.reports)
    assert "new constant: 3" in res.reports


def test_now_session_parameter_flows_into_views():
    schema = parse_schema("table promos { id int unique  expires timestamp }")
    constraints = expand_all(generate_constraints(schema), schema)
    p = parse_handler(
        """
handler active_promos() {
  let x = query("SELECT * FROM promos WHERE expires >= Now");
  render(x);
}
"""
    )
    res = explore(p, schema, constraints, ExplorationConfig())
    assert res.complete and len(res.transcripts) == 2  # empty and non-empty
    from polex.policygen import simplify, to_conditioned_queries, views_from_cqs
    from polex.unparse import unparse_view

    cqs = simplify(to_conditioned_queries(res.transcripts, schema), schema, constraints, {})
    (view,) = views_from_cqs(cqs, schema)
    assert unparse_view(view.nf, schema) == "SELECT * FROM promos\nWHERE expires >= Now"


def test_transcript_jsonl_line_shape(grade_program, grade_schema, grade_constraints):
    import json

    from polex.transcript import record_to_json

    res = explore(grade_program, grade_schema, grade_constraints, ExplorationConfig())
    canonical = max(res.transcripts, key=lambda t: len(t.records))
    q = record_to_json(canonical.records[0])
    assert set(q) == {"t", "i", "sql", "params", "empty"}
    assert q["t"] == "Q" and q["i"] == 1 and q["empty"] is False
    b = record_to_json(canonical.records[1])
    assert set(b) == {"t", "cond", "out"}
    assert b["t"] == "B" and b["out"] is True
    # lines are plain JSON objects, one per record
    line = json.dumps(q)
    assert json.loads(line) == q


def test_explore_and_replay_parse_no_sql(toys_schema, toys_constraints, monkeypatch):
    """`dsl` parses a handler's SQL once and keeps each AST on its
    `LetQuery`: exploring the handler and replaying one of its inputs
    without a catalog parse none of that SQL again."""
    import sys

    from polex import sqlparser
    from polex.interpreter import QueryCatalog

    (program,) = parse_handlers((ROOT / "corpus" / "toys" / "handlers" / "show_item.hdl").read_text())
    parses = []
    parse_sql = sqlparser.parse_sql

    def counted(text):
        parses.append(text)
        return parse_sql(text)

    callers = [m for name, m in sys.modules.items()
               if name.startswith("polex.") and getattr(m, "parse_sql", None) is parse_sql]
    assert {"polex.sqlparser", "polex.interpreter", "polex.dsl"} <= {m.__name__ for m in callers}
    for module in callers:
        monkeypatch.setattr(module, "parse_sql", counted)
    res = explore(program, toys_schema, toys_constraints, ExplorationConfig(table_bound=2, solver_timeout=None))
    assert res.complete and len(res.transcripts) == 6
    t = res.transcripts[-1]
    assert execute(program, res.inputs[t.input_id], toys_schema)[0] == t
    assert parses == []
    QueryCatalog(toys_schema).executable("SELECT * FROM items")  # a text with no kept AST is parsed
    assert parses == ["SELECT * FROM items"]


def test_a_toys_job_leaves_no_reference_cycles(toys_schema, toys_constraints):
    """Only the cyclic collector frees a reference cycle, so cyclic garbage
    lives on until it runs.  One toys job at bound 3 (explore, policy-gen,
    per-handler prune and merge-prune) leaves none; the first job fills
    the caches."""
    programs = [p for path in sorted((ROOT / "corpus" / "toys" / "handlers").glob("*.hdl"))
                for p in parse_handlers(path.read_text())]

    def job():
        policies = []
        for program in programs:
            res = explore(program, toys_schema, toys_constraints, ExplorationConfig(table_bound=3, solver_timeout=None))
            cqs = policygen.simplify(policygen.to_conditioned_queries(res.transcripts, toys_schema), toys_schema,
                                     toys_constraints, dict(program.request_params), table_bound=3, timeout_s=None)
            policy = pruner.Policy(policygen.views_from_cqs(cqs, toys_schema), 3)
            policies.append(pruner.prune(policy, toys_constraints, toys_schema)[0])
        return pruner.merge_and_prune(policies, toys_constraints, toys_schema)

    job()
    gc.collect()
    start, debug = len(gc.garbage), gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        merged, _ = job()
        gc.collect()
    finally:
        gc.set_debug(debug)
        kinds = [type(o).__name__ for o in gc.garbage[start:]]
        del gc.garbage[start:]
    assert len(merged.views) == 3
    assert kinds == []
