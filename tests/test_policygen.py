from __future__ import annotations

import itertools
from dataclasses import replace

import pytest

from polex import policygen, solver
from polex.constraints import expand_all, generate_constraints
from polex.dsl import parse_handler
from polex.evaluate import ScalarEnv, eval_branch, eval_nf
from polex.explorer import ExplorationConfig, explore
from polex.fdsolver import CdclBackend, CheckResult
from polex.instance import ConcreteInput
from polex.normal import to_normal_form
from polex.policygen import (
    CondBranch,
    CondQuery,
    ConditionedQuery,
    RequestParamRemovalError,
    Simplifier,
    generate_view,
    generate_view_trace,
    remove_request_params,
    simplify,
    to_conditioned_queries,
    views_from_cqs,
)
from polex.schema import parse_schema
from polex.sqlparser import parse_sql
from polex.terms import (
    BoolCol,
    Cmp,
    IntLit,
    IsNull,
    RequestParam,
    RowCol,
    SessionParam,
    TRUE,
    substitute_placeholders,
)
from polex.transcript import BranchRecord, QueryRecord, Transcript
from polex.unparse import unparse_nf, unparse_view

from conftest import simplifier

ROLES_SQL = "SELECT * FROM roles WHERE user_id = ? AND course_id = ?"
GRADES_SQL = "SELECT * FROM grades WHERE course_id = ?"


def canonical_transcript():
    return Transcript(
        "view_grade_sheet",
        "x-0001",
        (
            QueryRecord(1, ROLES_SQL, (SessionParam("MyUserId"), RequestParam("CourseId")), False),
            BranchRecord(BoolCol(RowCol(1, 2)), True),
            QueryRecord(2, GRADES_SQL, (RowCol(1, 1),), False),
        ),
        "rendered",
    )


# ---------------------------------------------------------------------------
# Conditioned queries


def test_canonical_transcript_yields_two_cqs(grade_schema):
    cqs = to_conditioned_queries([canonical_transcript()], grade_schema)
    assert len(cqs) == 2
    roles_nf = to_normal_form(parse_sql(ROLES_SQL), grade_schema)
    first, second = cqs
    assert first.sql == roles_nf
    assert first.params == (SessionParam("MyUserId"), RequestParam("CourseId"))
    assert first.conditions == ()
    assert second.params == (RowCol(1, 1),)
    assert second.conditions == (
        CondQuery(1, roles_nf, (SessionParam("MyUserId"), RequestParam("CourseId"))),
        CondBranch(BoolCol(RowCol(1, 2)), True),
    )


def test_empty_result_query_still_produces_cq(grade_schema):
    t = Transcript(
        "h", "h-0001",
        (QueryRecord(1, ROLES_SQL, (SessionParam("MyUserId"), RequestParam("CourseId")), True),),
        "abort:404",
    )
    cqs = to_conditioned_queries([t], grade_schema)
    assert len(cqs) == 1
    assert cqs[0].conditions == ()


def test_empty_query_records_dropped_from_conditions(grade_schema):
    records = (
        QueryRecord(1, GRADES_SQL, (SessionParam("MyUserId"),), True),
        QueryRecord(2, ROLES_SQL, (SessionParam("MyUserId"), RequestParam("CourseId")), False),
    )
    t = Transcript("h", "h-0001", records, "rendered")
    cqs = to_conditioned_queries([t], grade_schema)
    roles_cq = [c for c in cqs if c.sql.sources == ("roles",)][0]
    assert roles_cq.conditions == ()  # the empty grades probe is dropped


def test_empty_transcript_yields_nothing(grade_schema):
    t = Transcript("h", "h-0001", (), "end")
    assert to_conditioned_queries([t], grade_schema) == []


def test_duplicate_cqs_collapse(grade_schema):
    t = canonical_transcript()
    cqs = to_conditioned_queries([t, t], grade_schema)
    assert len(cqs) == 2


COUNT_SQL = "SELECT COUNT(*) FROM items WHERE category = ?"
USERS_SQL = "SELECT * FROM users WHERE id = ?"
ITEM_DETAIL_SQL = (
    "SELECT items.id, details.body FROM items"
    " LEFT JOIN details ON items.id = details.item_id WHERE items.id = ?"
)


def test_count_record_adds_no_condition(toys_schema):
    t = Transcript(
        "h", "h-0001",
        (
            QueryRecord(1, COUNT_SQL, (RequestParam("Cat"),), False),
            QueryRecord(2, USERS_SQL, (SessionParam("MyUserId"),), False),
        ),
        "rendered",
    )
    count_cq, users_cq = to_conditioned_queries([t], toys_schema)
    assert count_cq.sql.sources == ("items",) and count_cq.approx  # the key-projection rewrite
    assert users_cq.sql.sources == ("users",)
    assert users_cq.conditions == ()


def test_count_of_left_join_null_keeps_left_only_variant(toys_schema):
    # The count's parameter is the LEFT JOIN's right-side column, NULL in
    # the left-only variant; the count adds no condition, so that variant
    # must survive for the query after it.
    t = Transcript(
        "h", "h-0001",
        (
            QueryRecord(1, ITEM_DETAIL_SQL, (RequestParam("ItemId"),), False),
            QueryRecord(2, COUNT_SQL, (RowCol(1, 1),), False),
            QueryRecord(3, USERS_SQL, (SessionParam("MyUserId"),), False),
        ),
        "rendered",
    )
    cqs = to_conditioned_queries([t], toys_schema)
    users_cqs = [c for c in cqs if c.sql.sources == ("users",)]
    assert sorted(c.conditions[0].nf.sources for c in users_cqs) == [
        ("items",),  # left-only
        ("items", "details"),  # inner
    ]
    assert all(len(c.conditions) == 1 for c in users_cqs)


def test_count_of_left_join_null_views_through_explore(toys_schema, toys_constraints):
    program = parse_handler(
        "handler h(ItemId: int) {\n"
        f'  let a = query("{ITEM_DETAIL_SQL}", ItemId);\n'
        "  abort_if_empty(a, 404);\n"
        f'  let n = query("{COUNT_SQL}", a.body);\n'
        f'  let u = query("{USERS_SQL}", MyUserId);\n'
        "  render(a, n, u);\n"
        "}\n"
    )
    res = explore(program, toys_schema, toys_constraints, ExplorationConfig())
    cqs = simplify(
        to_conditioned_queries(res.transcripts, toys_schema),
        toys_schema, toys_constraints, dict(program.request_params),
    )
    views = {unparse_view(v.nf, toys_schema) for v in views_from_cqs(cqs, toys_schema)}
    assert "SELECT items.id, users.* FROM items, users\nWHERE users.id = MyUserId" in views
    # the left-only variant turns `a.body` into NULL: the COUNT(*) query it
    # feeds then matches no row and yields no view
    assert not [v for v in views if "= NULL" in v]


# ---------------------------------------------------------------------------
# Simplification


def roles_nf(grade_schema):
    return to_normal_form(parse_sql(ROLES_SQL), grade_schema)


def grades_nf(grade_schema):
    return to_normal_form(parse_sql(GRADES_SQL), grade_schema)


def test_merge_branches_unit_case(grade_schema, grade_constraints):
    base = ConditionedQuery(
        grades_nf(grade_schema),
        (RowCol(1, 1),),
        (
            CondQuery(1, roles_nf(grade_schema), (SessionParam("MyUserId"), RequestParam("CourseId"))),
            CondBranch(BoolCol(RowCol(1, 2)), True),
        ),
    )
    flipped = ConditionedQuery(
        base.sql, base.params,
        (base.conditions[0], CondBranch(BoolCol(RowCol(1, 2)), False)),
    )
    out = simplifier(grade_schema, grade_constraints, {"CourseId": "int"})._merge_branches([base, flipped])
    assert len(out) == 1  # reduced by exactly one
    assert out[0].conditions == (base.conditions[0],)


def test_vacuous_branch_removed_by_solver(grade_schema, grade_constraints):
    # Branch(r1.user_id = MyUserId) is implied by query 1's own filter.
    cq = ConditionedQuery(
        grades_nf(grade_schema),
        (RowCol(1, 1),),
        (
            CondQuery(1, roles_nf(grade_schema), (SessionParam("MyUserId"), RequestParam("CourseId"))),
            CondBranch(Cmp("=", RowCol(1, 0), SessionParam("MyUserId")), True),
        ),
    )
    out = simplifier(grade_schema, grade_constraints, {"CourseId": "int"})._remove_vacuous_branches(cq)
    assert out.conditions == (cq.conditions[0],)


def test_non_vacuous_branch_kept(grade_schema, grade_constraints):
    cq = ConditionedQuery(
        grades_nf(grade_schema),
        (RowCol(1, 1),),
        (
            CondQuery(1, roles_nf(grade_schema), (SessionParam("MyUserId"), RequestParam("CourseId"))),
            CondBranch(BoolCol(RowCol(1, 2)), True),
        ),
    )
    (out,) = simplify([cq], grade_schema, grade_constraints, {"CourseId": "int"})
    assert len(out.conditions) == 2


def test_subset_subsumption(grade_schema, grade_constraints):
    bare = ConditionedQuery(roles_nf(grade_schema), (SessionParam("MyUserId"), RequestParam("CourseId")), ())
    guarded = ConditionedQuery(
        roles_nf(grade_schema),
        (SessionParam("MyUserId"), RequestParam("CourseId")),
        (CondBranch(Cmp("=", SessionParam("MyUserId"), IntLit(1)), True),),
    )
    out = simplify([bare, guarded], grade_schema, grade_constraints, {"CourseId": "int"})
    assert out == [bare]


def test_subsumption_renumbers_query_indices(grade_schema, grade_constraints):
    rnf = roles_nf(grade_schema)
    gnf = grades_nf(grade_schema)
    params = (SessionParam("MyUserId"), RequestParam("CourseId"))
    a = ConditionedQuery(
        gnf, (RowCol(3, 1),),
        (
            CondQuery(1, gnf, (SessionParam("MyUserId"),)),
            CondQuery(3, rnf, params),
        ),
    )
    b = ConditionedQuery(gnf, (RowCol(1, 1),), (CondQuery(1, rnf, params),))
    out = simplifier(grade_schema, grade_constraints, {"CourseId": "int"})._remove_subsumed([a, b])
    assert out == [b]


def test_duplicate_queries_removed_and_renumbered(grade_schema, grade_constraints):
    rnf = roles_nf(grade_schema)
    params = (SessionParam("MyUserId"), RequestParam("CourseId"))
    cq = ConditionedQuery(
        grades_nf(grade_schema),
        (RowCol(2, 1),),
        (
            CondQuery(1, rnf, params),
            CondQuery(2, rnf, params),  # the same query issued twice
        ),
    )
    out = simplifier(grade_schema, grade_constraints, {"CourseId": "int"})._remove_duplicate_queries(cq)
    assert out.conditions == (CondQuery(1, rnf, params),)
    assert out.params == (RowCol(1, 1),)


def test_equality_propagation_enables_duplicate_removal(grade_schema, grade_constraints):
    # Query 2 is issued once with the raw parameter and once with the
    # result column the filter pinned to it; unification makes them equal.
    rnf = roles_nf(grade_schema)
    gnf = grades_nf(grade_schema)
    cq = ConditionedQuery(
        gnf,
        (RowCol(1, 1),),
        (
            CondQuery(1, rnf, (SessionParam("MyUserId"), RequestParam("CourseId"))),
            CondQuery(2, gnf, (RequestParam("CourseId"),)),
            CondQuery(3, gnf, (RowCol(1, 1),)),
        ),
    )
    s = simplifier(grade_schema, grade_constraints, {"CourseId": "int"})
    out = s._remove_duplicate_queries(s._propagate_equalities(cq))
    queries = [r for r in out.conditions if isinstance(r, CondQuery)]
    assert len(queries) == 2  # records 2 and 3 collapsed


def test_vacuous_unused_query_removed(toys_schema, toys_constraints):
    details = to_normal_form(parse_sql("SELECT * FROM details WHERE body = ?"), toys_schema)
    items = to_normal_form(parse_sql("SELECT * FROM items WHERE id = ?"), toys_schema)
    cq = ConditionedQuery(
        details,
        (RowCol(1, 0),),
        (
            CondQuery(1, details, (RequestParam("BodyVal"),)),
            CondQuery(2, items, (RowCol(1, 0),)),  # forced by the foreign key, never used
        ),
    )
    (out,) = simplify([cq], toys_schema, toys_constraints, {"BodyVal": "int"})
    assert out.conditions == (CondQuery(1, details, (RequestParam("BodyVal"),)),)


def test_vacuous_queries_after_a_removal_see_the_records_before_them(toys_schema, toys_constraints):
    # `parent` goes first; `owner` is then checked against the records left
    # before it, which must include `pub`, whose result it reads.
    program = parse_handler(
        """
handler chain(BodyVal: int) {
  let d = query("SELECT * FROM details WHERE body = ?", BodyVal);
  abort_if_empty(d, 404);
  let parent = query("SELECT * FROM items WHERE id = ?", d.item_id);
  let pub = query("SELECT * FROM items WHERE id = ? AND public", d.item_id);
  abort_if_empty(pub, 404);
  let owner = query("SELECT * FROM users WHERE id = ?", pub.owner_id);
  let siblings = query("SELECT * FROM details WHERE item_id = ?", d.item_id);
  render(d, siblings);
}
"""
    )
    res = explore(program, toys_schema, toys_constraints, ExplorationConfig(table_bound=2))
    assert res.complete
    cqs = to_conditioned_queries(res.transcripts, toys_schema)
    out = simplify(cqs, toys_schema, toys_constraints, dict(program.request_params))
    assert views_from_cqs(out, toys_schema)

    def nf(sql):
        return to_normal_form(parse_sql(sql), toys_schema)

    (siblings,) = [cq for cq in out if cq.sql == nf("SELECT * FROM details WHERE item_id = ?")]
    assert [r.nf for r in siblings.conditions if isinstance(r, CondQuery)] == [
        nf("SELECT * FROM details WHERE body = ?"),
        nf("SELECT * FROM items WHERE id = ? AND public"),
    ]


def test_simplify_asks_each_entailment_question_once(toys_schema, toys_constraints, monkeypatch):
    # `ds` and `owner` both follow the `item.public` branch, so asking
    # whether it is vacuous is one question for both.
    program = parse_handler(
        """
handler two_after_branch(ItemId: int) {
  let item = query("SELECT * FROM items WHERE id = ?", ItemId);
  abort_if_empty(item, 404);
  if (item.public) {
    let ds = query("SELECT * FROM details WHERE item_id = ?", item.id);
    let owner = query("SELECT * FROM users WHERE id = ?", item.owner_id);
    render(ds, owner);
  }
}
"""
    )
    res = explore(program, toys_schema, toys_constraints, ExplorationConfig(table_bound=2))
    cqs = to_conditioned_queries(res.transcripts, toys_schema)
    params = dict(program.request_params)
    entails = Simplifier._entails

    # Reference output: every question asked by a fresh Simplifier.
    monkeypatch.setattr(Simplifier, "_entails", lambda self, *args: entails(Simplifier(replace(self.question)), *args))
    expected = simplify(cqs, toys_schema, toys_constraints, params, timeout_s=None)

    questions, asked = [], []

    def recording_entails(self, conditions, k):
        questions.append(tuple(conditions[: k + 1]))
        return entails(self, conditions, k)

    def counting_ask_path(self, steps):
        asked.append(steps)
        return ask_path(self, steps)

    # Each distinct question reaches the `Question` once (and most of them
    # no search: the chase answers them).
    ask_path = solver.Question.ask_path
    monkeypatch.setattr(Simplifier, "_entails", recording_entails)
    monkeypatch.setattr(solver.Question, "ask_path", counting_ask_path)
    out = simplify(cqs, toys_schema, toys_constraints, params, timeout_s=None)
    assert len(asked) == len(set(questions)) < len(questions)
    assert out == expected


def two_rows_question():
    """Rows with a = 0 and with b = 0 exist; their ids are equal.  With one
    row per table it is the same row; with two they may differ."""
    schema = parse_schema("table t { id int unique  a int  b int }")
    a0 = to_normal_form(parse_sql("SELECT id FROM t WHERE a = 0"), schema)
    b0 = to_normal_form(parse_sql("SELECT id FROM t WHERE b = 0"), schema)
    cq = ConditionedQuery(a0, (), (
        CondQuery(1, a0, ()),
        CondQuery(2, b0, ()),
        CondBranch(Cmp("=", RowCol(1, 0), RowCol(2, 0)), True),
    ))
    return schema, expand_all(generate_constraints(schema), schema), cq


def _record_bounds(monkeypatch):
    """Record the bound of each check's context, in check order: a search
    is made over a `solver.bounded` pool and answers many checks."""
    bounds, pools = [], {}
    original, backend_check = solver.bounded, CdclBackend.check

    def recorded(schema, constraints, bound, *args, **kwargs):
        out = original(schema, constraints, bound, *args, **kwargs)
        pools[id(out[0])] = out[0], bound
        return out

    def recorded_check(self, *args):
        bounds.append(pools[id(self.comp.pool)][1])
        return backend_check(self, *args)

    monkeypatch.setattr(solver, "bounded", recorded)
    monkeypatch.setattr(CdclBackend, "check", recorded_check)
    return bounds


def test_entailed_at_bound_1_is_not_entailed_at_bound_2():
    schema, constraints, cq = two_rows_question()
    assert simplifier(schema, constraints, bound=1, timeout_s=None)._entails(cq.conditions, 2)
    assert not simplifier(schema, constraints, bound=2, timeout_s=None)._entails(cq.conditions, 2)


def test_unknown_at_bound_1_leaves_the_verdict_to_the_full_bound(grade_schema, grade_constraints, monkeypatch):
    schema, constraints, not_entailed = two_rows_question()
    vacuous = ConditionedQuery(
        grades_nf(grade_schema),
        (RowCol(1, 1),),
        (
            CondQuery(1, roles_nf(grade_schema), (SessionParam("MyUserId"), RequestParam("CourseId"))),
            CondBranch(Cmp("=", RowCol(1, 0), SessionParam("MyUserId")), True),
        ),
    )
    bounds = _record_bounds(monkeypatch)
    backend_check = CdclBackend.check
    # The chase refutes the vacuous branch's question before any rung; the
    # rungs are what this test asks about.
    monkeypatch.setattr(solver.Question, "chase_refutes", lambda self, steps: False)

    def unknown_at_bound_1(*args):
        verdict = backend_check(*args)
        return CheckResult("unknown") if bounds[-1] == 1 else verdict

    monkeypatch.setattr(CdclBackend, "check", unknown_at_bound_1)
    for s, cq, k, want in (
        (simplifier(schema, constraints, timeout_s=None), not_entailed, 2, False),
        (simplifier(grade_schema, grade_constraints, {"CourseId": "int"}, timeout_s=None), vacuous, 1, True),
    ):
        del bounds[:]
        assert s._entails(cq.conditions, k) == want
        assert bounds == [1, 2]


def test_each_question_reaches_the_solver_once_per_bound(toys_schema, toys_constraints, monkeypatch):
    # `maker` must return a row by the foreign key and is never used: both
    # queries after the branch ask whether it is vacuous, and
    # `Question.chase_refutes` answers without a search.  At bound 1 so must
    # `parent`, the one items row being public: asking that has `other`
    # among the premises, a details row whose item the witness closure
    # chases as a second items row, so that question reaches the full
    # bound, where the item may not be public.  An input explore ran takes
    # the path of every sat question here (`Question.known_input`), so none
    # would reach a rung; the rungs are what this test asks about.
    program = parse_handler(
        """
handler two_after_branch(ItemId: int) {
  let item = query("SELECT * FROM items WHERE id = ?", ItemId);
  abort_if_empty(item, 404);
  let maker = query("SELECT * FROM users WHERE id = ?", item.owner_id);
  if (item.public) {
    let ds = query("SELECT * FROM details WHERE item_id = ?", item.id);
    let other = query("SELECT * FROM details WHERE body = ?", item.category);
    if (nonempty(other)) {
      let parent = query("SELECT * FROM items WHERE id = ? AND public", other.item_id);
    }
    let owner = query("SELECT * FROM users WHERE id = ?", item.owner_id);
    render(ds, owner);
  }
}
"""
    )
    res = explore(program, toys_schema, toys_constraints, ExplorationConfig(table_bound=2))
    cqs = to_conditioned_queries(res.transcripts, toys_schema)
    questions, asked = [], {}
    entails, ask_path = Simplifier._entails, solver.Question.ask_path
    bounds = _record_bounds(monkeypatch)

    def recording_entails(self, conditions, k):
        questions.append(tuple(conditions[: k + 1]))
        return entails(self, conditions, k)

    def recording_ask_path(self, steps):
        key = questions[-1]  # the `_entails` call asking
        assert key not in asked
        del bounds[:]
        status, inputs = ask_path(self, steps)
        asked[key] = (tuple(bounds), status)
        return status, inputs

    monkeypatch.setattr(Simplifier, "_entails", recording_entails)
    monkeypatch.setattr(solver.Question, "ask_path", recording_ask_path)
    monkeypatch.setattr(solver.Question, "known_input", lambda self, steps: None)
    simplify(cqs, toys_schema, toys_constraints, dict(program.request_params), timeout_s=None)
    assert len(set(questions)) < len(questions)
    assert set(asked) == set(questions)
    # Each question is decided without a search, or asked at bound 1, and
    # some at the full bound too.
    assert {b for b, _ in asked.values()} == {(), (1,), (1, 2)}
    full = {key for key, (b, _) in asked.items() if b == (1, 2)}
    assert 0 < len(full) < len(set(questions))


# ---------------------------------------------------------------------------
# View generation (the conjoining algorithm)


def second_cq(grade_schema):
    cqs = to_conditioned_queries([canonical_transcript()], grade_schema)
    return [c for c in cqs if c.conditions][0]


def test_trace_matches_worked_example_textually(grade_schema):
    trace = generate_view_trace(second_cq(grade_schema), grade_schema)
    a1, a2, v = (unparse_nf(nf, grade_schema) for nf in trace)
    assert a1 == "SELECT * FROM roles\nWHERE user_id = MyUserId\n  AND course_id = CourseId"
    assert a2 == a1 + "\n  AND is_instructor"
    assert v == (
        "SELECT * FROM roles, grades\n"
        "WHERE roles.user_id = MyUserId\n"
        "  AND roles.course_id = CourseId\n"
        "  AND roles.is_instructor\n"
        "  AND grades.course_id = roles.course_id"
    )


def test_empty_conditions_view_is_the_query(grade_schema):
    nf = roles_nf(grade_schema)
    cq = ConditionedQuery(nf, (SessionParam("MyUserId"), RequestParam("CourseId")), ())
    view = generate_view(cq, grade_schema)
    assert view.sources == ("roles",)
    assert view.projection == (0, 1, 2)
    assert view.filter == substitute_placeholders(nf.filter, cq.params)


def test_false_branch_negates(grade_schema):
    cq = ConditionedQuery(
        grades_nf(grade_schema),
        (RowCol(1, 1),),
        (
            CondQuery(1, roles_nf(grade_schema), (SessionParam("MyUserId"), RequestParam("CourseId"))),
            CondBranch(IsNull(RowCol(1, 2)), False),
        ),
    )
    view = generate_view(cq, grade_schema)
    assert "is_instructor IS NOT NULL" in unparse_nf(view, grade_schema)


def _grade_instances(grade_schema):
    roles_rows = [(1, 2, 1), (1, 2, 0), (0, 2, 1), (1, 1, 1)]
    grades_rows = [(3, 2, 5), (4, 1, 0)]
    out = []
    for r in range(3):
        for g in range(3):
            for combo_r in itertools.combinations(roles_rows, r):
                for combo_g in itertools.combinations(grades_rows, g):
                    out.append(
                        ConcreteInput(
                            "i", "h",
                            {"courses": ((1,), (2,)), "roles": combo_r, "grades": combo_g},
                            {"MyUserId": 1, "Now": 0}, {"CourseId": 2},
                        )
                    )
    return out


def _expected_product(cq, inst, schema, session, request):
    """The conjoining invariant, computed directly: the Cartesian product of
    the condition queries' results joined with the query's own rows, empty
    as soon as a condition fails."""
    states = [({}, ())]
    for rec in cq.conditions:
        new_states = []
        for rows_env, acc in states:
            env = ScalarEnv(session=session, request=request, rows=rows_env)
            if isinstance(rec, CondBranch):
                if eval_branch(rec.pred, env) == rec.outcome:
                    new_states.append((rows_env, acc))
            else:
                env.placeholders = tuple(env.lookup(s) for s in rec.params)
                for row in eval_nf(rec.nf, inst, schema, env):
                    projected = tuple(row)
                    new_env = dict(rows_env)
                    new_env[rec.index] = row
                    new_states.append((new_env, acc + projected))
        states = new_states
    out = set()
    for rows_env, acc in states:
        env = ScalarEnv(session=session, request=request, rows=rows_env)
        env.placeholders = tuple(env.lookup(s) for s in cq.params)
        for row in eval_nf(cq.sql, inst, schema, env):
            out.add(acc + tuple(row))
    return frozenset(out)


def test_conjoining_invariant_on_bounded_instances(grade_schema):
    cq = second_cq(grade_schema)
    view = generate_view(cq, grade_schema)
    for inst in _grade_instances(grade_schema):
        for my_user in (0, 1):
            for course in (1, 2):
                session = {"MyUserId": my_user, "Now": 0}
                request = {"CourseId": course}
                env = ScalarEnv(session=session, request=request)
                got = eval_nf(view, inst, grade_schema, env)
                want = _expected_product(cq, inst, grade_schema, session, request)
                assert got == want


# ---------------------------------------------------------------------------
# Request parameter removal


def test_removal_produces_framed_view(grade_schema):
    trace = generate_view_trace(second_cq(grade_schema), grade_schema)
    out = remove_request_params(trace[-1], grade_schema)
    assert unparse_view(out, grade_schema) == (
        "SELECT * FROM roles, grades\n"
        "WHERE roles.user_id = MyUserId\n"
        "  AND roles.is_instructor\n"
        "  AND grades.course_id = roles.course_id"
    )


def test_removal_noop_without_request_params(grade_schema):
    nf = to_normal_form(parse_sql("SELECT * FROM roles WHERE user_id = MyUserId"), grade_schema)
    assert remove_request_params(nf, grade_schema) == nf


def test_removal_projects_column_when_not_projected(toys_schema):
    nf = to_normal_form(parse_sql("SELECT id FROM items WHERE category = Cat"), toys_schema)
    out = remove_request_params(nf, toys_schema)
    assert out.projection == (0, 3)  # category appended
    assert out.filter == TRUE


def test_removal_skips_projection_when_forced_equal(grade_schema):
    nf = to_normal_form(
        parse_sql(
            "SELECT grades.* FROM roles, grades"
            " WHERE roles.course_id = CourseId AND grades.course_id = roles.course_id"
        ),
        grade_schema,
    )
    out = remove_request_params(nf, grade_schema)
    assert out.projection == nf.projection  # grades.course_id already projected


def test_double_occurrence_is_hard_error(grade_schema):
    nf = to_normal_form(
        parse_sql("SELECT * FROM grades WHERE user_id = X AND course_id = X"), grade_schema
    )
    with pytest.raises(RequestParamRemovalError):
        remove_request_params(nf, grade_schema)


def test_nullable_column_is_hard_error():
    from polex.schema import parse_schema

    schema = parse_schema("table t { a int nullable }")
    nf = to_normal_form(parse_sql("SELECT * FROM t WHERE a = X"), schema)
    with pytest.raises(RequestParamRemovalError):
        remove_request_params(nf, schema)


def test_non_equality_occurrence_is_hard_error(grade_schema):
    nf = to_normal_form(parse_sql("SELECT * FROM grades WHERE NOT course_id = X"), grade_schema)
    with pytest.raises(RequestParamRemovalError):
        remove_request_params(nf, grade_schema)


# ---------------------------------------------------------------------------
# LEFT JOIN splitting at the conditioned-query level


def test_left_join_query_splits_cq(toys_schema):
    sql = (
        "SELECT items.id, items.owner_id, details.body FROM items"
        " LEFT JOIN details ON items.id = details.item_id WHERE items.id = ?"
    )
    t = Transcript(
        "h", "h-0001",
        (QueryRecord(1, sql, (RequestParam("ItemId"),), False),),
        "rendered",
    )
    cqs = to_conditioned_queries([t], toys_schema)
    assert len(cqs) == 2
    tags = sorted(len(c.sql.sources) for c in cqs)
    assert tags == [1, 2]  # the left-only part and the inner part
    assert all(c.approx for c in cqs)


def test_left_join_condition_with_null_branch(toys_schema):
    sql = (
        "SELECT items.id, items.owner_id, details.body FROM items"
        " LEFT JOIN details ON items.id = details.item_id WHERE items.id = ?"
    )
    follow = "SELECT * FROM details WHERE item_id = ?"
    base = (QueryRecord(1, sql, (RequestParam("ItemId"),), False),)
    # Path A: body observed null (the unmatched side).
    t_null = Transcript(
        "h", "h-0001",
        base + (BranchRecord(IsNull(RowCol(1, 2)), True),
                QueryRecord(2, follow, (RowCol(1, 0),), False)),
        "rendered",
    )
    cqs = to_conditioned_queries([t_null], toys_schema)
    follow_cqs = [c for c in cqs if c.sql.sources == ("details",) and c.conditions]
    # inner variant: the is_null branch survives; left-only variant: the
    # branch is vacuous under "unmatched" and is dropped.
    assert len(follow_cqs) == 2
    n_conditions = sorted(len(c.conditions) for c in follow_cqs)
    assert n_conditions == [1, 2]
    # Path B: body observed non-null kills the left-only variant.
    t_notnull = Transcript(
        "h", "h-0002",
        base + (BranchRecord(IsNull(RowCol(1, 2)), False),
                QueryRecord(2, follow, (RowCol(1, 0),), False)),
        "rendered",
    )
    cqs_b = to_conditioned_queries([t_notnull], toys_schema)
    follow_b = [c for c in cqs_b if c.sql.sources == ("details",) and c.conditions]
    assert len(follow_b) == 1
    assert len(follow_b[0].conditions) == 2


def test_completeness_views_from_cqs_deterministic(grade_schema, grade_constraints, grade_program):
    res = explore(grade_program, grade_schema, grade_constraints, ExplorationConfig())
    cqs = simplify(
        to_conditioned_queries(res.transcripts, grade_schema),
        grade_schema, grade_constraints, {"CourseId": "int"},
    )
    v1 = views_from_cqs(cqs, grade_schema)
    v2 = views_from_cqs(cqs, grade_schema)
    assert v1 == v2


def test_removal_renders_the_view_only_to_refuse_it(grade_schema, monkeypatch):
    rendered = []
    monkeypatch.setattr(policygen, "unparse_nf", lambda nf, schema: rendered.append(nf) or unparse_nf(nf, schema))
    remove_request_params(generate_view_trace(second_cq(grade_schema), grade_schema)[-1], grade_schema)
    assert rendered == []
    schema = parse_schema("table t { a int nullable\n b int }")
    for sql, message in (
        ("SELECT * FROM t WHERE a = X", "column t.a is nullable\nSELECT * FROM t\nWHERE a = X"),
        ("SELECT * FROM t WHERE b = X AND b < X",
         "the parameter must occur exactly once, as `column = Param`\nSELECT * FROM t\nWHERE b = X\n  AND b < X"),
    ):
        nf = to_normal_form(parse_sql(sql), schema)
        with pytest.raises(RequestParamRemovalError) as refused:
            remove_request_params(nf, schema)
        assert str(refused.value) == f"cannot remove request parameter 'X' from view: {message}"
        assert rendered[-1] == nf
