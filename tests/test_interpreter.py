from __future__ import annotations

import dataclasses

import pytest

from polex.dsl import parse_handler
from polex.evaluate import ScalarEnv, eval_branch
from polex.instance import ConcreteInput
from polex.interpreter import ExecutionError, MultiRowResult, QueryCatalog, execute, validate_program
from polex.terms import BoolCol, IntLit, RequestParam, RowCol, SessionParam
from polex.transcript import BranchRecord, QueryRecord, record_line


def grade_input(grade_schema, roles=(), grades=(), courses=(), user=1, course=2):
    return ConcreteInput(
        "test-0001",
        "view_grade_sheet",
        {"courses": tuple(courses), "roles": tuple(roles), "grades": tuple(grades)},
        {"MyUserId": user, "Now": 0},
        {"CourseId": course},
    )


def test_instructor_run_reproduces_canonical_transcript(grade_program, grade_schema):
    ci = grade_input(
        grade_schema,
        courses=[(2,)],
        roles=[(1, 2, 1)],
        grades=[(3, 2, 5)],
    )
    transcript, warnings = execute(grade_program, ci, grade_schema)
    assert warnings == []
    assert transcript.outcome == "rendered"
    assert transcript.records == (
        QueryRecord(1, "SELECT * FROM roles WHERE user_id = ? AND course_id = ?",
                    (SessionParam("MyUserId"), RequestParam("CourseId")), False),
        BranchRecord(BoolCol(RowCol(1, 2)), True),
        QueryRecord(2, "SELECT * FROM grades WHERE course_id = ?", (RowCol(1, 1),), False),
    )


def test_no_role_run_is_single_empty_query(grade_program, grade_schema):
    ci = grade_input(grade_schema)
    transcript, _ = execute(grade_program, ci, grade_schema)
    assert transcript.outcome == "abort:404"
    assert len(transcript.records) == 1
    (rec,) = transcript.records
    assert isinstance(rec, QueryRecord) and rec.is_empty


def test_non_instructor_aborts_403(grade_program, grade_schema):
    ci = grade_input(grade_schema, courses=[(2,)], roles=[(1, 2, 0)])
    transcript, _ = execute(grade_program, ci, grade_schema)
    assert transcript.outcome == "abort:403"
    assert transcript.records[1] == BranchRecord(BoolCol(RowCol(1, 2)), False)


def test_empty_program_empty_transcript(grade_schema):
    p = parse_handler("handler nothing() { }")
    ci = grade_input(grade_schema)
    ci = dataclasses.replace(ci, handler="nothing", request={})
    transcript, _ = execute(p, ci, grade_schema)
    assert transcript.records == ()
    assert transcript.outcome == "end"


def test_determinism_byte_identical(grade_program, grade_schema):
    ci = grade_input(grade_schema, courses=[(2,)], roles=[(1, 2, 1)], grades=[(3, 2, 5)])
    t1, _ = execute(grade_program, ci, grade_schema)
    t2, _ = execute(grade_program, ci, grade_schema)
    assert [record_line(r) for r in t1.records] == [record_line(r) for r in t2.records]


def test_branch_records_agree_with_concrete_values(grade_program, grade_schema):
    ci = grade_input(grade_schema, courses=[(2,)], roles=[(1, 2, 1)], grades=[(3, 2, 5)])
    transcript, _ = execute(grade_program, ci, grade_schema)
    env = ScalarEnv(session=dict(ci.session), request=dict(ci.request))
    for r in transcript.records:
        if isinstance(r, QueryRecord):
            if not r.is_empty:
                env.rows[r.index] = (1, 2, 1) if r.index == 1 else (3, 2, 5)
        else:
            assert eval_branch(r.cond, env) == r.outcome


def test_multi_row_result_raises(grade_program, grade_schema):
    ci = grade_input(
        grade_schema,
        courses=[(2,)],
        roles=[(1, 2, 1)],
        grades=[(3, 2, 5), (4, 2, 1)],  # two grade rows for the course
    )
    with pytest.raises(MultiRowResult) as e:
        execute(grade_program, ci, grade_schema)
    assert e.value.sql == "SELECT * FROM grades WHERE course_id = ?"
    assert len(e.value.records) == 2  # query 1 and the branch were recorded


def test_query_params_stay_symbolic(grade_program, grade_schema):
    ci = grade_input(grade_schema, courses=[(2,)], roles=[(1, 2, 1)], grades=[(3, 2, 5)])
    transcript, _ = execute(grade_program, ci, grade_schema)
    for r in transcript.records:
        if isinstance(r, QueryRecord):
            assert not any(isinstance(s, IntLit) for s in r.params)


def test_concretization_warning_on_foreign_constant(grade_schema):
    p = parse_handler(
        """
handler h(Target: int) {
  let x = query("SELECT * FROM roles WHERE user_id = ?", Target);
  abort_if_empty(x, 404);
  if (x.user_id = 3) { abort(403); }
  render(x);
}
"""
    )
    # Erase the literal table, as if 3 were observed rather than written.
    p = dataclasses.replace(p, literals=frozenset())
    ci = ConcreteInput(
        "i", "h",
        {"courses": (), "roles": ((3, 1, 0),), "grades": ()},
        {"MyUserId": 0, "Now": 0}, {"Target": 3},
    )
    _, warnings = execute(p, ci, grade_schema)
    assert warnings and "concretization" in warnings[0]


def test_validate_program_catches_bad_columns(grade_schema):
    p = parse_handler(
        """
handler h() {
  let x = query("SELECT * FROM roles WHERE user_id = ?", MyUserId);
  abort_if_empty(x, 404);
  if (x.nosuch = 1) { abort(403); }
  render(x);
}
"""
    )
    with pytest.raises(ExecutionError):
        validate_program(p, QueryCatalog(grade_schema))


def test_validate_program_truthiness_needs_bool(grade_schema):
    p = parse_handler(
        """
handler h() {
  let x = query("SELECT * FROM roles WHERE user_id = ?", MyUserId);
  abort_if_empty(x, 404);
  if (x.user_id) { abort(403); }
  render(x);
}
"""
    )
    with pytest.raises(ExecutionError):
        validate_program(p, QueryCatalog(grade_schema))
