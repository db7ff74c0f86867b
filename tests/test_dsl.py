from __future__ import annotations

from pathlib import Path

import pytest

from polex import dsl
from polex.dsl import (
    ComputedArgumentError,
    DslError,
    LetQuery,
    UseBeforeGuardError,
    parse_handler,
)


def test_grade_sheet_handler_parses(grade_program):
    assert grade_program.name == "view_grade_sheet"
    assert grade_program.request_params == (("CourseId", "int"),)
    assert len(grade_program.body) == 5
    kinds = [type(s).__name__ for s in grade_program.body]
    assert kinds == ["LetQuery", "AbortIfEmpty", "IfStmt", "LetQuery", "RenderStmt"]


def test_empty_handler_is_valid():
    p = parse_handler("handler nothing() { }")
    assert p.body == ()


def test_computed_argument_rejected():
    with pytest.raises(ComputedArgumentError):
        parse_handler(
            'handler h(Uid: int) { let x = query("SELECT * FROM t WHERE a = ?", Uid * Uid); render(x); }'
        )


def test_unguarded_field_access_rejected():
    with pytest.raises(UseBeforeGuardError):
        parse_handler(
            """
handler h() {
  let x = query("SELECT * FROM t WHERE a = ?", MyUserId);
  let y = query("SELECT * FROM t WHERE a = ?", x.a);
  render(y);
}
"""
        )


def test_abort_if_empty_guards_following_statements():
    p = parse_handler(
        """
handler h() {
  let x = query("SELECT * FROM t WHERE a = ?", MyUserId);
  abort_if_empty(x, 404);
  let y = query("SELECT * FROM t WHERE a = ?", x.a);
  render(y);
}
"""
    )
    assert isinstance(p.body[2], LetQuery)


def test_nonempty_guard_in_then_branch():
    parse_handler(
        """
handler h() {
  let x = query("SELECT * FROM t WHERE a = ?", MyUserId);
  if (nonempty(x)) {
    let y = query("SELECT * FROM t WHERE a = ?", x.a);
    render(y);
  }
  abort(404);
}
"""
    )


def test_negated_nonempty_guards_else_branch():
    parse_handler(
        """
handler h() {
  let x = query("SELECT * FROM t WHERE a = ?", MyUserId);
  if (!nonempty(x)) {
    abort(404);
  }
  let y = query("SELECT * FROM t WHERE a = ?", x.a);
  render(y);
}
"""
    )


def test_then_branch_does_not_leak_guard():
    with pytest.raises(UseBeforeGuardError):
        parse_handler(
            """
handler h() {
  let x = query("SELECT * FROM t WHERE a = ?", MyUserId);
  if (nonempty(x)) {
    render(x);
  }
  let y = query("SELECT * FROM t WHERE a = ?", x.a);
  render(y);
}
"""
        )


def test_placeholder_arity_checked():
    with pytest.raises(DslError) as e:
        parse_handler('handler h() { let x = query("SELECT * FROM t WHERE a = ?"); render(x); }')
    assert "placeholder" in str(e.value)


def test_unreachable_statement_rejected():
    with pytest.raises(DslError) as e:
        parse_handler("handler h() { abort(404); render(); }")
    assert "unreachable" in str(e.value)


def test_duplicate_binding_rejected():
    with pytest.raises(DslError):
        parse_handler(
            'handler h() { let x = query("SELECT * FROM t"); let x = query("SELECT * FROM t"); }'
        )


def test_request_params_must_be_camelcase():
    with pytest.raises(DslError):
        parse_handler("handler h(uid: int) { }")


def test_session_param_cannot_be_redeclared():
    with pytest.raises(DslError):
        parse_handler("handler h(MyUserId: int) { }")


def test_condition_operators_outside_instrumented_set():
    with pytest.raises(DslError) as e:
        parse_handler(
            'handler h(A: int) { let x = query("SELECT * FROM t"); if (A < 3) { abort(1); } render(x); }'
        )
    assert "instrumented" in str(e.value)


def test_count_fields_not_referenceable():
    with pytest.raises(DslError):
        parse_handler(
            """
handler h() {
  let n = query("SELECT COUNT(*) FROM t");
  if (n.count = 0) { abort(1); }
  render(n);
}
"""
        )


def test_exists_fields_not_referenceable():
    with pytest.raises(DslError):
        parse_handler(
            """
handler h() {
  let e = query("SELECT 1 FROM t LIMIT 1");
  abort_if_empty(e, 404);
  render(e.a);
}
"""
        )


def test_literals_collected(grade_program):
    # The grade-sheet handler has no integer literals in conditions or SQL.
    assert grade_program.literals == frozenset()


def test_sql_and_program_literals_collected():
    p = parse_handler(
        'handler h(A: int) { let x = query("SELECT * FROM t WHERE a = 7"); if (A = 3) { render(x); } abort(2); }'
    )
    assert p.literals == {3, 7}


def test_literals_of_every_query_condition_and_argument_but_not_render():
    both = parse_handler(
        """
handler h(P: int) {
  if (P = 1) {
    let x = query("SELECT * FROM t WHERE a = 3");
    render(x);
  } else {
    let x = query("SELECT * FROM t WHERE a = 5");
    render(x);
  }
}
"""
    )
    assert both.literals == {1, 3, 5}
    nested = parse_handler(
        """
handler h(P: int) {
  let x = query("SELECT * FROM t WHERE a = ?", 6);
  if (!P = 4) { render(x, 9); }
  abort(2);
}
"""
    )
    assert nested.literals == {4, 6}


def test_each_sql_text_is_parsed_once_per_handler_file(monkeypatch):
    parsed = []
    parse_sql = dsl.parse_sql
    monkeypatch.setattr(dsl, "parse_sql", lambda sql: parsed.append(sql) or parse_sql(sql))
    p = parse_handler(
        """
handler h(P: int) {
  let x = query("SELECT * FROM t WHERE a = ?", P);
  let y = query("SELECT * FROM t WHERE a = ?", 3);
  render(x, y);
}
"""
    )
    x, y = p.body[:2]
    assert parsed == ["SELECT * FROM t WHERE a = ?"] and x.ast is y.ast
    # The seeded corpus of the benchmark's synth-front workload repeats
    # texts within a handler file: its 92 lets hold 84 texts distinct
    # within their file.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import synth

    parsed.clear()
    lets = [[s.sql for p in dsl.parse_handlers(text) for s in _lets(p.body)] for text in synth.generate(1)[1].values()]
    assert (sum(map(len, lets)), sum(len(set(texts)) for texts in lets), len(parsed)) == (92, 84, 84)


def _lets(stmts):
    for s in stmts:
        if isinstance(s, LetQuery):
            yield s
        elif isinstance(s, dsl.IfStmt):
            yield from _lets(s.then)
            yield from _lets(s.els)
