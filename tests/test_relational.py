from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polex.evaluate import ScalarEnv, eval_nf
from polex.instance import ConcreteInput
from polex.normal import (
    NormalFormQuery,
    NormalizeError,
    check_nf,
    normalize_query,
    psj_variants,
    session_view,
    to_executable,
    to_normal_form,
)
from polex.schema import parse_schema
from polex.sqlparser import SqlSyntaxError, UnsupportedSqlError, parse_sql
from polex.terms import (
    And,
    BoolCol,
    Cmp,
    Col,
    IntLit,
    IsNull,
    Not,
    NullLit,
    RequestParam,
    SessionParam,
    TRUE,
    fold_nulls,
)
from polex.unparse import unparse_nf, unparse_view


SCHEMA = parse_schema(
    """
table t {
  a int
  b int nullable
}
table u {
  id int unique
  a int
  flag bool
}
"""
)


def rows(*rs):
    return tuple(rs)


def instance(**tables):
    base = {t.name: () for t in SCHEMA.tables}
    base.update(tables)
    return ConcreteInput("i", "h", base, {"MyUserId": 0, "Now": 0}, {})


# ---------------------------------------------------------------------------
# Parsing


def test_parse_roles_query_shape():
    ast = parse_sql("SELECT * FROM roles WHERE user_id = ? AND course_id = ?")
    placeholders = [t for c in (ast.where,) for t in _terms(c)]
    assert sum(1 for t in placeholders if type(t).__name__ == "PlaceholderRef") == 2


def _terms(pred):
    from polex.terms import iter_terms

    return list(iter_terms(pred))


def test_parse_no_where_is_true():
    ast = parse_sql("SELECT * FROM t")
    assert ast.where == TRUE


def test_parse_order_by_is_unsupported():
    with pytest.raises(UnsupportedSqlError) as e:
        parse_sql("SELECT a FROM t ORDER BY a")
    assert "ORDER BY" in str(e.value)


@pytest.mark.parametrize(
    "sql,construct",
    [
        ("SELECT a FROM t WHERE a = 1 OR a = 2", "OR"),
        ("SELECT a FROM t GROUP BY a", "GROUP BY"),
        ("SELECT a FROM t LIMIT 3", "LIMIT 3"),
        ("SELECT a FROM t WHERE a = b + 1", "arithmetic"),
        ("SELECT SUM(a) FROM t", "SUM"),
    ],
)
def test_unsupported_constructs_are_named(sql, construct):
    with pytest.raises(UnsupportedSqlError) as e:
        parse_sql(sql)
    assert construct.lower() in str(e.value).lower()


def test_syntax_error_has_position():
    with pytest.raises(SqlSyntaxError) as e:
        parse_sql("SELECT FROM t")
    assert e.value.line == 1 and e.value.col > 1


def test_duplicate_alias_rejected():
    with pytest.raises(SqlSyntaxError):
        parse_sql("SELECT * FROM t, t")


def test_param_casing_convention():
    ast = parse_sql("SELECT * FROM t WHERE a = MyUserId AND b = CourseId")
    terms = _terms(ast.where)
    assert SessionParam("MyUserId") in terms
    assert RequestParam("CourseId") in terms


# ---------------------------------------------------------------------------
# Normal form


def test_normal_form_single_column():
    nf = to_normal_form(parse_sql("SELECT a FROM t"), SCHEMA)
    assert nf == NormalFormQuery((0,), TRUE, ("t",))


def test_normal_form_star_expansion():
    nf = to_normal_form(parse_sql("SELECT * FROM t WHERE a = ?"), SCHEMA)
    assert nf.projection == (0, 1)
    assert nf.sources == ("t",)


def test_normal_form_self_join_projection():
    # SELECT t2.b, t1.a FROM t t1, t t2 -> [arity(t)+1, 0]
    nf = to_normal_form(parse_sql("SELECT t2.b, t1.a FROM t t1, t t2"), SCHEMA)
    assert nf.projection == (3, 0)
    # Independent check: evaluate on a 2-row instance and compare against a
    # hand-rolled cross product.
    inst = instance(t=rows((1, 2), (3, 4)))
    got = eval_nf(nf, inst, SCHEMA)
    expect = {(r2[1], r1[0]) for r1 in inst.tables["t"] for r2 in inst.tables["t"]}
    assert got == frozenset(expect)


def test_normal_form_requires_psj():
    ast = parse_sql("SELECT COUNT(*) FROM t")
    with pytest.raises(NormalizeError):
        to_normal_form(ast, SCHEMA)


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT * FROM t INNER JOIN u ON t.a = u.a WHERE u.flag",
        "SELECT 1 FROM t WHERE a = MyUserId LIMIT 1",
        "SELECT 1 FROM t INNER JOIN u ON t.a = u.a LIMIT 1",
        "SELECT t.a FROM t LEFT JOIN u ON t.a = u.a WHERE u.flag",
    ],
)
def test_normal_form_is_the_single_lossless_variant(sql):
    assert to_normal_form(parse_sql(sql), SCHEMA) == session_view(sql, SCHEMA)
    for refused in ("SELECT COUNT(*) FROM u", "SELECT t.a FROM t LEFT JOIN u ON t.a = u.a"):
        with pytest.raises(NormalizeError):
            to_normal_form(parse_sql(refused), SCHEMA)
        with pytest.raises(NormalizeError):
            session_view(refused, SCHEMA)


def test_unknown_column_rejected():
    with pytest.raises(NormalizeError):
        to_normal_form(parse_sql("SELECT nosuch FROM t"), SCHEMA)


# ---------------------------------------------------------------------------
# Rewrites


def test_rewrite_existence_limit1():
    variants = normalize_query(parse_sql("SELECT 1 FROM t WHERE a = ? LIMIT 1"), SCHEMA)
    assert len(variants) == 1
    v = variants[0]
    assert v.lossless
    assert v.nf.projection == ()
    assert v.nf.sources == ("t",)


def test_rewrite_count_projects_key_column():
    variants = normalize_query(parse_sql("SELECT COUNT(*) FROM u"), SCHEMA)
    assert len(variants) == 1
    v = variants[0]
    assert not v.lossless
    assert v.nf == NormalFormQuery((0,), TRUE, ("u",))
    assert v.result_map == (None,)


def test_rewrite_count_skips_a_nullable_unique_column():
    # Two instances with one and two NULL-k rows agree on `SELECT k, x FROM
    # t` but not on the count; the non-nullable key `id` tells them apart.
    schema = parse_schema("table t { k int nullable unique  id int unique  x int }")
    exe = to_executable(parse_sql("SELECT COUNT(*) FROM t WHERE x = ?"), schema)
    (v,) = psj_variants(exe, schema)
    assert v.nf.projection == (1,)


def test_rewrite_count_projects_a_composite_key(grade_schema):
    (v,) = normalize_query(parse_sql("SELECT COUNT(*) FROM roles WHERE is_instructor"), grade_schema)
    assert v.nf.projection == (0, 1)
    assert unparse_view(v.nf, grade_schema) == "SELECT user_id, course_id FROM roles\nWHERE is_instructor"


def test_rewrite_count_needs_key():
    with pytest.raises(NormalizeError):
        normalize_query(parse_sql("SELECT COUNT(*) FROM t"), SCHEMA)


def test_rewrite_inner_join_lossless():
    variants = normalize_query(parse_sql("SELECT * FROM t INNER JOIN u ON t.a = u.a"), SCHEMA)
    assert len(variants) == 1
    v = variants[0]
    assert v.lossless
    assert v.nf.sources == ("t", "u")
    # semantics: same rows as the filtered cross product
    inst = instance(t=rows((1, 2), (5, None)), u=rows((0, 1, 1), (1, 5, 0)))
    got = eval_nf(v.nf, inst, SCHEMA)
    expect = {
        r1 + r2 for r1 in inst.tables["t"] for r2 in inst.tables["u"] if r1[0] == r2[1]
    }
    assert got == frozenset(expect)


def test_rewrite_left_join_splits():
    ast = parse_sql("SELECT t.a, u.id FROM t LEFT JOIN u ON t.a = u.a")
    variants = normalize_query(ast, SCHEMA)
    assert [v.tag for v in variants] == ["inner", "left_only"]
    inner, left_only = variants
    assert not inner.lossless and not left_only.lossless
    assert left_only.nf.sources == ("t",)
    assert left_only.result_map == (0, None)


def test_rewrite_left_join_null_rejecting_where_is_inner():
    ast = parse_sql("SELECT t.a FROM t LEFT JOIN u ON t.a = u.a WHERE u.flag")
    variants = normalize_query(ast, SCHEMA)
    assert len(variants) == 1 and variants[0].lossless


def test_existence_left_join_splits_unless_where_rejects_nulls():
    variants = normalize_query(parse_sql("SELECT 1 FROM t LEFT JOIN u ON t.a = u.a LIMIT 1"), SCHEMA)
    assert [v.tag for v in variants] == ["inner", "left_only"]
    inner, left_only = variants
    assert inner.nf.sources == ("t", "u") and inner.nf.projection == ()
    assert left_only.nf == NormalFormQuery((), TRUE, ("t",))
    variants = normalize_query(
        parse_sql("SELECT 1 FROM t LEFT JOIN u ON t.a = u.a WHERE u.flag LIMIT 1"), SCHEMA
    )
    assert len(variants) == 1 and variants[0].lossless
    assert variants[0].nf.sources == ("t", "u")


# Each case: (predicate, folded result) under "NullLit and Col(1) are NULL",
# which covers both callers' null tests (policy-gen's NullLit operands and
# the LEFT JOIN rewrite's right-side columns).
_A0 = Cmp("=", Col(0), IntLit(1))
FOLD_CASES = {
    "true": [(TRUE, True)],
    "cmp": [(Cmp("<", Col(0), Col(1)), False), (Cmp("=", NullLit(), IntLit(1)), False), (_A0, _A0)],
    "boolcol": [(BoolCol(Col(1)), False), (BoolCol(NullLit()), False), (BoolCol(Col(0)), BoolCol(Col(0)))],
    "isnull": [(IsNull(Col(1)), True), (IsNull(NullLit()), True), (IsNull(Col(0)), IsNull(Col(0)))],
    "not": [(Not(IsNull(Col(1))), False), (Not(BoolCol(Col(1))), True), (Not(_A0), Not(_A0))],
    "and": [
        (And(IsNull(Col(1)), _A0), _A0),
        (And(_A0, IsNull(NullLit())), _A0),
        (And(_A0, BoolCol(NullLit())), False),
        (And(IsNull(Col(1)), Not(BoolCol(Col(1)))), True),
        (And(_A0, BoolCol(Col(0))), And(_A0, BoolCol(Col(0)))),
    ],
}


@pytest.mark.parametrize("node", sorted(FOLD_CASES))
def test_fold_nulls(node):
    def is_null(t):
        return isinstance(t, NullLit) or t == Col(1)

    for pred, want in FOLD_CASES[node]:
        assert fold_nulls(pred, is_null) == want, pred


# ---------------------------------------------------------------------------
# Unparse and its cleanups


def test_unparse_full_table():
    nf = to_normal_form(parse_sql("SELECT * FROM t"), SCHEMA)
    assert unparse_view(nf, SCHEMA) == "SELECT * FROM t"


def test_unparse_view_rejects_placeholders():
    from polex.unparse import UnparseError

    nf = to_normal_form(parse_sql("SELECT * FROM t WHERE a = ?"), SCHEMA)
    with pytest.raises(UnparseError):
        unparse_view(nf, SCHEMA)


def test_unparse_self_join_on_unique_key_collapses():
    nf = to_normal_form(
        parse_sql(
            "SELECT * FROM u u1, u u2 WHERE u1.id = u2.id AND u1.flag"
        ),
        SCHEMA,
    )
    text = unparse_view(nf, SCHEMA)
    assert text == "SELECT * FROM u\nWHERE flag"


def test_unparse_self_join_on_a_nullable_unique_column_keeps_both_copies():
    schema = parse_schema("table t { id int unique  k int nullable unique  x int }")
    nf = to_normal_form(parse_sql("SELECT t.k, t_2.x, t.id FROM t, t t_2 WHERE t_2.k = t.k"), schema)
    text = unparse_view(nf, schema)
    assert text == "SELECT t.k, t_2.x, t.id FROM t, t t_2\nWHERE t_2.k = t.k"
    assert to_normal_form(parse_sql(text), schema) == nf


def test_self_join_collapse_is_information_equivalent():
    # Each rewrites the other, so they are equivalent at every bound.
    from polex.pruner import is_allowed
    from polex.sqlparser import parse_sql as p

    nf = to_normal_form(
        p("SELECT * FROM u u1, u u2 WHERE u1.id = u2.id AND u1.a = MyUserId"), SCHEMA
    )
    collapsed = to_normal_form(p(unparse_view(nf, SCHEMA).replace(";", "")), SCHEMA)
    from polex.constraints import expand_all, generate_constraints

    cons = expand_all(generate_constraints(SCHEMA), SCHEMA)
    assert is_allowed(nf, [collapsed], SCHEMA, cons).allowed
    assert is_allowed(collapsed, [nf], SCHEMA, cons).allowed


def test_unparse_reparses():
    nf = to_normal_form(
        parse_sql("SELECT u.id, t.a FROM t, u WHERE t.a = u.a AND u.flag AND t.b IS NOT NULL"),
        SCHEMA,
    )
    text = unparse_view(nf, SCHEMA)
    again = to_normal_form(parse_sql(text), SCHEMA)
    assert again == nf


def test_unparse_existence_form():
    variants = normalize_query(parse_sql("SELECT 1 FROM t WHERE a = MyUserId LIMIT 1"), SCHEMA)
    text = unparse_view(variants[0].nf, SCHEMA)
    assert text.startswith("SELECT 1 FROM t") and text.endswith("LIMIT 1")
    reparsed = normalize_query(parse_sql(text), SCHEMA)
    assert reparsed[0].nf == variants[0].nf


# ---------------------------------------------------------------------------
# Round-trip property: unparse(to_normal_form(parse(t))) is semantically
# equal to t on every bounded instance.

_ATOMS = st.sampled_from(
    [
        "t.a = u.a",
        "t.b IS NULL",
        "t.b IS NOT NULL",
        "u.flag",
        "NOT u.flag",
        "t.a = 1",
        "u.a <> 2",
        "t.a < u.id",
        "u.id >= MyUserId",
        "t.a = MyUserId",
        "NOT t.a = u.id",
    ]
)

_SELECTS = st.sampled_from(["*", "t.*", "u.*", "t.a, u.id", "u.flag, t.b, t.a"])


@st.composite
def sql_texts(draw):
    select = draw(_SELECTS)
    n_atoms = draw(st.integers(0, 3))
    atoms = [draw(_ATOMS) for _ in range(n_atoms)]
    sql = f"SELECT {select} FROM t, u"
    if atoms:
        sql += " WHERE " + " AND ".join(atoms)
    return sql


def _small_instances():
    t_rows = [(0, None), (1, 2)]
    u_rows = [(0, 0, 1), (1, 1, 0)]
    out = []
    for nt in range(3):
        for nu in range(3):
            out.append(
                instance(t=tuple(t_rows[:nt]), u=tuple(u_rows[:nu]))
            )
    return out


@settings(max_examples=60, deadline=None)
@given(sql_texts(), st.integers(0, 2))
def test_round_trip_semantics(sql, my_user):
    nf = to_normal_form(parse_sql(sql), SCHEMA)
    text = unparse_nf(nf, SCHEMA)
    nf2 = to_normal_form(parse_sql(text), SCHEMA)
    env = ScalarEnv(session={"MyUserId": my_user, "Now": 0})
    for inst in _small_instances():
        assert eval_nf(nf, inst, SCHEMA, env) == eval_nf(nf2, inst, SCHEMA, env)


def _existence(sql: str) -> str:
    return "SELECT 1" + sql[sql.index(" FROM"):] + " LIMIT 1"


@settings(max_examples=40, deadline=None)
@given(sql_texts())
def test_lossless_rewrites_preserve_results(sql):
    # PSJ passthrough is trivially lossless; exercise the join rewrite too,
    # in the plain and the existence form, whose WHERE may name `u` too.
    join_sql = sql.replace("FROM t, u", "FROM t INNER JOIN u ON t.a = u.a", 1)
    plain_sql = sql + (" AND t.a = u.a" if "WHERE" in sql else " WHERE t.a = u.a")
    env = ScalarEnv(session={"MyUserId": 1, "Now": 0})
    for joined, plain_text in ((join_sql, plain_sql), (_existence(join_sql), _existence(plain_sql))):
        variants = normalize_query(parse_sql(joined), SCHEMA)
        assert len(variants) == 1 and variants[0].lossless
        nf = variants[0].nf
        (plain,) = normalize_query(parse_sql(plain_text), SCHEMA)
        for inst in _small_instances():
            assert eval_nf(nf, inst, SCHEMA, env) == eval_nf(plain.nf, inst, SCHEMA, env), joined


def test_check_nf_bounds():
    with pytest.raises(NormalizeError):
        check_nf(NormalFormQuery((5,), TRUE, ("t",)), SCHEMA)


def test_composite_unique_key_self_join_collapses(grade_schema):
    nf = to_normal_form(
        parse_sql(
            "SELECT * FROM roles r1, roles r2"
            " WHERE r1.user_id = r2.user_id AND r1.course_id = r2.course_id"
            " AND r1.user_id = MyUserId"
        ),
        grade_schema,
    )
    text = unparse_view(nf, grade_schema)
    assert text == "SELECT * FROM roles\nWHERE user_id = MyUserId"
    # information-equivalence of the collapse, by a rewriting each way
    from polex.constraints import expand_all, generate_constraints
    from polex.pruner import is_allowed

    cons = expand_all(generate_constraints(grade_schema), grade_schema)
    collapsed = to_normal_form(parse_sql(text), grade_schema)
    assert is_allowed(nf, [collapsed], grade_schema, cons).allowed
    assert is_allowed(collapsed, [nf], grade_schema, cons).allowed
