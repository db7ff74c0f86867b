from __future__ import annotations

import random

import pytest

from polex import solver
from polex.constraints import expand_all, generate_constraints
from polex.fdsolver import CdclBackend, CheckResult
from polex.normal import to_normal_form
from polex.policygen import View
from polex.pruner import (
    ALLOWED,
    DETERMINED,
    NO_REWRITING,
    NOT_ALLOWED,
    Policy,
    broaden,
    counterexample,
    is_allowed,
    merge_and_prune,
    prune,
    _verify_counterexample,
)
from polex.schema import parse_schema
from polex.sqlparser import parse_sql

import full_bound
from conftest import decide, determinacy
from oracle import BruteForceDeterminacy


def nf(sql, schema):
    return to_normal_form(parse_sql(sql), schema)


@pytest.fixture(scope="module")
def listing_policy(grade_schema):
    v1 = nf("SELECT * FROM roles WHERE user_id = MyUserId", grade_schema)
    v2 = nf(
        "SELECT grades.* FROM roles, grades WHERE roles.user_id = MyUserId"
        " AND roles.is_instructor AND grades.course_id = roles.course_id",
        grade_schema,
    )
    vstar = nf(
        "SELECT * FROM roles, grades WHERE roles.user_id = MyUserId"
        " AND roles.is_instructor AND grades.course_id = roles.course_id",
        grade_schema,
    )
    return v1, v2, vstar


def test_extracted_view_allowed_under_handwritten_policy(grade_schema, grade_constraints, listing_policy):
    v1, v2, vstar = listing_policy
    assert is_allowed(vstar, [v1, v2], grade_schema, grade_constraints).status == ALLOWED


def test_identity_is_allowed(grade_schema, grade_constraints, listing_policy):
    v1, _, _ = listing_policy
    assert is_allowed(v1, [v1], grade_schema, grade_constraints).status == ALLOWED


def test_independent_column_not_allowed_with_verified_pair():
    schema = parse_schema("table t { a int  b int }")
    cons = expand_all(generate_constraints(schema), schema)
    qa = nf("SELECT a FROM t", schema)
    qb = nf("SELECT b FROM t", schema)
    assert is_allowed(qa, [qb], schema, cons).status == NO_REWRITING
    verdict = counterexample(qa, [qb], determinacy(schema, cons, bound=1, value_range=(0, 1)))
    assert verdict.status == NOT_ALLOWED
    ca, cb = verdict.counterexample
    # the pair is pre-verified inside counterexample; sanity-check shape here
    assert ca.tables["t"] != cb.tables["t"]


def _two_rows_needed():
    """`SELECT a, b FROM t` against its two projections: one row is
    determined by them, two rows are not ({(0, 1), (1, 0)} against
    {(0, 0), (1, 1)})."""
    schema = parse_schema("table t { a int  b int }")
    cons = expand_all(generate_constraints(schema), schema)
    q = nf("SELECT a, b FROM t", schema)
    views = [nf("SELECT a FROM t", schema), nf("SELECT b FROM t", schema)]
    return schema, cons, q, views


def _record_bounds(monkeypatch):
    """Route `solver.bounded` through a recorder of each context's bound."""
    bounds = []
    original = solver.bounded

    def recorded(schema, constraints, bound, *args, **kwargs):
        bounds.append(bound)
        return original(schema, constraints, bound, *args, **kwargs)

    monkeypatch.setattr(solver, "bounded", recorded)
    return bounds


def test_counterexample_needing_two_rows_comes_from_the_full_bound(monkeypatch):
    schema, cons, q, views = _two_rows_needed()
    for bound, allowed in ((1, True), (2, False)):
        assert BruteForceDeterminacy(schema, cons, bound, (0, 1)).is_allowed(q, views)[0] == allowed
    assert is_allowed(q, views, schema, cons).status == NO_REWRITING
    assert counterexample(q, views, determinacy(schema, cons, 1, (0, 1), None)).status == DETERMINED
    verdict = counterexample(q, views, determinacy(schema, cons, 2, (0, 1), None))
    full_bound.only(monkeypatch)
    full = counterexample(q, views, determinacy(schema, cons, 2, (0, 1), None))
    assert verdict.status == NOT_ALLOWED and verdict == full
    assert max(len(ci.tables["t"]) for ci in verdict.counterexample) == 2


def test_unknown_at_bound_1_leaves_the_verdict_to_the_full_bound(monkeypatch):
    schema, cons, _, (a, b) = _two_rows_needed()
    bounds = _record_bounds(monkeypatch)
    original = CdclBackend.check

    def unknown_at_bound_1(*args, **kwargs):
        return CheckResult("unknown") if bounds[-1] == 1 else original(*args, **kwargs)

    monkeypatch.setattr(CdclBackend, "check", unknown_at_bound_1)
    # Not allowed at bound 1 already; determined, as the union of two views.
    split = parse_schema("table t { a int  f bool }")
    split_cons = expand_all(generate_constraints(split), split)
    union = [nf("SELECT * FROM t WHERE f", split), nf("SELECT * FROM t WHERE NOT f", split)]
    for query, over, s, c, want in ((a, [b], schema, cons, NOT_ALLOWED),
                                    (nf("SELECT * FROM t", split), union, split, split_cons, DETERMINED)):
        del bounds[:]
        verdict = counterexample(query, over, determinacy(s, c, 2, (0, 1), None))
        assert bounds == [1, 2] and verdict.status == want
        with pytest.MonkeyPatch.context() as mp:
            full_bound.only(mp)
            assert verdict == counterexample(query, over, determinacy(s, c, 2, (0, 1), None))


def test_prune_removes_projection_subsumed_view():
    schema = parse_schema("table t { a int  b int }")
    cons = expand_all(generate_constraints(schema), schema)
    policy = Policy([View(nf("SELECT * FROM t", schema)), View(nf("SELECT a FROM t", schema))],
                    bound=2, value_range=(0, 2))
    pruned, removed = prune(policy, cons, schema)
    assert [len(v.nf.projection) for v in pruned.views] == [2]
    assert len(removed) == 1


def test_prune_keeps_non_redundant_policy(grade_schema, grade_constraints, listing_policy):
    v1, v2, _ = listing_policy
    policy = Policy([View(v1), View(v2)], bound=2, value_range=(0, 3))
    pruned, removed = prune(policy, grade_constraints, grade_schema)
    assert removed == []
    assert pruned.views == policy.views


def test_prune_soundness(grade_schema, grade_constraints, listing_policy):
    v1, v2, vstar = listing_policy
    policy = Policy([View(v1), View(v2), View(vstar)], bound=2, value_range=(0, 3))
    pruned, removed = prune(policy, grade_constraints, grade_schema)
    for v in removed:
        assert is_allowed(v.nf, [w.nf for w in pruned.views], grade_schema, grade_constraints).status == ALLOWED


def test_merge_and_prune_dedups():
    schema = parse_schema("table t { a int  b int }")
    cons = expand_all(generate_constraints(schema), schema)
    v = View(nf("SELECT * FROM t", schema))
    merged, _ = merge_and_prune(
        [Policy([v], 2, (0, 2)), Policy([View(nf("SELECT * FROM t", schema))], 2, (0, 2))],
        cons, schema,
    )
    assert len(merged.views) == 1


def test_merge_disjoint_policies_concatenates():
    schema = parse_schema("table t { a int }\ntable u { x int }")
    cons = expand_all(generate_constraints(schema), schema)
    p1 = Policy([View(nf("SELECT * FROM t", schema))], 2, (0, 2))
    p2 = Policy([View(nf("SELECT * FROM u", schema))], 2, (0, 2))
    merged, removed = merge_and_prune([p1, p2], cons, schema)
    assert len(merged.views) == 2 and removed == []


def test_merge_shared_view_policies(grade_schema, grade_constraints, listing_policy):
    v1, _, vstar = listing_policy
    per_handler = Policy([View(v1), View(vstar)], 2, (0, 3))
    other = Policy([View(v1)], 2, (0, 3))
    merged, _ = merge_and_prune([per_handler, other], grade_constraints, grade_schema)
    assert len(merged.views) == 2  # the broad join view is not redundant


def test_broaden_pins_added_views():
    schema = parse_schema("table t { a int  b int  flag bool }")
    cons = expand_all(generate_constraints(schema), schema)
    narrow = Policy([View(nf("SELECT * FROM t WHERE flag AND a = MyUserId", schema))], 2, (0, 2))
    wide = View(nf("SELECT * FROM t WHERE flag", schema))
    out, report = broaden(narrow, [wide], cons, schema)
    texts = {v.nf for v in out.views}
    assert wide.nf in texts
    assert narrow.views[0].nf not in texts
    assert report.removed and report.removed[0][1] == [0]


def test_broaden_with_already_implied_view_changes_nothing_else():
    schema = parse_schema("table t { a int  b int }")
    cons = expand_all(generate_constraints(schema), schema)
    base = Policy([View(nf("SELECT * FROM t", schema))], 2, (0, 2))
    added = View(nf("SELECT a FROM t", schema))
    out, report = broaden(base, [added], cons, schema)
    assert {v.nf for v in out.views} == {base.views[0].nf, added.nf}
    assert report.removed == []


def test_broaden_unrelated_table_no_removals():
    schema = parse_schema("table t { a int }\ntable u { x int }")
    cons = expand_all(generate_constraints(schema), schema)
    base = Policy([View(nf("SELECT * FROM t", schema))], 2, (0, 2))
    out, report = broaden(base, [View(nf("SELECT * FROM u", schema))], cons, schema)
    assert len(out.views) == 2 and report.removed == []


def test_broaden_monotonicity(grade_schema, grade_constraints, listing_policy):
    v1, v2, vstar = listing_policy
    base = Policy([View(v1), View(vstar)], 2, (0, 3))
    wide = View(nf("SELECT * FROM grades", grade_schema))
    out, _ = broaden(base, [wide], grade_constraints, grade_schema)
    for v in (v1, vstar):
        assert is_allowed(v, [w.nf for w in out.views], grade_schema, grade_constraints).status == ALLOWED


def test_a_view_determined_without_a_rewriting_is_kept(toys_schema, toys_constraints):
    # At value range 0:0 every category is 0, so the ids, which say whether
    # an items row exists, determine the categories; at 0:1 they do not.
    # No rewriting exists, so prune and broaden keep the view.
    category, ids = nf("SELECT category FROM items", toys_schema), nf("SELECT id FROM items", toys_schema)
    assert is_allowed(category, [ids], toys_schema, toys_constraints).status == NO_REWRITING
    for value_range, want in (((0, 0), DETERMINED), ((0, 1), NOT_ALLOWED)):
        question = determinacy(toys_schema, toys_constraints, 1, value_range, None)
        assert counterexample(category, [ids], question).status == want
    policy = Policy([View(category), View(ids)], 1, (0, 0))
    assert prune(policy, toys_constraints, toys_schema) == (policy, [])
    out, report = broaden(Policy([View(category)], 1, (0, 0)), [View(ids)], toys_constraints, toys_schema)
    assert out.views == [View(category), View(ids)] and report.removed == []


# ---------------------------------------------------------------------------
# Randomized agreement with the exhaustive oracle


def random_schema(rng: random.Random):
    """A schema of one to three small tables, and the bound to check it at."""
    n_tables = rng.choice([1, 1, 1, 2, 2, 3])
    bound = 1 if n_tables == 3 else rng.choice([1, 2])
    lines = []
    for i in range(n_tables):
        cols = []
        for j in range(rng.randint(1, 2)):
            ctype = rng.choice(["int", "int", "int", "bool"])
            attrs = ""
            if ctype == "int" and rng.random() < 0.25:
                attrs += " unique"
            elif rng.random() < 0.2:
                attrs = " nullable"
            cols.append(f"c{j} {ctype}{attrs}")
        lines.append(f"table t{i} {{ {'  '.join(cols)} }}")
    return parse_schema("\n".join(lines)), bound


def random_query(rng: random.Random, schema):
    t = rng.choice(schema.tables)
    arity = t.arity
    proj = tuple(sorted(rng.sample(range(arity), rng.randint(1, arity))))
    atoms = []
    for j, col in enumerate(t.columns):
        r = rng.random()
        if r < 0.18 and col.type == "int":
            atoms.append(f"c{j} = MyUserId")
        elif r < 0.28 and col.type == "int":
            atoms.append(f"c{j} = {rng.randint(0, 2)}")
        elif r < 0.36 and col.type == "bool":
            atoms.append(f"c{j}")
        elif r < 0.42 and col.nullable:
            atoms.append(f"c{j} IS NULL")
    sql = "SELECT " + ", ".join(f"c{k}" for k in proj) + f" FROM {t.name}"
    if atoms:
        sql += " WHERE " + " AND ".join(atoms)
    return nf(sql, schema)


def random_case(rng: random.Random):
    schema, bound = random_schema(rng)
    constraints = expand_all(generate_constraints(schema), schema)
    views = [random_query(rng, schema) for _ in range(rng.randint(0, 2))]
    q = random_query(rng, schema)
    return schema, constraints, bound, views, q


@pytest.mark.parametrize("seed", [1, 2])
def test_is_allowed_agrees_with_exhaustive_oracle(seed):
    rng = random.Random(seed)
    domain = (0, 1, 2)
    unknowns = 0
    for case in range(30):
        schema, constraints, bound, views, q = random_case(rng)
        oracle = BruteForceDeterminacy(schema, constraints, bound, domain)
        want, _ = oracle.is_allowed(q, views)
        verdict = decide(q, views, determinacy(schema, constraints, bound, (0, 2)))
        if verdict.status == "unknown":
            unknowns += 1
            continue
        got = verdict.status in (ALLOWED, DETERMINED)
        assert got == want, f"case {case}: solver={verdict.status} oracle_allowed={want}"
    assert unknowns == 0


@pytest.mark.parametrize("seed", [1, 2])
def test_counterexample_has_one_row_per_table_when_bound_1_has_one(seed):
    rng = random.Random(seed)
    small = 0
    for case in range(30):
        schema, constraints, _, views, q = random_case(rng)
        if BruteForceDeterminacy(schema, constraints, 1, (0, 1, 2)).is_allowed(q, views)[0]:
            continue
        small += 1
        verdict = decide(q, views, determinacy(schema, constraints, 2, (0, 2), None))
        assert verdict.status == NOT_ALLOWED, f"case {case}"
        for ci in verdict.counterexample:
            assert all(len(rows) <= 1 for rows in ci.tables.values()), f"case {case}: {ci.tables}"
    assert small >= 10


def test_one_determinacy_search_answers_many_pairs_like_the_oracle():
    # Many pairs asked on one two-copy `Question`: what its searches learnt
    # from earlier pairs must never change an answer.
    rng = random.Random(31)
    statuses = []
    for _ in range(8):
        schema, bound = random_schema(rng)
        constraints = expand_all(generate_constraints(schema), schema)
        oracle = BruteForceDeterminacy(schema, constraints, bound, (0, 1, 2))
        shared = determinacy(schema, constraints, bound, (0, 2), None)
        for _ in range(6):
            q = random_query(rng, schema)
            views = [random_query(rng, schema) for _ in range(rng.randint(0, 3))]
            verdict = counterexample(q, views, shared)
            assert (verdict.status == DETERMINED) == oracle.is_allowed(q, views)[0]
            fresh = counterexample(q, views, determinacy(schema, constraints, bound, (0, 2), None))
            assert verdict.status == fresh.status
            if verdict.status == NOT_ALLOWED:
                _verify_counterexample(q, views, schema, *verdict.counterexample)
            statuses.append(verdict.status)
    assert statuses.count(DETERMINED) >= 10 and statuses.count(NOT_ALLOWED) >= 10, statuses
