from __future__ import annotations

import itertools
import random
import re
import weakref
from pathlib import Path

import pytest

from polex import fdsolver, solver
from polex.constraints import FixedValue, RangeError, expand_all, generate_constraints, validate_instance
from polex.dsl import parse_handlers
from polex.evaluate import ScalarEnv, eval_executable, eval_nf
from polex.explorer import ExplorationConfig, explore
from polex.fdsolver import CdclBackend, CheckResult, VarPool, bvar, eval_formula, land, lnot, lor
from polex.normal import NormalFormQuery, to_executable
from polex.policygen import simplify, to_conditioned_queries, views_from_cqs
from polex.pruner import counterexample, is_allowed
from polex.rundir import load_policy_file
from polex.schema import parse_schema
from polex.solver import (
    SymEnv,
    bounded,
    encode_instance,
    encode_query,
    model_to_input,
)
from polex.sqlparser import parse_sql
from polex.terms import BoolCol, Cmp, Col, IntLit, IsNull, Not, RowCol, SessionParam, TRUE, conjoin

import full_bound

SCHEMA = parse_schema(
    """
table courses { id int unique }
table roles {
  user_id int
  course_id int fk courses.id
  is_instructor bool
  note int nullable
}
"""
)
CONSTRAINTS = expand_all(generate_constraints(SCHEMA), SCHEMA)
RANGE = (0, 3)


def check(pool, formulas, timeout_s=5.0):
    """One check on a search of its own."""
    return CdclBackend(pool).check(formulas, timeout_s)


def fresh_context(constraints=CONSTRAINTS, bound=2):
    pool, (inst,), env = bounded(SCHEMA, constraints, bound, RANGE)
    return pool, inst, env


def _row_symbols(inst) -> set[int]:
    return {
        v
        for rows in inst.tables.values()
        for row in rows
        for v in (row.presence, *row.values, *row.nulls)
        if v is not None
    }


def _vids(f) -> set[int]:
    if f[0] in ("bv", "v"):
        return {f[1]}
    if f[0] == "not":
        return _vids(f[1])
    if f[0] in ("and", "or"):
        return set().union(*map(_vids, f[1]))
    if f[0] == "cmp":
        return _vids(f[2]) | _vids(f[3])
    return set()


def test_bounded_instances_share_session_and_request_symbols():
    params = [("Flag", "bool"), ("MyUserId", "int"), ("CourseId", "int")]
    pool, (a, b), env = bounded(SCHEMA, CONSTRAINTS, 2, RANGE, params, copies=2)
    rows_a, rows_b = _row_symbols(a), _row_symbols(b)
    assert rows_a and rows_b and not rows_a & rows_b
    # Every symbol is a row's or one parameter's: MyUserId and Now have one each.
    assert len(pool) == len(rows_a) + len(rows_b) + len(env.params)
    assert list(env.params) == ["MyUserId", "Now", "Flag", "CourseId"]
    assert pool.domains[env.params["Flag"]] == (0, 1)
    assert pool.domains[env.params["CourseId"]] == RANGE
    # Instances first, then parameters: the explorer's variable numbering.
    assert max(rows_a | rows_b) < min(env.params.values())
    assert sorted(env.params.values()) == list(range(len(pool) - 4, len(pool)))
    # The base asserts each instance's formulas, in instance order, each
    # over its own instance's symbols only.
    formulas = pool.base.comp.formulas
    shared = VarPool()
    one_a = encode_instance(SCHEMA, CONSTRAINTS, 2, shared, RANGE)[1]
    one_b = encode_instance(SCHEMA, CONSTRAINTS, 2, shared, RANGE)[1]
    assert len(one_a) == len(one_b) == len(CONSTRAINTS) + len(SCHEMA.tables)
    assert formulas == one_a + one_b
    assert all(_vids(f) <= rows_a for f in formulas[: len(one_a)])
    assert all(_vids(f) <= rows_b for f in formulas[len(one_a) :])


def test_symbol_counts():
    pool = VarPool()
    schema = parse_schema("table t { a int  b int }")
    inst, _ = encode_instance(schema, [], 2, pool, RANGE)
    rows = inst.tables["t"]
    assert len(rows) == 2
    assert len([v for r in rows for v in r.values]) == 4
    assert all(n is None for r in rows for n in r.nulls)


def test_unique_constraint_formula():
    pool, inst, env = fresh_context()
    # courses.id is unique: no model may present two rows with equal ids.
    id0 = inst.tables["courses"][0]
    id1 = inst.tables["courses"][1]
    from polex.fdsolver import bvar, feq, ivar, land

    both_equal = land(
        bvar(id0.presence), bvar(id1.presence), feq(ivar(id0.values[0]), ivar(id1.values[0]))
    )
    verdict = check(pool, [both_equal])
    assert verdict.status == "unsat"


def test_fk_containment_models_validate():
    # Every model found under the constraints materializes into an input
    # that passes brute-force validation.
    pool, inst, env = fresh_context()
    from polex.fdsolver import bvar

    formulas = []
    roles_present = bvar(inst.tables["roles"][0].presence)
    for extra in range(4):
        verdict = check(pool, formulas + [roles_present])
        assert verdict.status == "sat"
        ci = model_to_input(verdict.model, inst, SCHEMA, env)
        ok, why = validate_instance(ci, CONSTRAINTS, SCHEMA)
        assert ok, why
        # ban this exact model's course ids to get a different one next time
        row = inst.tables["courses"][0]
        formulas.append(lnot(("cmp", "=", ("v", row.values[0]), ("c", verdict.model[row.values[0]]))))


def test_nonempty_is_two_way_disjunction():
    pool, inst, env = fresh_context(constraints=[])
    nf = NormalFormQuery((0, 1, 2, 3), TRUE, ("roles",))
    enc = encode_query(nf, (), inst, SCHEMA, env)
    # nonEmpty holds iff some roles row is present.
    from polex.fdsolver import bvar, land

    none_present = land(
        lnot(bvar(inst.tables["roles"][0].presence)),
        lnot(bvar(inst.tables["roles"][1].presence)),
    )
    assert check(pool, [enc.non_empty, none_present]).status == "unsat"
    assert check(pool, [enc.non_empty]).status == "sat"


def test_query_over_absent_rows_unsat():
    pool, inst, env = fresh_context(constraints=[])
    from polex.fdsolver import bvar

    nf = NormalFormQuery((0,), TRUE, ("courses",))
    enc = encode_query(nf, (), inst, SCHEMA, env)
    hard = [lnot(bvar(r.presence)) for r in inst.tables["courses"]]
    assert check(pool, hard + [enc.non_empty]).status == "unsat"


def test_tautological_filter_nonempty_iff_row_present():
    pool, inst, env = fresh_context(constraints=[])
    nf = NormalFormQuery((0,), Cmp("=", Col(0), Col(0)), ("courses",))
    enc = encode_query(nf, (), inst, SCHEMA, env)
    from polex.fdsolver import bvar, lor

    some_present = lor(*[bvar(r.presence) for r in inst.tables["courses"]])
    # nonEmpty <-> some row present: both directions unsat when negated.
    assert check(pool, [enc.non_empty, lnot(some_present)]).status == "unsat"
    assert check(pool, [lnot(enc.non_empty), some_present]).status == "unsat"


def test_check_examples():
    pool = VarPool()
    x = pool.new_int(0, 7)
    from polex.fdsolver import feq, ivar, const

    v = check(pool, [feq(ivar(x), const(1)), feq(ivar(x), const(2))])
    assert v.status == "unsat"
    v = check(pool, [feq(ivar(x), const(1))])
    assert v.status == "sat" and v.model[x] == 1


def test_model_to_input_empty_and_nulls():
    pool, inst, env = fresh_context(constraints=[])
    from polex.fdsolver import bvar

    # all rows absent -> empty database
    hard = [lnot(bvar(r.presence)) for rows in inst.tables.values() for r in rows]
    v = check(pool, hard)
    ci = model_to_input(v.model, inst, SCHEMA, env)
    assert all(rows == () for rows in ci.tables.values())

    # force a roles row with a null note
    pool, inst, env = fresh_context(constraints=[])
    row = inst.tables["roles"][0]
    hard = [bvar(row.presence), bvar(row.nulls[3])]
    v = check(pool, hard)
    ci = model_to_input(v.model, inst, SCHEMA, env)
    assert ci.tables["roles"][0][3] is None


def _random_nf(rng):
    sources = tuple(rng.choice(["courses", "roles"]) for _ in range(rng.randint(1, 2)))
    arity = sum(SCHEMA.table(s).arity for s in sources)
    proj = tuple(rng.sample(range(arity), rng.randint(0, arity)))
    atoms = []
    for _ in range(rng.randint(0, 3)):
        a = Col(rng.randrange(arity))
        c = rng.random()
        if c < 0.5:
            b = rng.choice([Col(rng.randrange(arity)), IntLit(rng.randint(0, 2)), SessionParam("MyUserId")])
            atoms.append(Cmp(rng.choice(["=", "<>", "<", "<="]), a, b))
        elif c < 0.75:
            atoms.append(IsNull(a))
        else:
            atoms.append(Not(IsNull(a)))
    return NormalFormQuery(proj, conjoin(atoms), sources)


def test_encoding_agrees_with_evaluator_on_random_queries():
    """Soundness: on every model, brute-force evaluation of the encoded query
    agrees with the model's nonEmpty and with the result row, read from the
    one candidate row whose guard holds."""
    rng = random.Random(4242)
    checked = 0
    for _ in range(120):
        nf = _random_nf(rng)
        pool, inst, env = fresh_context()
        enc = encode_query(nf, (), inst, SCHEMA, env)
        want_nonempty = rng.random() < 0.7
        path = enc.non_empty if want_nonempty else lnot(enc.non_empty)
        verdict = check(pool, [path, enc.at_most_one])
        if verdict.status != "sat":
            continue
        checked += 1
        ci = model_to_input(verdict.model, inst, SCHEMA, env)
        senv = ScalarEnv(session=ci.session, request=ci.request)
        rows = eval_nf(nf, ci, SCHEMA, senv)
        assert (len(rows) > 0) == want_nonempty
        assert len(rows) <= 1  # at-most-one was asserted
        if rows:
            row = next(iter(rows))
            for i, alts in enumerate(enc.result):
                held = [(t, n) for g, t, n in alts if eval_formula(g, verdict.model)]
                assert len(held) == 1  # exactly one candidate row's guard holds
                term, null_f = held[0]
                is_null = eval_formula(null_f, verdict.model)
                value = None if is_null else (term[1] if term[0] == "c" else verdict.model[term[1]])
                assert row[i] == value
    assert checked > 60


def test_left_join_encoding_agrees_with_evaluator():
    schema = parse_schema(
        "table a { id int unique  x int }\ntable b { a_id int fk a.id  y int }"
    )
    cons = expand_all(generate_constraints(schema), schema)
    exe = to_executable(
        parse_sql("SELECT a.id, b.y FROM a LEFT JOIN b ON a.id = b.a_id WHERE a.x = ?"), schema
    )
    rng = random.Random(11)
    checked_nonempty = 0
    for trial in range(60):
        pool = VarPool()
        inst, formulas = encode_instance(schema, cons, 2, pool, RANGE)
        env = SymEnv({name: pool.new_int(*RANGE) for name in ("MyUserId", "Now")})
        enc = encode_query(exe, (SessionParam("MyUserId"),), inst, schema, env)
        want = rng.random() < 0.75
        path = enc.non_empty if want else lnot(enc.non_empty)
        extra = []
        if rng.random() < 0.5:
            from polex.fdsolver import bvar

            extra.append(bvar(inst.tables["b"][0].presence))
        verdict = check(pool, formulas + extra + [path, enc.at_most_one])
        if verdict.status != "sat":
            continue
        ci = model_to_input(verdict.model, inst, schema, env)
        senv = ScalarEnv(session=ci.session)
        senv.placeholders = (ci.session["MyUserId"],)
        rows = eval_executable(exe, ci, schema, senv)
        assert (len(rows) > 0) == want
        assert len(rows) <= 1
        if rows:
            checked_nonempty += 1
            row = next(iter(rows))
            for i, alts in enumerate(enc.result):
                held = [(t, n) for g, t, n in alts if eval_formula(g, verdict.model)]
                assert len(held) == 1  # exactly one candidate row's guard holds
                term, null_f = held[0]
                is_null = eval_formula(null_f, verdict.model)
                value = None if is_null else (term[1] if term[0] == "c" else verdict.model[term[1]])
                assert row[i] == value
    assert checked_nonempty > 10


def test_count_query_never_empty():
    exe = to_executable(parse_sql("SELECT COUNT(*) FROM courses"), SCHEMA)
    pool, inst, env = fresh_context()
    enc = encode_query(exe, (), inst, SCHEMA, env)
    assert check(pool, [lnot(enc.non_empty)]).status == "unsat"


# ---------------------------------------------------------------------------
# The compiled base of a bounded context


def _own_formulas(rng, insts, env):
    """A seeded check's own formulas: one random query per instance, each
    asserted empty or non-empty and at most one row."""
    own = []
    for inst in insts:
        enc = encode_query(_random_nf(rng), (), inst, SCHEMA, env)
        own += [enc.non_empty if rng.random() < 0.7 else lnot(enc.non_empty), enc.at_most_one]
    return own


def test_forked_checks_agree_with_a_fresh_full_compile():
    rng = random.Random(909)
    statuses = []
    for bound in (1, 2, 3):
        for copies in (1, 2):
            for _ in range(6):
                pool, insts, env = bounded(SCHEMA, CONSTRAINTS, bound, RANGE, copies=copies)
                own = _own_formulas(rng, insts, env)
                shared = pool.base.comp.formulas
                assert len(shared) == copies * (len(CONSTRAINTS) + (bound > 1) * len(SCHEMA.tables))
                fresh = check(VarPool(pool.domains[:]), shared + own, None)
                forked = check(pool, own, None)
                assert forked.status == fresh.status
                statuses.append(forked.status)
                for verdict in (forked, fresh):
                    if verdict.status == "sat":
                        assert all(eval_formula(f, verdict.model) for f in shared)
                        assert all(eval_formula(f, verdict.model) for f in own)
    assert statuses.count("sat") == 22 and statuses.count("unsat") == 14


def _base_snapshot(base):
    return (
        [c[:] for c in base.search.clauses],
        dict(base.comp.cache),
        [w[:] for w in base.search.watches],
        base.search.trail[:],  # the level-0 literals, in order
        base.search.lval[:],
        base.comp.cnf.nvars,
    )


def _detail_chain2():
    """Toys' schema, constraints and detail_chain with a second, private
    items row fetched first: "the parent came back public" is infeasible at
    bound 1, and its witness closure holds two items rows (`i` and the one
    `d` points to), so explore asks at bound 2 too."""
    root = Path(__file__).resolve().parent.parent / "corpus" / "toys"
    schema = parse_schema((root / "schema.txt").read_text())
    (program,) = parse_handlers("""
handler detail_chain2(BodyVal: int, ItemId: int) {
  let d = query("SELECT * FROM details WHERE body = ?", BodyVal);
  abort_if_empty(d, 404);
  let i = query("SELECT * FROM items WHERE id = ? AND NOT public", ItemId);
  abort_if_empty(i, 404);
  let parent = query("SELECT * FROM items WHERE id = ? AND public", d.item_id);
  let siblings = query("SELECT * FROM details WHERE item_id = ?", d.item_id);
  render(d, i, siblings);
}
""")
    return schema, expand_all(generate_constraints(schema), schema), program


def test_checks_on_one_context_leave_its_base_untouched(monkeypatch):
    courses = NormalFormQuery((0,), Cmp("=", Col(0), SessionParam("MyUserId")), ("courses",))
    roles = NormalFormQuery((0, 3), Not(IsNull(Col(3))), ("roles",))
    join = NormalFormQuery((0,), Cmp("=", Col(0), Col(2)), ("courses", "roles"))

    def run(nf, empty):
        pool, (inst,), env = bounded(SCHEMA, CONSTRAINTS, 2, RANGE)
        enc = encode_query(nf, (), inst, SCHEMA, env)
        return pool.base, check(pool, [lnot(enc.non_empty) if empty else enc.non_empty])

    base = bounded(SCHEMA, CONSTRAINTS, 2, RANGE)[0].base
    before = _base_snapshot(base)
    results = []
    for nf, empty in ((join, False), (courses, False), (roles, True), (join, False)):
        again, verdict = run(nf, empty)
        assert again is base
        assert _base_snapshot(base) == before
        results.append((verdict.status, verdict.model))
    assert results[0] == results[-1] and results[0][0] == "sat"

    # Explore and simplify every synth-front handler, explore toys'
    # detail_chain2 (no synth-front question reaches bound 2, its public
    # parent does), then ask `counterexample` of each view with
    # no rewriting from its handler's others, and of corpus/broaden's
    # narrow views from the broader ones: each base, one instance or two,
    # is as it was built, and every search a stage call or `Question` made
    # is garbage once it returns.  Every sat path goes to the solver, which
    # the chased instance would otherwise answer.
    full_bound.searched(monkeypatch)
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import synth

    schema_text, handlers, _ = synth.generate(1)
    schema = parse_schema(schema_text)
    cons = expand_all(generate_constraints(schema), schema)
    bases, searches, shapes = {}, [], {}
    shared, init = solver._shared, fdsolver.CdclBackend.__init__

    def recorded_shared(*args):
        out = shared(*args)
        bases.setdefault(id(out[0]), (out[0], _base_snapshot(out[0])))
        shapes[id(out[0])] = args[2], args[-1]  # bound, copies
        return out

    def only_bases_live():
        return {id(ref()) for ref in searches if ref() is not None} <= set(bases)

    def recorded_init(self, *args):
        init(self, *args)
        searches.append(weakref.ref(self))

    monkeypatch.setattr(solver, "_shared", recorded_shared)
    monkeypatch.setattr(fdsolver.CdclBackend, "__init__", recorded_init)
    config = ExplorationConfig(table_bound=2, solver_timeout=None)
    handler_views = []
    for program in (p for name in sorted(handlers) for p in parse_handlers(handlers[name])):
        result = explore(program, schema, cons, config)
        cqs = to_conditioned_queries(result.transcripts, schema)
        simplified = simplify(cqs, schema, cons, dict(program.request_params), table_bound=2, timeout_s=None)
        handler_views.append(views_from_cqs(simplified, schema))
        assert only_bases_live()
    toys_schema, toys_cons, detail_chain2 = _detail_chain2()
    explore(detail_chain2, toys_schema, toys_cons, config)
    assert only_bases_live()
    # Each base, one explore and one simplify search per handler, and
    # detail_chain2's two: bound 1 and bound 2.
    assert sorted(shapes.values()) == [(1, 1), (1, 1), (2, 1)]
    assert len(searches) == len(bases) + 2 * len(handlers) + 2
    for base, before in bases.values():
        assert _base_snapshot(base) == before

    def counterexamples(queries, views, schema, cons):
        question = solver.Question(schema, cons, 2, (0, 7), timeout_s=None)
        for q in queries:
            rest = [v for v in views if v != q]
            if not is_allowed(q, rest, schema, cons).allowed:
                assert counterexample(q, rest, question).status == "not_allowed"

    made = len(searches)
    for views in handler_views:
        counterexamples([v.nf for v in views], [v.nf for v in views], schema, cons)
        assert only_bases_live()
    root = Path(__file__).resolve().parent.parent / "corpus" / "broaden"
    broaden_schema = parse_schema((root / "schema.txt").read_text())
    broaden_cons = expand_all(generate_constraints(broaden_schema), broaden_schema)
    narrow, broader = (load_policy_file(root / f"{name}.sql", broaden_schema) for name in ("narrow", "broader"))
    counterexamples([v.nf for v in narrow], [v.nf for v in broader], broaden_schema, broaden_cons)
    assert only_bases_live()
    assert len(searches) > made
    assert sorted(shapes.values()) == [(1, 1), (1, 1), (1, 2), (1, 2), (2, 1)]  # a two-instance base per schema
    for base, before in bases.values():
        assert _base_snapshot(base) == before


@pytest.mark.parametrize("bound", [1, 3])
def test_base_grows_linearly_with_the_value_range(bound):
    # A range 9 times as wide may cost at most 9 times the clauses: the
    # encoding of integers stays linear in the domain size.
    root = Path(__file__).resolve().parent.parent / "corpus" / "toys"
    schema = parse_schema((root / "schema.txt").read_text())
    cons = expand_all(generate_constraints(schema), schema)
    clauses = {hi: len(bounded(schema, cons, bound, (0, hi))[0].base.search.clauses) for hi in (7, 63)}
    assert clauses[63] <= clauses[7] * 63 / 7, clauses


def test_explore_encodes_each_context_once(monkeypatch):
    schema, cons, program = _detail_chain2()
    full_bound.searched(monkeypatch)  # every sat path to the solver
    calls = {"encode_instance": 0, "ladders": 0}
    pools = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def recording_check(self, formulas, timeout_s=5.0):
        pools.append(self.comp.pool)
        return backend_check(self, formulas, timeout_s)

    def ints(domains):
        return sum(d is not None for d in domains)

    def counting_init(self, pool):
        compiler_init(self, pool)
        calls["ladders"] += ints(pool.domains[len((pool.base or fdsolver._NO_BASE).comp.first):])

    backend_check, compiler_init = fdsolver.CdclBackend.check, fdsolver.Compiler.__init__
    monkeypatch.setattr(solver, "encode_instance", counted("encode_instance", solver.encode_instance))
    monkeypatch.setattr(fdsolver.Compiler, "__init__", counting_init)
    monkeypatch.setattr(fdsolver.CdclBackend, "check", recording_check)
    solver._shared.cache_clear()
    result = explore(program, schema, cons, ExplorationConfig(table_bound=2, solver_timeout=None))
    assert len(result.transcripts) > 1 and len(pools) > 2
    bases = {id(p.base): p.base for p in pools}.values()
    assert len(bases) == calls["encode_instance"] == 2  # bound 1 and bound 2
    # One ladder per int symbol of each base, plus one per int symbol each
    # search adds past it (request parameters; query results add none):
    # explore keeps one search per bound for all its checks.
    searches = {id(p): p for p in pools}.values()
    assert len(searches) == 2
    past_base = sum(ints(p.domains[len(p.base.comp.first):]) for p in searches)
    assert calls["ladders"] == sum(ints(b.comp.pool.domains) for b in bases) + past_base


def test_model_check_covers_the_base_formulas(monkeypatch):
    pool, _, _ = bounded(SCHEMA, CONSTRAINTS, 2, RANGE)
    rejected = pool.base.comp.formulas[1]
    monkeypatch.setattr(fdsolver, "eval_formula", lambda f, model: f is not rejected)
    with pytest.raises(fdsolver.InternalSolverError, match=r"formula 1$"):
        check(pool, [])


# ---------------------------------------------------------------------------
# One bounded question: bound 1 first, the full bound unless bound 1 is sat


@pytest.mark.parametrize(
    "bound, at_1, asked",
    [(1, "sat", [1]), (1, "unsat", [1]), (3, "sat", [1]), (3, "unsat", [1, 3]), (3, "unknown", [1, 3])],
)
def test_ask_goes_on_to_the_full_bound_unless_bound_1_is_sat(bound, at_1, asked, monkeypatch):
    encoded, results = [], []

    def encode(instances, env, memo):
        (inst,) = instances
        encoded.append(inst.bound)
        return [("encoded at", inst.bound)]

    def scripted_check(self, formulas, timeout_s):
        assert formulas == [("encoded at", encoded[-1])] and timeout_s == 0.5
        status = at_1 if not results else "sat"
        results.append(backend_check(self, [], None) if status == "sat" else CheckResult(status))
        return results[-1]

    backend_check = fdsolver.CdclBackend.check
    monkeypatch.setattr(fdsolver.CdclBackend, "check", scripted_check)
    status, inputs = solver.Question(SCHEMA, CONSTRAINTS, bound, RANGE, timeout_s=0.5).ask(encode, 1)
    assert encoded == asked
    assert status == results[-1].status and len(inputs) == (status == "sat")


def test_ask_reads_the_model_through_the_context_it_was_found_in():
    def some_course(instances, env, memo):
        (inst,) = instances
        return [bvar(inst.tables["courses"][0].presence)]

    def two_courses(instances, env, memo):
        (inst,) = instances
        rows = inst.tables["courses"]
        return [lor(*[land(bvar(a.presence), bvar(b.presence)) for a, b in itertools.combinations(rows, 2)])]

    # A bound-1 input holds one row per table at most.
    for encode, bound, rows in ((some_course, 1, 1), (two_courses, 3, 2)):
        question = solver.Question(SCHEMA, CONSTRAINTS, 3, RANGE, [("CourseId", "int")], timeout_s=None)
        status, (ci,) = question.ask(encode, 1)
        assert status == "sat" and rows <= len(ci.tables["courses"]) <= bound
        assert list(ci.request) == ["CourseId"] and (ci.input_id, ci.handler) == ("", "")
        assert validate_instance(ci, CONSTRAINTS, SCHEMA)[0]


def test_ask_rejects_a_model_that_breaks_a_constraint(monkeypatch):
    # Without its constraint formulas the context admits a role whose
    # course is missing; `Question.ask` checks each answer against the
    # constraints.
    def dangling_role(instances, env, memo):
        (inst,) = instances
        return [bvar(inst.tables["roles"][0].presence), lnot(bvar(inst.tables["courses"][0].presence))]

    monkeypatch.setattr(solver, "encode_constraint", lambda c, inst, schema: fdsolver.TRUE_F)
    solver._shared.cache_clear()
    try:
        with pytest.raises(fdsolver.InternalSolverError, match="fk roles.course_id -> courses.id"):
            solver.Question(SCHEMA, CONSTRAINTS, 2, RANGE, timeout_s=None).ask(dangling_role, 1)
    finally:
        solver._shared.cache_clear()


def test_a_constant_outside_its_domain_raises_in_every_stage():
    # RANGE is 0:3 and a bool column's domain 0:1.
    for column, value, domain in (("note", 5, "0:3"), ("is_instructor", 2, "0:1")):
        fixed = expand_all([FixedValue("roles", column, value)], SCHEMA)
        message = f"value {value} in constraint 'fixed roles.{column} = {value}' lies outside the value range {domain}"
        with pytest.raises(RangeError, match=re.escape(message)):
            solver.Question(SCHEMA, CONSTRAINTS + fixed, 2, RANGE, timeout_s=None).ask(lambda instances, env, memo: [], 1)
    (program,) = parse_handlers('handler h() { let c = query("SELECT * FROM courses WHERE id = 4"); render(c); }')
    with pytest.raises(RangeError, match="value 4 in handler h lies outside the value range 0:3"):
        explore(program, SCHEMA, CONSTRAINTS, ExplorationConfig(value_range=RANGE))
    assert explore(program, SCHEMA, CONSTRAINTS, ExplorationConfig(value_range=(0, 4), solver_timeout=None)).complete


# ---------------------------------------------------------------------------
# A rung encodes each path prefix once, and its search serves every question


def _recorded(monkeypatch, counted: str) -> tuple[list, list]:
    """Record each call of `solver.<counted>` and the formula list of each check."""
    calls, checked = [], []
    fn, backend_check = getattr(solver, counted), fdsolver.CdclBackend.check

    def counting(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    def recording_check(self, formulas, timeout_s=5.0):
        checked.append(list(formulas))
        return backend_check(self, formulas, timeout_s)

    monkeypatch.setattr(solver, counted, counting)
    monkeypatch.setattr(fdsolver.CdclBackend, "check", recording_check)
    return calls, checked


def test_a_path_encodes_each_prefix_step_once(monkeypatch):
    def exe(sql):
        return to_executable(parse_sql(sql), SCHEMA)

    course = (1, exe("SELECT * FROM courses WHERE id = ?"), (SessionParam("MyUserId"),), False)
    role = (2, exe("SELECT * FROM roles WHERE course_id = ?"), (RowCol(1, 0),), False)
    teaches = (BoolCol(RowCol(2, 2)), True)
    noted = (3, exe("SELECT * FROM roles WHERE note = ?"), (RowCol(2, 3),), None)
    path = [course, role, teaches, course]  # a step given twice is asserted once
    full_bound.searched(monkeypatch)  # every sat path to the solver
    calls, checked = _recorded(monkeypatch, "encode_query")
    question = solver.Question(SCHEMA, CONSTRAINTS, 2, RANGE, timeout_s=None)
    answers = [question.ask_path(steps) for steps in (path, path, path + [noted], path)]
    assert [status for status, _ in answers] == ["sat"] * 4  # each at bound 1
    # One encoding per prefix: the repeated `course` ends a prefix of its
    # own, so it is encoded again, but it adds no formula to its parent's.
    assert [args[0] for args in calls] == [course[1], role[1], course[1], noted[1]]
    first, again, extended, last = checked
    assert len(first) == 5  # course and role: non-empty and at most one; teaches
    assert all(a is b for a, b in zip(first, again, strict=True))
    assert all(a is b for a, b in zip(first, last, strict=True))  # extending left the prefix as it was
    assert len(extended) == 6 and all(a is b for a, b in zip(first, extended[:5]))
    # The answers are those of a question that encodes from scratch.
    for steps, answer in zip((path, path + [noted]), answers[::2]):
        assert solver.Question(SCHEMA, CONSTRAINTS, 2, RANGE, timeout_s=None).ask_path(steps) == answer


def test_determinacy_questions_on_one_search_answer_as_fresh_ones():
    def nf(sql):
        return to_executable(parse_sql(sql), SCHEMA).nf

    courses, roles, mine = nf("SELECT * FROM courses"), nf("SELECT * FROM roles"), nf(
        "SELECT * FROM roles WHERE user_id = MyUserId")
    notes, teachers = nf("SELECT note FROM roles"), nf("SELECT user_id FROM roles WHERE is_instructor")
    question = solver.Question(SCHEMA, CONSTRAINTS, 1, RANGE, timeout_s=None)
    asked = [(notes, [courses, roles]), (teachers, [courses, mine]), (notes, [roles, mine]), (mine, [notes])]
    answers = [question.ask_determinacy(q, views) for q, views in asked]
    assert [status for status, _ in answers] == ["unsat", "sat", "unsat", "sat"]
    # The answers are those of questions that each have a search of their own.
    for (q, views), answer in zip(asked, answers):
        assert solver.Question(SCHEMA, CONSTRAINTS, 1, RANGE, timeout_s=None).ask_determinacy(q, views) == answer
