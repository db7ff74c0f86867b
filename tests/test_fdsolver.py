from __future__ import annotations

import hashlib
import itertools
import random

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from polex import fdsolver
from polex.fdsolver import (
    FALSE_F,
    TRUE_F,
    CdclBackend,
    InternalSolverError,
    VarPool,
    bvar,
    const,
    eval_formula,
    fcmp,
    feq,
    ivar,
    land,
    lnot,
    lor,
)

from polex.terms import cmp_eval

from declining import DecliningBackend
from enumeration import EnumerationBackend
from onehot import OneHotBackend


def test_conflicting_equalities_unsat_with_full_core():
    pool = VarPool()
    x = pool.new_int(0, 7)
    r = CdclBackend(pool).check([fcmp("=", ivar(x), const(1)), fcmp("=", ivar(x), const(2))])
    assert r.status == "unsat"


def test_single_equality_sat():
    pool = VarPool()
    x = pool.new_int(0, 7)
    r = CdclBackend(pool).check([fcmp("=", ivar(x), const(1))])
    assert r.status == "sat"
    assert r.model[x] == 1


def test_hard_formulas_participate():
    pool = VarPool()
    x = pool.new_int(0, 3)
    r = CdclBackend(pool).check([fcmp("<", ivar(x), const(2)), feq(ivar(x), const(2))])
    assert r.status == "unsat"


def test_model_check_names_a_failing_formula_by_index(monkeypatch):
    pool = VarPool()
    x = pool.new_int(0, 3)
    formulas = [feq(ivar(x), const(1)), fcmp("<", ivar(x), const(2))]
    # Re-evaluation rejects the second formula, as it would after a
    # compilation bug.
    monkeypatch.setattr(fdsolver, "eval_formula", lambda f, model: f is not formulas[1])
    with pytest.raises(InternalSolverError, match=r"formula 1$"):
        CdclBackend(pool).check(formulas)


def test_bool_vars():
    pool = VarPool()
    p = pool.new_bool()
    q = pool.new_bool()
    r = CdclBackend(pool).check([land(bvar(p), lnot(bvar(q)))])
    assert r.status == "sat"
    assert r.model[p] is True and r.model[q] is False


def _pigeonhole(n: int):
    """n symbols over an (n-1)-value domain, pairwise distinct: unsat and
    exponentially hard for clause learning, so it exercises timeouts."""
    pool = VarPool()
    xs = [pool.new_int(0, n - 2) for _ in range(n)]
    formulas = []
    for i in range(n):
        for j in range(i + 1, n):
            formulas.append(fcmp("<>", ivar(xs[i]), ivar(xs[j])))
    return pool, formulas


def test_timeout_returns_unknown():
    pool, formulas = _pigeonhole(9)
    r = CdclBackend(pool).check(formulas, timeout_s=0.01)
    assert r.status == "unknown"


def test_small_pigeonhole_unsat():
    pool, formulas = _pigeonhole(5)
    r = CdclBackend(pool).check(formulas, timeout_s=30.0)
    assert r.status == "unsat"


def _rand_formula(rng, ints, bools, depth):
    if depth == 0 or rng.random() < 0.3:
        c = rng.random()
        if c < 0.55:
            op = rng.choice(["=", "<>", "<", "<=", ">", ">="])
            def term():
                if rng.random() < 0.4:
                    return const(rng.randint(0, 3))
                return ivar(rng.choice(ints))
            return fcmp(op, term(), term())
        if c < 0.9:
            return bvar(rng.choice(bools))
        return rng.choice([TRUE_F, FALSE_F])
    kind = rng.choice(["and", "or", "not"])
    if kind == "not":
        return lnot(_rand_formula(rng, ints, bools, depth - 1))
    args = [_rand_formula(rng, ints, bools, depth - 1) for _ in range(rng.randint(2, 3))]
    return land(*args) if kind == "and" else lor(*args)


def test_cdcl_agrees_with_enumeration_on_random_formulas():
    rng = random.Random(20260810)
    for trial in range(250):
        pool = VarPool()
        ints = [pool.new_int(0, rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
        bools = [pool.new_bool() for _ in range(rng.randint(1, 2))]
        formulas = [_rand_formula(rng, ints, bools, rng.randint(1, 3)) for _ in range(rng.randint(1, 4))]
        r1 = CdclBackend(pool).check(formulas)
        r2 = EnumerationBackend(pool).check(formulas, timeout_s=30)
        assert r1.status == r2.status, f"trial {trial}: {formulas}"


def test_sat_models_verified_against_formulas():
    # CdclBackend re-evaluates every formula under the model; a sat answer
    # implies the model satisfies them all.
    rng = random.Random(7)
    for _ in range(80):
        pool = VarPool()
        ints = [pool.new_int(0, 2) for _ in range(3)]
        bools = [pool.new_bool() for _ in range(2)]
        formulas = [_rand_formula(rng, ints, bools, 3) for _ in range(3)]
        r = CdclBackend(pool).check(formulas)
        if r.status == "sat":
            for f in formulas:
                assert eval_formula(f, r.model)


# A single value, two values, a negative lower bound, and domains that
# overlap in part, in one value or not at all.
DOMAINS = [(3, 3), (0, 1), (-2, 1), (0, 7), (1, 3), (5, 7)]
OPS = ["=", "<>", "<", "<=", ">", ">="]


def _formulas(ints, p):
    """Formulas over the int symbols `ints` and the bool symbol `p`."""
    sym = st.sampled_from(ints).map(ivar)
    # Constants reach past every domain on both sides.
    term = st.one_of(sym, st.integers(-4, 9).map(const))
    atom = st.one_of(
        st.builds(fcmp, st.sampled_from(OPS), sym, sym),  # the same symbol too
        st.builds(fcmp, st.sampled_from(OPS), term, term),
        st.just(bvar(p)),
    )
    return st.recursive(atom, lambda sub: st.one_of(
        sub.map(lnot),
        st.lists(sub, min_size=2, max_size=3).map(lambda fs: land(*fs)),
        st.lists(sub, min_size=2, max_size=3).map(lambda fs: lor(*fs)),
    ), max_leaves=4)


@st.composite
def _checks(draw):
    pool = VarPool()
    domains = draw(st.lists(st.sampled_from(DOMAINS), min_size=1, max_size=3))
    ints = [pool.new_int(*d) for d in domains]
    p = pool.new_bool()
    return pool, draw(st.lists(_formulas(ints, p), min_size=1, max_size=4))


@settings(max_examples=250, deadline=None)
@given(_checks())
def test_order_encoding_agrees_with_one_hot_and_enumeration(check):
    pool, formulas = check
    r = CdclBackend(pool).check(formulas, timeout_s=None)
    assert r.status == OneHotBackend(pool).check(formulas).status
    assert r.status == EnumerationBackend(pool).check(formulas, timeout_s=None).status
    event(r.status)
    if r.status == "sat":
        assert all(eval_formula(f, r.model) for f in formulas)
        assert all(d[0] <= r.model[x] <= d[1] for x, d in enumerate(pool.domains) if d is not None)


@st.composite
def _sessions(draw):
    """A pool with a base, symbols past it, and a sequence of checks that
    share formulas; checks that keep four pigeons in three holes apart
    need conflicts.  Also the pigeonhole formulas of five other symbols in
    four holes, and the index of the check before which they time out."""
    shared = VarPool()
    ints = [shared.new_int(*d) for d in draw(st.lists(st.sampled_from(DOMAINS), min_size=1, max_size=3))]
    p = shared.new_bool()
    base = CdclBackend(shared, draw(st.lists(_formulas(ints, p), max_size=2)))
    pool = VarPool(shared.domains[:], base)
    ints.append(pool.new_int(*draw(st.sampled_from(DOMAINS))))
    pigeons = [pool.new_int(0, 2) for _ in range(4)]
    trapped = [fcmp("<>", ivar(a), ivar(b)) for a, b in itertools.combinations([pool.new_int(0, 3) for _ in range(5)], 2)]
    apart = [fcmp("<>", ivar(a), ivar(b)) for a, b in itertools.combinations(pigeons, 2)]
    pins = st.builds(fcmp, st.sampled_from(OPS), st.sampled_from(pigeons).map(ivar), st.integers(0, 2).map(const))
    formulas = draw(st.lists(st.one_of(_formulas(ints + pigeons, p), pins), min_size=2, max_size=8))
    some_apart = st.one_of(st.just(apart), st.lists(st.sampled_from(apart), max_size=6))
    check = st.tuples(some_apart, st.lists(st.sampled_from(formulas), max_size=4))
    checks = [a + b for a, b in draw(st.lists(check, min_size=2, max_size=6))]
    return pool, trapped, checks, draw(st.integers(0, len(checks) - 1))


def _time_out(self):
    raise fdsolver._Timeout()


@settings(max_examples=200, deadline=None)
@given(_sessions())
def test_one_search_answers_a_check_sequence_like_fresh_searches(case):
    # One search answers every check as a search of its own would: the
    # same status, a verified model, and the same model where the fresh
    # search met no conflict.  A check that times out at its first
    # conflict midway leaves it answering the same way.
    pool, pigeonhole, checks, timeout_at = case
    session = CdclBackend(pool)
    for i, formulas in enumerate(checks):
        if i == timeout_at:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(fdsolver._Cdcl, "_check_time", _time_out)
                status = session.check(pigeonhole, timeout_s=None).status
            assert status == ("unknown" if session.search.ok else "unsat")
        fresh = CdclBackend(pool)
        want = fresh.check(formulas, timeout_s=None)
        got = session.check(formulas, timeout_s=None)
        assert got.status == want.status, i
        event(f"{got.status}{', conflicts' if fresh.search.conflicts else ''}")
        if got.status == "sat":
            assert all(eval_formula(f, got.model) for f in pool.base.comp.formulas + formulas)
            if not fresh.search.conflicts:
                assert got.model == want.model, i


@settings(max_examples=200, deadline=None)
@given(_sessions())
def test_an_accepted_completion_is_the_model_deciding_gives(case):
    # A search that accepts the completion answers every check of a
    # sequence as one that always decides does: the same status, and the
    # same model where the deciding search met no conflict.  Where the
    # completion satisfies every formula, the deciding search meets no
    # conflict and returns it.
    pool, _, checks, _ = case
    session, deciding = CdclBackend(pool), DecliningBackend(pool)
    for i, formulas in enumerate(checks):
        got = session.check(formulas, timeout_s=None)
        want = deciding.check(formulas, timeout_s=None)
        assert got.status == want.status, i
        completion = deciding.search.completion
        event(f"{got.status}{', accepted' if completion else ''}{', conflicts' if deciding.search.conflicts else ''}")
        if completion is not None:
            assert deciding.search.conflicts == 0 and completion[0] == want.model, i
        if got.status == "sat" and not deciding.search.conflicts:
            assert got.model == want.model, i


class _HeapAtFirstDecision(fdsolver._Cdcl):
    """The search with its decision heap built at the first decision, not
    at the first conflict."""

    def decide_var(self):
        if self.heap is None:
            self.heap = [(0.0, v) for v in self.decision]
        return super().decide_var()


@settings(max_examples=200, deadline=None)
@given(_sessions())
def test_decisions_before_the_first_conflict_need_no_heap(case):
    # Until a conflict every activity is 0, so the heap pops the decision
    # variables in ascending order, as the scan takes them: both searches
    # make the same decisions, learn the same clauses and find the same
    # models.  Each check also names two symbols declared after every
    # other, so a conflict can come before the scan reaches them.
    pool, (later, *_), checks, _ = case
    event("conflicts" if any(_same_searches(pool, [formulas + [later] for formulas in checks])) else "no conflict")


def _same_searches(pool, checks) -> list[int]:
    """Asks `checks` of a search and of one built as `_HeapAtFirstDecision`,
    which must agree; returns each check's conflicts."""
    session, reference = CdclBackend(pool), CdclBackend.__new__(CdclBackend)
    reference.comp = fdsolver.Compiler(pool)
    reference.search = _HeapAtFirstDecision((pool.base or fdsolver._NO_BASE).search)
    reference.search.attach(reference.comp)
    conflicts = []
    for i, formulas in enumerate(checks):
        got, want = session.check(formulas, timeout_s=None), reference.check(formulas, timeout_s=None)
        assert (got.status, got.model) == (want.status, want.model), i
        for part in ("trail", "trail_lim", "clauses"):
            assert getattr(session.search, part) == getattr(reference.search, part), (i, part)
        conflicts.append(reference.search.conflicts)
    return conflicts


def test_decisions_after_the_first_conflict_take_what_the_scan_left():
    # Deciding p false conflicts before the scan reaches z, declared after
    # it, so the heap built at that conflict must hold z's thresholds.
    pool = VarPool()
    p, q, z = pool.new_bool(), pool.new_bool(), pool.new_int(0, 3)
    formulas = [lor(bvar(p), bvar(q)), lor(bvar(p), lnot(bvar(q))), lor(feq(ivar(z), const(2)), feq(ivar(z), const(3)))]
    (conflicts,) = _same_searches(pool, [formulas])
    assert conflicts > 0


def _rebuilt(f):
    """A formula equal to `f`, of tuples distinct from its."""
    return tuple(_rebuilt(g) if isinstance(g, tuple) else g for g in f)


@pytest.mark.parametrize("backend", [CdclBackend, OneHotBackend])
def test_a_check_finds_a_formula_it_asserted_by_identity_or_by_value(backend, monkeypatch):
    pool = VarPool()
    x, y = pool.new_int(0, 3), pool.new_int(0, 3)
    f = land(feq(ivar(x), ivar(y)), fcmp("<", ivar(x), const(2)))
    twin = _rebuilt(f)
    assert twin == f and twin is not f
    compiled, assumed = [], []
    lit, solve = fdsolver.Compiler.lit, fdsolver._Cdcl.solve
    monkeypatch.setattr(fdsolver.Compiler, "lit", lambda self, g: compiled.append(g) or lit(self, g))
    monkeypatch.setattr(fdsolver._Cdcl, "solve", lambda self, a, *rest: assumed.append(a) or solve(self, a, *rest))
    checker = backend(pool)
    answers = [checker.check(formulas, timeout_s=None) for formulas in ([f], [f], [twin], [twin, f])]
    assert assumed[0] == assumed[1] == assumed[2] and assumed[3] == assumed[0] * 2
    # The first check compiles f and the third looks twin up by value;
    # the second and the fourth look them up by identity.
    assert [id(g) for g in compiled if g == f] == [id(f), id(twin)]
    assert len({(a.status, tuple(sorted(a.model.items()))) for a in answers}) == 1


@settings(max_examples=100, deadline=None)
@given(_checks(), st.lists(st.lists(st.tuples(st.integers(0, 3), st.booleans()), min_size=1, max_size=3),
                           min_size=2, max_size=4))
def test_one_search_answers_checks_that_share_formulas_like_enumeration(check, picks):
    # Each check asks some of the formulas, each the object an earlier
    # check may have asked or an equal rebuilt one.
    pool, formulas = check
    onehot, order = OneHotBackend(pool), CdclBackend(pool)
    for pick in picks:
        asked = [formulas[i % len(formulas)] if same else _rebuilt(formulas[i % len(formulas)]) for i, same in pick]
        want = EnumerationBackend(pool).check(asked, timeout_s=None).status
        assert onehot.check(asked).status == order.check(asked, timeout_s=None).status == want


def test_every_comparison_matches_its_truth_table():
    # Each atom between two symbols, a symbol and itself, and a symbol and
    # a constant (inside or outside its domain), asserted and negated, with
    # both symbols pinned to every pair of values.
    for dx, dy in itertools.product(DOMAINS, repeat=2):
        pool = VarPool()
        x, y = pool.new_int(*dx), pool.new_int(*dy)
        for a, b in itertools.product(range(dx[0], dx[1] + 1), range(dy[0], dy[1] + 1)):
            pins = [feq(ivar(x), const(a)), feq(ivar(y), const(b))]
            pairs = [(ivar(x), ivar(y), a, b), (ivar(x), ivar(x), a, a),
                     (ivar(x), const(b), a, b), (const(a), ivar(y), a, b)]
            for op, (t1, t2, u, w) in itertools.product(OPS, pairs):
                holds = cmp_eval(op, u, w)
                for f, want in ((fcmp(op, t1, t2), holds), (lnot(fcmp(op, t1, t2)), not holds)):
                    status = CdclBackend(pool).check([*pins, f]).status
                    assert status == ("sat" if want else "unsat"), (dx, dy, a, b, f)


def test_unknown_comparison_is_rejected():
    pool = VarPool()
    x, y = pool.new_int(0, 3), pool.new_int(0, 3)
    for terms in ((ivar(x), ivar(y)), (ivar(x), const(1))):
        with pytest.raises(ValueError, match="bad formula node"):
            CdclBackend(pool).check([("cmp", "!=", *terms)])


def test_unmentioned_symbols_are_never_decided(monkeypatch):
    # Symbols no formula names sit between the named ones; their threshold
    # and bool SAT variables are never decided, and the model gives them
    # what a search deciding them false would: the domain's lower value,
    # or False.
    decided = []
    decide_var = fdsolver._Cdcl.decide_var

    def traced_decide_var(self):
        v = decide_var(self)
        decided.append(v)
        return v

    monkeypatch.setattr(fdsolver._Cdcl, "decide_var", traced_decide_var)
    rng = random.Random(1103)
    statuses = set()
    for trial in range(60):
        pool = VarPool()
        ints, bools, idle_ints, idle_bools = [], [], [], []
        for _ in range(rng.randint(1, 2)):
            ints.append(pool.new_int(0, rng.randint(1, 3)))
            idle_ints.append(pool.new_int(0, 7))
            bools.append(pool.new_bool())
        idle_bools.append(pool.new_bool())
        formulas = [_rand_formula(rng, ints, bools, rng.randint(1, 3)) for _ in range(rng.randint(1, 4))]
        comp = fdsolver.Compiler(pool)
        idle_sat = {s for u in idle_ints + idle_bools for s in comp._sat_vars(u)}
        decided.clear()
        r = CdclBackend(pool).check(formulas, timeout_s=None)
        assert not idle_sat & set(decided), f"trial {trial}"
        assert r.status == EnumerationBackend(pool).check(formulas, timeout_s=30).status, f"trial {trial}"
        if r.status == "sat":
            assert all(r.model[u] == 0 for u in idle_ints)
            assert all(r.model[q] is False for q in idle_bools)
        statuses.add(r.status)
    assert statuses == {"sat", "unsat"}


def test_determinism():
    rng = random.Random(99)
    pool = VarPool()
    ints = [pool.new_int(0, 3) for _ in range(4)]
    bools = [pool.new_bool() for _ in range(3)]
    formulas = [_rand_formula(rng, ints, bools, 4) for _ in range(5)]
    first = CdclBackend(pool).check(formulas)
    for _ in range(3):
        again = CdclBackend(pool).check(formulas)
        assert again.status == first.status
        assert again.model == first.model


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3), st.booleans())
def test_formula_builders_fold_constants(a, b, flag):
    assert fcmp("=", const(a), const(b)) in (TRUE_F, FALSE_F)
    f = bvar(0) if flag else TRUE_F
    assert land(TRUE_F, f) == f
    assert lor(FALSE_F, f) == f
    assert land(FALSE_F, f) == FALSE_F
    assert lor(TRUE_F, f) == TRUE_F
    assert lnot(lnot(f)) == f


def test_symbol_equalities_have_one_order():
    for op in ("=", "<>"):
        assert fcmp(op, ivar(5), ivar(2)) == fcmp(op, ivar(2), ivar(5)) == ("cmp", op, ivar(2), ivar(5))
    # An order comparison, or a symbol against a constant, keeps its order.
    assert fcmp("<", ivar(5), ivar(2)) == ("cmp", "<", ivar(5), ivar(2))
    assert fcmp("=", const(3), ivar(2)) == ("cmp", "=", const(3), ivar(2))
    assert fcmp("=", ivar(2), const(3)) == ("cmp", "=", ivar(2), const(3))


def _add_reference(lits):
    """What `_Cnf.add` must append: None for a tautology, else the literals
    with repeats dropped, first occurrences kept in order."""
    seen = set()
    out = []
    for l in lits:
        if l ^ 1 in seen:
            return None
        if l not in seen:
            seen.add(l)
            out.append(l)
    return out


def test_cnf_add_matches_reference_loop():
    rng = random.Random(4242)
    for _ in range(2000):
        lits = [rng.randrange(12) for _ in range(rng.randint(1, 8))]
        cnf = fdsolver._Cnf()
        cnf.add(list(lits))
        want = _add_reference(lits)
        assert cnf.clauses == ([] if want is None else [want]), lits


def test_order_scaffold_is_a_ladder():
    pool = VarPool()
    pool.new_int(3, 3)
    pool.new_bool()
    pool.new_int(0, 1)
    pool.new_int(0, 7)
    pool.new_int(-2, 1)
    comp = fdsolver.Compiler(pool)
    # One variable per threshold [x >= v], v in lo+1..hi: none for `a`.
    assert comp.first == [0, 0, 1, 2, 9]
    assert comp.cnf.nvars == 12
    # [x >= v+1] -> [x >= v] for each pair of neighbouring thresholds.
    assert comp.cnf.clauses == [[2 * s + 3, 2 * s] for s in (*range(2, 8), 9, 10)]
    # A value is lo plus the number of true thresholds.
    assigns = [False, True, True, True, True, False, False, False, False, False, False, False]
    assert comp.model_from_sat(assigns) == {0: 3, 1: False, 2: 1, 3: 3, 4: -2}


def _rand_clause_set(rng):
    """A conjunction of random three-atom disjunctions over comparisons and
    bool symbols: sat and unsat both occur, and most need conflicts."""
    pool = VarPool()
    xs = [pool.new_int(0, rng.randint(2, 7)) for _ in range(rng.randint(4, 8))]
    ps = [pool.new_bool() for _ in range(2)]
    formulas = []
    for _ in range(rng.randint(40, 90)):
        atoms = []
        for _ in range(3):
            r = rng.random()
            if r < 0.15:
                p = bvar(rng.choice(ps))
                atoms.append(p if rng.random() < 0.5 else lnot(p))
                continue
            other = const(rng.randint(0, 7)) if r < 0.4 else ivar(rng.choice(xs))
            atoms.append(fcmp(rng.choice(["=", "<>", "<", "<=", ">", ">="]), ivar(rng.choice(xs)), other))
        formulas.append(lor(*atoms))
    return pool, formulas


# SHA-256 over every check's CNF, verdict, model and conflict count below.
# A change to the compiled clauses, their order or the search heuristics
# changes it; such a change must be deliberate and say so.
TRAJECTORY_SHA256 = "ee7d11d3bfaeb25f611c84827c2313d1e88d8bf4d69a8d4f4f0f3581bf2ab5c4"


def test_pinned_compile_and_search_trajectory(monkeypatch):
    seen = []
    solve = fdsolver._Cdcl.solve

    def traced_solve(self, *args):
        cnf = [list(c) for c in self.clauses]
        out = solve(self, *args)
        seen.append((self.nvars, cnf, self.conflicts))
        return out

    monkeypatch.setattr(fdsolver._Cdcl, "solve", traced_solve)
    rng = random.Random(31337)
    checks = [_pigeonhole(5), _pigeonhole(6)]
    for _ in range(16):
        pool = VarPool()
        ints = [pool.new_int(0, rng.randint(0, 7)) for _ in range(rng.randint(2, 6))]
        bools = [pool.new_bool() for _ in range(rng.randint(1, 3))]
        checks.append((pool, [_rand_formula(rng, ints, bools, rng.randint(1, 4)) for _ in range(rng.randint(2, 6))]))
    checks.extend(_rand_clause_set(rng) for _ in range(32))
    h = hashlib.sha256()
    for pool, formulas in checks:
        r = CdclBackend(pool).check(formulas, timeout_s=None)
        nvars, cnf, conflicts = seen.pop()
        model = sorted(r.model.items()) if r.model else None
        h.update(repr((nvars, cnf, r.status, model, conflicts)).encode())
    assert h.hexdigest() == TRAJECTORY_SHA256
