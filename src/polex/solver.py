"""Symbolic encoding of bounded databases, queries, and path conditions.

Tables become conditional tables: a fixed number of symbolic rows (the
table bound, default 2), each with a presence guard, integer value
symbols per column, and a null-flag symbol per nullable column.  Rows
whose presence guard is false are unconstrained.  All value symbols are
restricted to a configurable range (default [0, 7]); satisfiability
answers are relative to that range, which is harmless here because only
comparisons among a bounded set of symbols matter.

A query over such an instance is encoded by enumerating the combinations
of rows its FROM product can draw: `nonEmpty` is the disjunction of the
combination guards, and `atMostOne` asserts that no two distinct
combinations both match (every path asserts it, to keep each query at
one row or none).  A result column gets no symbols of its own: it is read as
the alternatives `(guard, term, null)` of the combinations that can
produce it, and a predicate over it is the disjunction, over alternatives,
of the guard and the predicate on that combination's term.  So a filter
on a fetched foreign key and the foreign-key containment itself compare
the same two row symbols, and the solver sees they are one fact.

Every stage asks the solver through a `Question`, and this module alone
builds formulas: a stage states a path (explore's pending prefix, or the
simplifier's premises followed by its goal flipped) or a determinacy
pair (`is-allowed`'s two instances that agree on the views and differ
on the query).  A path the chase answers (see below) needs no formula.
Any other question is asked at bound 1 first (a bound-1 model is a
full-bound model with the other rows absent), and a sat answer comes
back as one input per instance, checked against the constraints.
Explore and policy-gen keep one `Question` for a stage call, so all its
questions on a rung go to one incremental search.  The rung also
encodes each path prefix once (a trie of steps: sibling prefixes share
all but their last).  These encodings live as long as the rung of that
`Question`, and no verdict is kept: every question that reaches a rung
runs its search and verifies its model.

A path is a conjunctive query over one instance, which the chase decides
in the equality fragment (Johnson & Klug, JCSS 1984): a path whose last
step `Question.chase_refutes` answers in its canonical instance (a
witness row per non-empty PSJ step) is unsat at every bound and range.
Where that instance is not refuted, chased it is a universal model
(Fagin, Kolaitis, Miller & Popa, TCS 2005), and `Question.chased_input`
reads a sat path's input from it: the lowest values that keep its
disequalities and keys apart.  The input is returned only if it fits the
bound, satisfies the constraints and takes the path when evaluated;
otherwise the path goes to the rungs.  A built input depends on its path
alone: not on the bound, nor on the questions asked before it.

An unsat path needs only the rows of a countermodel's witness closure:
the rows its non-empty query steps matched, and the rows the `contain`
lines chase from those.  Deleting every other row keeps a countermodel
one, since emptiness, at-most-one, `unique`, row order and literal
relations survive deletion and the chase keeps every containment (Johnson
& Klug, JCSS 1984).  So each table gets its own row bound, as in Kodkod
(Torlak & Jackson, TACAS 2007): once bound 1 is unsat, `Question.ask`
counts the closure from the path's chase (`Question.row_bounds`) and
caps the full-bound rung at it.
"""

from __future__ import annotations

import collections
import functools
import itertools
from dataclasses import dataclass, field

from .chase import Growing, atoms, dependencies
from .constraints import Constraint, Containment, LiteralRelation, Unique, check_range, column_domain, validate_instance
from .evaluate import ScalarEnv, eval_branch, eval_executable
from .fdsolver import (
    FALSE_F,
    TRUE_F,
    CdclBackend,
    InternalSolverError,
    VarPool,
    bvar,
    const,
    fcmp,
    feq,
    implies,
    ivar,
    land,
    lnot,
    lor,
)
from .instance import ConcreteInput
from .normal import CountQuery, LeftJoinQuery, NormalFormQuery, PlainQuery
from .schema import Schema
from .terms import (
    SESSION_PARAMS,
    And,
    BoolCol,
    BoolLit,
    Cmp,
    Col,
    IntLit,
    IsNull,
    Not,
    NullLit,
    PlaceholderRef,
    Predicate,
    RequestParam,
    RowCol,
    Scalar,
    SessionParam,
    TruePred,
    substitute_placeholders,
)


class EncodeError(Exception):
    pass


# A symbolic value is (term, null_formula): the term is meaningful only
# where the null formula is false.  A scalar reads as alternatives, a tuple
# of (guard, term, null_formula): the value is the term of the one
# alternative whose guard holds.  A plain value is ((TRUE_F, term, null),).
SymValue = tuple
Alts = tuple


@dataclass
class SymRow:
    presence: int  # bool vid
    values: tuple[int, ...]  # int vids
    nulls: tuple[int | None, ...]  # bool vid per nullable column


@dataclass
class SymInstance:
    bound: int
    tables: dict[str, tuple[SymRow, ...]]  # table name -> its rows


@dataclass
class SymEnv:
    """Scalar resolution context: parameter symbols and prior query results."""

    params: dict[str, int] = field(default_factory=dict)  # name -> int vid
    rows: dict[int, tuple[Alts, ...]] = field(default_factory=dict)
    placeholders: tuple[Alts, ...] = ()

    def scalar(self, s: Scalar) -> Alts:
        if isinstance(s, IntLit):
            return ((TRUE_F, const(s.value), FALSE_F),)
        if isinstance(s, BoolLit):
            return ((TRUE_F, const(1 if s.value else 0), FALSE_F),)
        if isinstance(s, NullLit):
            return ((TRUE_F, const(0), TRUE_F),)
        if isinstance(s, (SessionParam, RequestParam)):
            if s.name not in self.params:
                raise EncodeError(f"parameter {s.name!r} has no symbol")
            return ((TRUE_F, ivar(self.params[s.name]), FALSE_F),)
        if isinstance(s, RowCol):
            row = self.rows.get(s.query_index)
            if row is None:
                raise EncodeError(f"no encoded result for query {s.query_index}")
            return row[s.column_index]
        if isinstance(s, PlaceholderRef):
            if s.position > len(self.placeholders):
                raise EncodeError(f"unbound placeholder ?{s.position}")
            return self.placeholders[s.position - 1]
        raise EncodeError(f"cannot encode scalar {s!r}")


def encode_instance(
    schema: Schema,
    constraints: list[Constraint],
    bound: int,
    pool: VarPool,
    value_range: tuple[int, int] = (0, 7),
) -> tuple[SymInstance, list[tuple]]:
    """Allocate a bounded symbolic instance; returns it with its formulas:
    one row-order formula per table (for bounds above 1), then one per
    constraint, in list order."""
    if bound < 1:
        raise EncodeError("table bound must be >= 1")
    tables = {}
    for t in schema.tables:
        rows = []
        for r in range(bound):
            p = pool.new_bool()
            values = []
            nulls: list[int | None] = []
            for c in t.columns:
                lo, hi = column_domain(value_range, c.type)
                values.append(pool.new_int(lo, hi))
                nulls.append(pool.new_bool() if c.nullable else None)
            rows.append(SymRow(p, tuple(values), tuple(nulls)))
        tables[t.name] = tuple(rows)
    inst = SymInstance(bound, tables)
    formulas = []
    # Row order within a conditional table is irrelevant, so force absent
    # rows to trail present ones; this halves the symmetric search space.
    for t in schema.tables:
        rows = tables[t.name]
        order = land(
            *[implies(bvar(rows[r + 1].presence), bvar(rows[r].presence)) for r in range(bound - 1)]
        )
        if order != TRUE_F:
            formulas.append(order)
    for c in constraints:
        formulas.append(encode_constraint(c, inst, schema))
    return inst, formulas


@functools.lru_cache(maxsize=4)
def _shared(schema, constraints, bound, value_range, copies):
    """The base search of one bounded context: `copies` instances, then
    the session-parameter symbols, holding every instance's
    `encode_instance` formulas in instance order, propagated at level 0.
    Nothing changes it; each search over the context starts as its copy.
    A constraint constant outside its column's domain raises RangeError."""
    check_range(schema, constraints, value_range)
    pool = VarPool()
    instances, formulas = [], []
    for _ in range(copies):
        inst, own = encode_instance(schema, constraints, bound, pool, value_range)
        instances.append(inst)
        formulas.extend(own)
    session = {name: pool.new_int(*value_range) for name in SESSION_PARAMS}
    return CdclBackend(pool, formulas), tuple(instances), session


def bounded(
    schema: Schema,
    constraints: list[Constraint],
    bound: int,
    value_range: tuple[int, int],
    params=(),
    copies: int = 1,
) -> tuple[VarPool, tuple[SymInstance, ...], SymEnv]:
    """The symbols every check starts from: `copies` instances (a
    determinacy pair compares two), then shared session-parameter
    symbols, then one per `(name, type)` request parameter not yet
    allocated; allocation order fixes the SAT variable numbers.  Returns
    (pool, instances, env), the pool's base holding the instance
    formulas, compiled once per context.
    `_shared` keeps four, the most a run uses: one instance and two, each
    at bound 1 and at the full bound.
    """
    base, instances, session = _shared(schema, tuple(constraints), bound, tuple(value_range), copies)
    pool = VarPool(base.comp.pool.domains[:], base)
    env = SymEnv(dict(session))
    for name, ptype in params:
        if name not in env.params:
            env.params[name] = pool.new_int(*column_domain(value_range, ptype))
    return pool, instances, env


def _row_values(inst: SymInstance, table: str, row_idx: int) -> tuple[SymValue, ...]:
    row = inst.tables[table][row_idx]
    return tuple((ivar(v), FALSE_F if n is None else bvar(n)) for v, n in zip(row.values, row.nulls))


def sym_value_eq(a: SymValue, b: SymValue):
    """Identity equality: both null, or both non-null with equal values."""
    ta, na = a
    tb, nb = b
    return lor(land(na, nb), land(lnot(na), lnot(nb), feq(ta, tb)))


def matches(tup: tuple[SymValue, ...], pairs) -> list:
    """Per (guard, tuple) of `pairs`: that row is present and equals `tup`."""
    return [land(g, *[sym_value_eq(a, b) for a, b in zip(tup, t)]) for g, t in pairs]


def encode_pred(p: Predicate, colmap, env: SymEnv):
    """Two-valued truth of a predicate; `colmap` maps Col ordinals to
    SymValues.  An atom holds on some alternative of its operands whose
    guards hold."""

    def value(term) -> Alts:
        if isinstance(term, Col):
            return ((TRUE_F, *colmap[term.index]),)
        return env.scalar(term)

    if isinstance(p, TruePred):
        return TRUE_F
    if isinstance(p, Cmp):
        return lor(*[land(ga, gb, lnot(na), lnot(nb), fcmp(p.op, ta, tb))
                     for ga, ta, na in value(p.left) for gb, tb, nb in value(p.right)])
    if isinstance(p, IsNull):
        return lor(*[land(g, n) for g, _, n in value(p.term)])
    if isinstance(p, BoolCol):
        return lor(*[land(g, lnot(n), feq(t, const(1))) for g, t, n in value(p.term)])
    if isinstance(p, Not):
        return lnot(encode_pred(p.inner, colmap, env))
    if isinstance(p, And):
        return land(encode_pred(p.left, colmap, env), encode_pred(p.right, colmap, env))
    raise EncodeError(f"cannot encode predicate {p!r}")


def result_pairs(nf: NormalFormQuery, inst: SymInstance, env: SymEnv) -> list[tuple[tuple, tuple[SymValue, ...]]]:
    """(guard, projected tuple) for every row combination of a PSJ query."""
    out = []
    for combo in itertools.product(range(inst.bound), repeat=len(nf.sources)):
        colmap: list[SymValue] = []
        presences = []
        for src, ri in zip(nf.sources, combo):
            presences.append(bvar(inst.tables[src][ri].presence))
            colmap.extend(_row_values(inst, src, ri))
        guard = land(*presences, encode_pred(nf.filter, colmap, env))
        tup = tuple(colmap[j] for j in nf.projection)
        out.append((guard, tup))
    return out


def _leftjoin_pairs(q: LeftJoinQuery, inst: SymInstance, schema: Schema, env: SymEnv):
    """Candidates: matched left+right combinations plus unmatched-left rows."""
    bound = inst.bound
    right_arity = schema.table(q.right_source).arity
    out = []
    for combo in itertools.product(range(bound), repeat=len(q.left_sources)):
        left_cols: list[SymValue] = []
        left_pres = []
        for src, ri in zip(q.left_sources, combo):
            left_pres.append(bvar(inst.tables[src][ri].presence))
            left_cols.extend(_row_values(inst, src, ri))
        match_guards = []
        for rj in range(bound):
            right_cols = list(_row_values(inst, q.right_source, rj))
            colmap = left_cols + right_cols
            m = land(
                bvar(inst.tables[q.right_source][rj].presence),
                encode_pred(q.on, colmap, env),
            )
            match_guards.append(m)
            guard = land(*left_pres, m, encode_pred(q.where, colmap, env))
            out.append((guard, tuple(colmap[j] for j in q.projection)))
        # Unmatched: every right row absent or failing the ON condition.
        null_right: list[SymValue] = [(const(0), TRUE_F)] * right_arity
        colmap = left_cols + null_right
        guard = land(
            *left_pres,
            *[lnot(m) for m in match_guards],
            encode_pred(q.where, colmap, env),
        )
        out.append((guard, tuple(colmap[j] for j in q.projection)))
    return out


@dataclass
class QueryEncoding:
    non_empty: tuple
    at_most_one: tuple
    result: tuple[Alts, ...]  # per column: each candidate row's (guard, term, null)


def encode_query(
    q,
    params: tuple[Scalar, ...],
    inst: SymInstance,
    schema: Schema,
    env: SymEnv,
) -> QueryEncoding:
    """Encode one query occurrence.

    `q` is an ExecutableQuery or a bare NormalFormQuery; placeholder
    scalars are taken from `params`.  The result reads as the matched
    row: a formula over it says "some candidate row's guard holds and the
    formula holds of that row", which means the formula of the result
    only where exactly one guard holds.  So a caller that reads the result
    in a later formula (`env.rows`) must assert `non_empty` and
    `at_most_one`; `Question.ask_path` does for each step that asserts a
    row.
    """
    # The query's own params are record scalars; bind them as placeholders.
    penv = SymEnv(env.params, dict(env.rows), tuple(env.scalar(s) for s in params))

    if isinstance(q, NormalFormQuery):
        q = PlainQuery(q, ())
    if isinstance(q, PlainQuery):
        pairs = result_pairs(q.nf, inst, penv)
    elif isinstance(q, LeftJoinQuery):
        pairs = _leftjoin_pairs(q, inst, schema, penv)
    elif isinstance(q, CountQuery):
        # A count always returns exactly one row; the DSL forbids reading
        # its value, so it has no result column.
        return QueryEncoding(TRUE_F, TRUE_F, ())
    else:
        raise EncodeError(f"cannot encode query {q!r}")

    non_empty = lor(*[g for g, _ in pairs])
    at_most_one = land(*[lnot(land(a, b)) for (a, _), (b, _) in itertools.combinations(pairs, 2)])
    result = tuple(zip(*[[(g, *v) for v in tup] for g, tup in pairs]))
    return QueryEncoding(non_empty, at_most_one, result)


def encode_constraint(c: Constraint, inst: SymInstance, schema: Schema):
    env = SymEnv()
    if isinstance(c, Unique):
        t = schema.table(c.table)
        idxs = [t.column_index(name) for name in c.columns]
        rows = inst.tables[c.table]
        parts = []
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                vi = _row_values(inst, c.table, i)
                vj = _row_values(inst, c.table, j)
                key_eq = land(
                    *[
                        land(lnot(vi[k][1]), lnot(vj[k][1]), feq(vi[k][0], vj[k][0]))
                        for k in idxs
                    ]
                )
                parts.append(lnot(land(bvar(rows[i].presence), bvar(rows[j].presence), key_eq)))
        return land(*parts)
    if isinstance(c, Containment):
        left_pairs = result_pairs(c.left, inst, env)
        if isinstance(c.right, LiteralRelation):
            right_pairs = [
                (TRUE_F, tuple((const(v if v is not None else 0), TRUE_F if v is None else FALSE_F) for v in row))
                for row in c.right.rows
            ]
        else:
            right_pairs = result_pairs(c.right, inst, env)
        return land(*[implies(g, lor(*matches(tup, right_pairs))) for g, tup in left_pairs])
    raise EncodeError(f"cannot encode constraint {c!r}")


# ---------------------------------------------------------------------------
# Solving and model extraction


def _set_eq(pairs_a, pairs_b):
    """Result sets equal: mutual membership over distinct tuples."""
    return land(
        *[lor(lnot(g), *matches(tup, pairs_b)) for g, tup in pairs_a],
        *[lor(lnot(g), *matches(tup, pairs_a)) for g, tup in pairs_b],
    )


def _set_neq(pairs_a, pairs_b):
    """Some tuple of A's result with no equal tuple in B's.

    One direction suffices: the two instances are interchangeable, so any
    distinguishing pair can be swapped into this orientation.
    """
    return lor(*[land(g, *[lnot(m) for m in matches(tup, pairs_b)]) for g, tup in pairs_a])


@dataclass
class Question:
    """Bounded questions over one context, for the life of one stage call.
    A stage states what it asks, a path (`ask_path`) or a determinacy
    pair (`ask_determinacy`), and only this class builds the formulas.
    Each path prefix's canonical instance is chased once, from a copy of
    its parent's (a trie of steps, `_instance`), and that one chased
    instance may refute the path (`chase_refutes`), give its input
    (`chased_input`) or count its witness closure (`row_bounds`): a
    countermodel within `bound` rows has one within min(bound, r_T) rows
    of each table T.  Any other question goes to the rungs: each rung
    (bound 1, and `bound`) of each instance count gets one incremental
    search at its first question, and every later question on that rung
    reuses it, with the formulas it has encoded (a `memo`, see `ask`;
    never a verdict).  A determinacy pair keeps the full bound."""

    schema: Schema
    constraints: list[Constraint]
    bound: int
    value_range: tuple[int, int]
    params: tuple = ()
    timeout_s: float | None = 5.0
    _rungs: dict = field(default_factory=dict, init=False, repr=False)  # (bound, copies) -> (search, instances, params, memo)
    _trie: dict = field(default_factory=dict, init=False, repr=False)  # step -> (prefix's chased instance, extensions)

    def ask_path(self, steps) -> tuple[str, tuple[ConcreteInput, ...]]:
        """Whether the constraints and the path `steps` hold together on one
        instance; returns `ask`'s answer.

        A step is a branch `(pred, outcome)` or a query `(index, query,
        params, empty)`: `empty` False asserts that the query returned a
        row, which later steps read as `RowCol(index, _)`, True that it
        returned none, and None neither.  Every query step also asserts
        that the query returns at most one row.  A step given twice is
        asserted once.  A path `chase_refutes` is unsat without a rung,
        and one `chased_input` answers is sat without one.

        A prefix's formulas depend only on the rung and the prefix, so the
        rung's memo holds them as a trie: a node is a prefix's formulas by
        step, the query results later steps read and its extended prefixes,
        and a missing node is encoded from copies of its parent's."""

        def encode(instances, env, memo) -> list:
            (inst,) = instances
            formulas, rows, children = {}, {}, memo  # the empty prefix
            for step in steps:
                node = children.get(step)
                if node is None:  # the prefix extended by `step`, encoded from copies of its parent's
                    formulas, penv = dict(formulas), SymEnv(env.params, rows)
                    if len(step) == 2:
                        f = encode_pred(step[0], {}, penv)
                        formulas.setdefault(step, f if step[1] else lnot(f))
                    else:
                        index, q, params, empty = step
                        enc = encode_query(q, params, inst, self.schema, penv)
                        if empty is not None:
                            formulas.setdefault(step, lnot(enc.non_empty) if empty else enc.non_empty)
                            if not empty:
                                rows = {**rows, index: enc.result}
                        formulas.setdefault(("amo", index, q, params), enc.at_most_one)
                    node = children[step] = formulas, rows, {}
                formulas, rows, children = node
            return list(formulas.values())

        if self.chase_refutes(steps):
            return "unsat", ()
        ci = self.chased_input(steps)
        return ("sat", (ci,)) if ci is not None else self.ask(encode, 1, steps)

    def ask_determinacy(self, q: NormalFormQuery, views) -> tuple[str, tuple[ConcreteInput, ...]]:
        """Whether two instances that share the session parameters can agree
        on the result of every one of `views` and differ on `q`'s; returns
        `ask`'s answer, a pair of inputs when it is sat."""

        def encode(instances, env, memo) -> list:
            def pairs(nf):
                return [result_pairs(nf, inst, env) for inst in instances]

            return [_set_eq(*pairs(v)) for v in views] + [_set_neq(*pairs(q))]

        return self.ask(encode, 2)

    def ask(self, encode, copies: int, steps=None) -> tuple[str, tuple[ConcreteInput, ...]]:
        """Decide the formulas `encode(instances, env, memo)` builds over the
        `bounded` context of `copies` instances, at bound 1 and then, unless
        that is sat, at `bound`; `memo` is a dict that lives as long as the
        rung, for what `encode` derives from the rung alone.  Returns the
        last check's status and, when it is sat, one input per instance,
        its request holding `params`.  An input that breaks a constraint
        raises InternalSolverError.

        With a path's `steps` (see `row_bounds`), the closure is counted
        only once bound 1 is unsat (not unknown): the full-bound rung is
        then unsat without a search when no r_T exceeds 1, and otherwise it
        assumes row r_T of each T absent, so row order drops the rest."""
        for b in dict.fromkeys((1, self.bound)):
            rows = self.row_bounds(steps) if b > 1 and steps is not None and verdict.status == "unsat" else None
            if rows is not None and max(rows.values()) <= 1:
                break
            if (b, copies) not in self._rungs:
                pool, instances, env = bounded(self.schema, self.constraints, b, self.value_range, self.params, copies)
                self._rungs[b, copies] = CdclBackend(pool), instances, env.params, {}
            search, instances, params, memo = self._rungs[b, copies]
            env = SymEnv(dict(params))
            formulas = encode(instances, env, memo)
            if rows is not None:
                formulas += [lnot(bvar(inst.tables[t][r].presence)) for inst in instances for t, r in rows.items()
                             if r < b]
            verdict = search.check(formulas, self.timeout_s)
            if verdict.status != "sat":
                continue
            inputs = tuple(model_to_input(verdict.model, inst, self.schema, env, [n for n, _ in self.params])
                           for inst in instances)
            for ci in inputs:
                ok, viol = validate_instance(ci, self.constraints, self.schema)
                if not ok:
                    raise InternalSolverError(f"model breaks a constraint: {viol}")
            return "sat", inputs
        return verdict.status, ()

    @functools.cached_property
    def _dependencies(self) -> tuple:
        return dependencies(tuple(self.constraints), self.schema)

    def _instance(self, steps) -> Growing | None:
        """The chased canonical instance of the path `steps` (see
        `ask_path`), or None for a LEFT JOIN step or two witnesses on one
        result index; each prefix is built and chased once, from its
        parent's."""
        body, children = Growing(self.schema, 0), self._trie
        for step in dict.fromkeys(steps):
            if body is None:
                return None
            node = children.get(step)
            if node is None:
                node = children[step] = self._extend(body, step), {}
            body, children = node
        return body

    def _extend(self, body: Growing, step) -> Growing | None:
        """`body` and a non-empty PSJ step's witness row, whose params fill
        its placeholders and whose result columns are its classes, or a
        branch's conjuncts; chased, with as many rows into a cycle as the
        step adds."""
        if len(step) == 4:
            index, q, params, empty = step
            if isinstance(q, LeftJoinQuery) or empty is False and any(r.query_index == index for r in body.results):
                return None
            if empty is not False or isinstance(q, CountQuery):
                return body
            body, nf = body.copy(), q.nf if isinstance(q, PlainQuery) else q
            h = body.attach(nf, _filled(nf, params) or ((), (), ()))
            body.results.update({RowCol(index, j): h[o] for j, o in enumerate(nf.projection)})
            cap = len(nf.sources)
        else:
            pred, outcome = _positive(*step)
            if not ((facts := atoms(pred if outcome else Not(pred), True)) and any(facts)):
                return body
            body, cap = body.copy(), 0
            body.assume(facts, ())
        body.chase(*self._dependencies[:2], cap)
        return body

    def chase_refutes(self, steps) -> bool:
        """Whether the chased canonical instance of the path `steps` (see
        `ask_path`) before its last step answers that step, asserted
        negatively: a fetch asserted empty maps into its rows, a COUNT is
        asserted empty, or a branch asserted false holds there; or two
        distinct literals share a class.  Then the path is unsat at every
        bound and range, the chase capped or not."""
        if not steps:
            return False
        *premises, last = steps
        if len(last) == 4:
            _, q, params, empty = last
            if empty is not True or isinstance(q, (LeftJoinQuery, CountQuery)):
                return empty is True and isinstance(q, CountQuery)  # a COUNT returns a row
            nf = q.nf if isinstance(q, PlainQuery) else q
            goal = nf, _filled(nf, params)
        else:
            pred, outcome = _positive(*last)
            if outcome:
                return False
            goal = NormalFormQuery((), pred, ()), atoms(pred, True)
        if goal[1] is None or (body := self._instance(premises)) is None:
            return False
        return body.clash or next(body.matches(*goal), None) is not None

    def row_bounds(self, steps) -> dict[str, int] | None:
        """The witness closure's rows per table (see the module docstring)
        of the path `steps` (see `ask_path`): `chase.Body.closure` of its
        chased canonical instance.  None for a LEFT JOIN step (a deleted
        right row can make an unmatched-left row), a cyclic `contain` graph
        or one a tgd misses, or two witnesses on one index."""
        tgds, _, counted = self._dependencies
        body = self._instance(steps) if counted else None
        return None if body is None else body.closure(tgds)

    def chased_input(self, steps) -> ConcreteInput | None:
        """An input that takes the path `steps` (see `ask_path`), read from
        its chased canonical instance, or None.  Its rows are the
        instance's distinct rows.  A class holding a literal takes it, and
        any other, in the order of the solver's symbols (rows, then session
        and request parameters), the lowest value of its domain that none
        of its neighbours holds: the other side of a disequality it is
        asserted, or a key column where two rows of a `unique` line differ.
        None when a table needs more than `bound` rows or a class a value
        outside its domain, and unless the input satisfies the constraints
        and every step evaluates as asserted."""
        body = self._instance(steps)
        if body is None or body.clash:
            return None
        rows = {t: list(dict.fromkeys(tuple(map(body.find, r)) for r in rs)) for t, rs in body.rows.items()}
        if max(map(len, rows.values()), default=0) > self.bound:
            return None
        cells = []  # (class, its domain) per symbol
        for t in self.schema.tables:
            columns = [column_domain(self.value_range, c.type) for c in t.columns]
            cells += [cell for r in rows.get(t.name, ()) for cell in zip(r, columns)]
        cells += [(body.find(SessionParam(name)), self.value_range) for name in SESSION_PARAMS]
        cells += [(body.find(RequestParam(n)), column_domain(self.value_range, ptype)) for n, ptype in self.params]
        neighbours = collections.defaultdict(set)
        for x, y in [tuple(body.node(h, t) for t in terms) for a, h in body.others if (terms := _apart(a))] + [
                (r[k], s[k]) for name, key in self._dependencies[1]
                for r, s in itertools.combinations(rows.get(name, ()), 2) for k in key if r[k] != s[k]]:
            neighbours[x].add(y)
            neighbours[y].add(x)
        values = {n: int(n.value) for n in [*neighbours, *(n for n, _ in cells)] if isinstance(n, (IntLit, BoolLit))}
        for n, (lo, hi) in cells:
            if n not in values:
                taken = {values.get(m) for m in neighbours[n]} if n in neighbours else ()
                values[n] = next((v for v in range(lo, hi + 1) if v not in taken), None)
        if not all(values[n] is not None and lo <= values[n] <= hi for n, (lo, hi) in cells):
            return None
        tables = {t.name: tuple(dict.fromkeys(tuple(values[n] for n in r) for r in rows.get(t.name, ())))
                  for t in self.schema.tables}
        ci = ConcreteInput("", "", tables, {name: values[body.find(SessionParam(name))] for name in SESSION_PARAMS},
                           {name: values[body.find(RequestParam(name))] for name, _ in self.params})
        valid = validate_instance(ci, self.constraints, self.schema)[0]
        return ci if valid and _follows(steps, ci, self.schema) else None


def _positive(pred: Predicate, outcome: bool) -> tuple[Predicate, bool]:
    """The branch `(pred, outcome)` with the NOTs around `pred` folded into `outcome`."""
    while isinstance(pred, Not):
        pred, outcome = pred.inner, not outcome
    return pred, outcome


def _apart(a: Predicate):
    """The two terms the atom `a` keeps apart (`x <> y`, `NOT x = y`, or
    `NOT x` as `x <> 1`), or None."""
    if isinstance(a, Not) and isinstance(a.inner, BoolCol):
        return a.inner.term, IntLit(1)
    if isinstance(a, Not) and isinstance(a.inner, Cmp) and a.inner.op == "=":
        return a.inner.left, a.inner.right
    return (a.left, a.right) if isinstance(a, Cmp) and a.op == "<>" else None


def _follows(steps, ci: ConcreteInput, schema: Schema) -> bool:
    """Whether `ci` takes the path `steps` (see `Question.ask_path`): each
    branch has its outcome, and each query returns at most one row, and
    a row or none as its step asserts."""
    env = ScalarEnv(session=ci.session, request=ci.request)
    for step in steps:
        if len(step) == 2:
            if eval_branch(step[0], env) != step[1]:
                return False
            continue
        index, q, params, empty = step
        placeholders = tuple(map(env.lookup, params))
        q = PlainQuery(q, ()) if isinstance(q, NormalFormQuery) else q
        rows = eval_executable(q, ci, schema, ScalarEnv(env.session, env.request, env.rows, placeholders))
        if len(rows) > 1 or empty is not None and empty != (not rows):
            return False
        if empty is False:
            (env.rows[index],) = rows
    return True


@functools.lru_cache(maxsize=4096)
def _filled(nf: NormalFormQuery, params: tuple):  # `chase.atoms` of a query's filter on one instance, given its params
    return atoms(substitute_placeholders(nf.filter, params), True)


def model_to_input(model: dict, inst: SymInstance, schema: Schema, env: SymEnv, request_params=()) -> ConcreteInput:
    """Materialize present rows and parameter values from a Sat model."""
    tables = {}
    for t in schema.tables:
        rows = []
        for row in inst.tables[t.name]:
            if not model[row.presence]:
                continue
            rows.append(tuple(None if n is not None and model[n] else model[v] for v, n in zip(row.values, row.nulls)))
        tables[t.name] = tuple(rows)
    session = {name: model[env.params[name]] for name in SESSION_PARAMS}
    request = {name: model[env.params[name]] for name in request_params}
    return ConcreteInput("", "", tables, session, request)
