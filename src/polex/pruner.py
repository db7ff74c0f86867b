"""Information containment and policy minimization.

A query is allowed under a policy iff it can be answered from the views
alone.  Two paths decide this:

  * Rewriting.  When the query equals a selection and projection over a
    product of view results (each view mapped table for table onto the
    query's sources), it is computed from the views on every instance,
    so Allowed holds at every bound and value range.  No solver runs.
    One rule, the lossless hop, widens this.  If only `R.a = S.k` joins
    a source S, the constraint list holds `contain SELECT a FROM R in
    SELECT k FROM S` (an `fk` line) and `unique S(k)`, and R.a is not
    nullable, then every R row joins exactly one S row.  So S drops from
    the query if it projects none of S's columns, and from a view to
    form a derived view, a projection of the view's result.  Foreign
    keys come from the (user-editable) constraint list, not the schema.
  * Solver.  Otherwise the pruner states a determinacy pair
    (`solver.Question.ask_determinacy`) and `solver` builds its formulas:
    two constraint-satisfying instances (within the table bound and value
    range) that share session-parameter values and agree on every view's
    result set yet disagree on the query.  No such pair means Allowed (at
    this bound); a found pair (each instance checked against the
    constraints by `solver.Question.ask`) is verified by brute-force
    evaluation before it is reported.  A prune pass keeps one
    `solver.Question` for all its checks, bound 1 first, so a reported
    pair has at most one row per table whenever such a pair exists (and
    the bound-1 search ends in time).

Pruning walks views in decreasing join count (ties: longer SQL text
first, then lexicographic) and greedily removes any view already
answerable from the rest; Unknown verdicts never remove a view.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

from .constraints import Constraint, Containment, Unique
from .evaluate import ScalarEnv, eval_nf
from .instance import ConcreteInput
from .normal import NormalFormQuery, source_ranges
from .policygen import View
from .schema import Schema
from .solver import Question
from .terms import (
    SESSION_PARAMS,
    BoolLit,
    Cmp,
    Col,
    IntLit,
    IsNull,
    Not,
    NullLit,
    Predicate,
    SessionParam,
    TRUE,
    conjoin,
    conjuncts,
    iter_terms,
    map_terms,
)
from .unparse import unparse_view

ALLOWED = "allowed"
NOT_ALLOWED = "not_allowed"
UNKNOWN = "unknown"

# Which path decided a verdict.
REWRITING = "rewriting"
SOLVER = "solver"


@dataclass
class ContainmentVerdict:
    status: str
    counterexample: tuple[ConcreteInput, ConcreteInput] | None = None
    via: str = SOLVER

    @property
    def allowed(self) -> bool:
        return self.status == ALLOWED


@dataclass
class Policy:
    views: list[View]
    bound: int = 2
    value_range: tuple[int, int] = (0, 7)


class PrunerError(Exception):
    pass


# ---------------------------------------------------------------------------
# Rewriting fast path

_FLIPPED = {">": "<", ">=": "<="}


def _plain(t) -> bool:
    """A column, a constant or a session parameter: both instances share the latter two."""
    if isinstance(t, SessionParam):
        return t.name in SESSION_PARAMS
    return isinstance(t, (Col, IntLit, BoolLit, NullLit))


def _atoms(p: Predicate) -> frozenset | None:
    """The conjuncts of `p` in canonical form; None if a term is not plain.

    The operands of = and <> are sorted and > / >= are flipped; NOT, IS NULL
    and boolean atoms are kept as written.
    """
    out = set()
    for a in conjuncts(p):
        if not all(_plain(t) for t in iter_terms(a)):
            return None
        if isinstance(a, Cmp) and a.op in _FLIPPED:
            a = Cmp(_FLIPPED[a.op], a.right, a.left)
        elif isinstance(a, Cmp) and a.op in ("=", "<>"):
            a = Cmp(a.op, *sorted((a.left, a.right), key=repr))
        out.add(a)
    return frozenset(out)


@dataclass(frozen=True)
class _Use:
    """A view mapped onto some of the query's sources."""

    positions: frozenset  # query source positions the view's sources map to
    columns: frozenset  # query ordinals the view projects
    atoms: frozenset  # the view's conjuncts, in query ordinals


def _uses(v: NormalFormQuery, q: NormalFormQuery, q_atoms: frozenset, schema: Schema):
    """Every injective, table-for-table map of `v`'s sources onto `q`'s under
    which each conjunct of `v` is a conjunct of `q`."""
    v_ranges = source_ranges(schema, v.sources)
    q_start = [lo for lo, _ in source_ranges(schema, q.sources)]
    for image in itertools.permutations(range(len(q.sources)), len(v.sources)):
        if any(q.sources[j] != t for j, t in zip(image, v.sources)):
            continue
        ordinal = {}
        for (lo, hi), j in zip(v_ranges, image):
            for o in range(lo, hi):
                ordinal[o] = q_start[j] + o - lo
        atoms = _atoms(map_terms(v.filter, lambda t: Col(ordinal[t.index]) if isinstance(t, Col) else t))
        if atoms is not None and atoms <= q_atoms:
            yield _Use(frozenset(image), frozenset(ordinal[c] for c in v.projection), atoms)


def _reapplicable(q: NormalFormQuery, q_atoms: frozenset, uses: list[_Use]) -> bool:
    """Whether `q`'s projection and the conjuncts no use gives (those joining
    two uses among them) touch only columns the uses project."""
    visible = frozenset().union(*(u.columns for u in uses))
    needed = set(q.projection)
    for a in q_atoms.difference(*(u.atoms for u in uses)):
        needed.update(t.index for t in iter_terms(a) if isinstance(t, Col))
    return needed <= visible


def _lossless_hops(constraints: list[Constraint], schema: Schema) -> frozenset:
    """(R, a, S, k), column ordinals within each table, for every join
    `R.a = S.k` that each R row passes with exactly one S row: the list
    holds `contain SELECT a FROM R in SELECT k FROM S` (the `fk` form's
    `a IS NOT NULL` filter allowed) and `unique S(k)`, and R.a is not
    nullable."""
    keys = {(c.table, c.columns) for c in constraints if isinstance(c, Unique)}
    hops = set()
    for c in constraints:
        if not (isinstance(c, Containment) and isinstance(c.right, NormalFormQuery) and c.right.filter == TRUE
                and len(c.left.sources) == len(c.right.sources) == len(c.left.projection) == 1):
            continue
        (r,), (a,), (s,), (k,) = c.left.sources, c.left.projection, c.right.sources, c.right.projection
        if (c.left.filter in (TRUE, Not(IsNull(Col(a)))) and not schema.table(r).columns[a].nullable
                and (s, (schema.table(s).columns[k].name,)) in keys):
            hops.add((r, a, s, k))
    return frozenset(hops)


def _hops_dropped(v: NormalFormQuery, hops: frozenset, schema: Schema):
    """`v` without each source that a lossless hop reaches and no other
    conjunct mentions, with the hop and the source's columns removed."""
    ranges = source_ranges(schema, v.sources)
    parts = conjuncts(v.filter)
    for j, (lo, hi) in enumerate(ranges):
        touching = [p for p in parts if any(isinstance(t, Col) and lo <= t.index < hi for t in iter_terms(p))]
        hop = touching[0] if len(touching) == 1 else None
        if not (isinstance(hop, Cmp) and hop.op == "=" and isinstance(hop.left, Col) and isinstance(hop.right, Col)):
            continue
        a, k = sorted((hop.left.index, hop.right.index), key=lambda o: lo <= o < hi)
        i = next(i for i, (rlo, rhi) in enumerate(ranges) if rlo <= a < rhi)
        if i == j or (v.sources[i], a - ranges[i][0], v.sources[j], k - lo) not in hops:
            continue

        def shift(o: int) -> int:
            return o - (hi - lo) if o >= hi else o

        yield NormalFormQuery(
            tuple(shift(c) for c in v.projection if not lo <= c < hi),
            conjoin(map_terms(p, lambda t: Col(shift(t.index)) if isinstance(t, Col) else t)
                    for p in parts if p is not hop),
            v.sources[:j] + v.sources[j + 1:],
        )


def _has_rewriting(
    q: NormalFormQuery, views: list[NormalFormQuery], constraints: list[Constraint], schema: Schema
) -> bool:
    """Whether `q`, or `q` with its lossless hops dropped, has a rewriting
    over `views` and the views derived from them by dropping lossless hops.

    Dropping a hop keeps the query equal on every instance that satisfies
    the constraints when the query projects none of the dropped source's
    columns; a derived view is a projection of its view's result.  `q` as
    written is tried too: a view that is a bare product with the hop's
    target can cover it only there.
    """
    hops = _lossless_hops(constraints, schema)
    derived = list(views)
    for v in derived:  # grows as it goes: chains drop hop by hop
        derived += [w for w in _hops_dropped(v, hops, schema) if w not in derived]
    reduced = q
    while (w := next((w for w in _hops_dropped(reduced, hops, schema)
                      if len(w.projection) == len(q.projection)), None)) is not None:
        reduced = w
    return any(_rewrites(x, derived, schema) for x in dict.fromkeys((q, reduced)))


def _rewrites(q: NormalFormQuery, views: list[NormalFormQuery], schema: Schema) -> bool:
    """Whether `q` equals σ/π over a product of view uses that split its sources.

    The rewriting re-applies the conjuncts no use gives and `q`'s projection.
    Its expansion has `q`'s sources and conjuncts, and it reads only the
    views' result sets, so the views determine `q` on every instance (set
    semantics, shared constants and session parameters).  A view may be
    used more than once, as in a self-join.
    """
    q_atoms = _atoms(q.filter)
    if q_atoms is None:
        return False
    uses = [u for v in views for u in _uses(v, q, q_atoms, schema)]
    everything = frozenset(range(len(q.sources)))

    def cover(done: frozenset, chosen: list[_Use]) -> bool:
        if done == everything:
            return _reapplicable(q, q_atoms, chosen)
        first = min(everything - done)
        return any(
            cover(done | u.positions, chosen + [u])
            for u in uses
            if first in u.positions and not u.positions & done
        )

    return cover(frozenset(), [])


# ---------------------------------------------------------------------------
# Determinacy


def is_allowed(q: NormalFormQuery, views: list[NormalFormQuery], question: Question) -> ContainmentVerdict:
    """Determinacy check of `q` against `views` under `question`'s schema
    and constraints: by rewriting if one exists, else by the bounded
    solver check on `question`."""
    if _has_rewriting(q, views, question.constraints, question.schema):
        return ContainmentVerdict(ALLOWED, via=REWRITING)
    return _is_allowed_by_solver(q, views, question)


def _is_allowed_by_solver(q: NormalFormQuery, views: list[NormalFormQuery], question: Question) -> ContainmentVerdict:
    """Bounded two-instance determinacy check of `q` against `views`."""
    status, inputs = question.ask_determinacy(q, views)
    if status == "unknown":
        return ContainmentVerdict(UNKNOWN)
    if status == "unsat":
        return ContainmentVerdict(ALLOWED)
    ca, cb = (replace(ci, input_id=f"counterexample-{side}") for ci, side in zip(inputs, "ab"))
    _verify_counterexample(q, views, question.schema, ca, cb)
    return ContainmentVerdict(NOT_ALLOWED, (ca, cb))


def _verify_counterexample(q, views, schema, ca, cb) -> None:
    """A NotAllowed verdict must hold under brute-force evaluation;
    `solver.Question.ask` has checked both instances against the
    constraints."""
    if ca.session != cb.session:
        raise PrunerError("counterexample instances disagree on session parameters")
    env_a = ScalarEnv(session=dict(ca.session))
    env_b = ScalarEnv(session=dict(cb.session))
    for v in views:
        if eval_nf(v, ca, schema, env_a) != eval_nf(v, cb, schema, env_b):
            raise PrunerError("counterexample instances disagree on a policy view")
    if eval_nf(q, ca, schema, env_a) == eval_nf(q, cb, schema, env_b):
        raise PrunerError("counterexample instances agree on the checked query")


def _prune_order(views: list[View], schema: Schema) -> list[View]:
    def key(v: View):
        text = unparse_view(v.nf, schema)
        joins = len(v.nf.sources) - 1
        return (-joins, -len(text), text)

    return sorted(views, key=key)


def prune(
    policy: Policy,
    constraints: list[Constraint],
    schema: Schema,
    timeout_s: float = 5.0,
    pinned: frozenset = frozenset(),
) -> tuple[Policy, list[View]]:
    """Single greedy pass; returns (pruned policy, removed views).

    Views whose normal form is in `pinned` are never removed.
    """
    question = Question(schema, constraints, policy.bound, policy.value_range, timeout_s=timeout_s)
    return _prune_pass(policy, question, pinned)


def _prune_pass(policy: Policy, question: Question, pinned: frozenset) -> tuple[Policy, list[View]]:
    """`prune`'s pass, asking on `question`."""
    schema = question.schema
    current = list(policy.views)
    removed: list[View] = []
    for v in _prune_order(policy.views, schema):
        if v.nf in pinned or v not in current:
            continue
        rest = [w.nf for w in current if w is not v]
        if is_allowed(v.nf, rest, question).allowed:
            current = [w for w in current if w is not v]
            removed.append(v)
    return Policy(current, policy.bound, policy.value_range), removed


def merge_and_prune(
    policies: list[Policy],
    constraints: list[Constraint],
    schema: Schema,
    timeout_s: float = 5.0,
) -> tuple[Policy, list[View]]:
    """Union of per-handler policies, deduplicated, then pruned."""
    if not policies:
        return Policy([], 2), []
    bound = policies[0].bound
    value_range = policies[0].value_range
    merged: list[View] = []
    seen = set()
    for p in policies:
        if (p.bound, p.value_range) != (bound, value_range):
            raise PrunerError("policies merged with different bounds")
        for v in p.views:
            if v.nf not in seen:
                seen.add(v.nf)
                merged.append(v)
    return prune(Policy(merged, bound, value_range), constraints, schema, timeout_s)


@dataclass
class BroadenReport:
    removed: list[tuple[View, list[int]]] = field(default_factory=list)
    # each removed view is attributed to the indices of the user views
    # that individually make it redundant (empty: only jointly redundant)


def broaden(
    policy: Policy,
    user_views: list[View],
    constraints: list[Constraint],
    schema: Schema,
    timeout_s: float = 5.0,
) -> tuple[Policy, BroadenReport]:
    """Add pinned user views, re-prune, and report what became redundant."""
    seen = {v.nf for v in policy.views}
    added = [v for v in user_views if v.nf not in seen]
    combined = Policy(policy.views + added, policy.bound, policy.value_range)
    pinned = frozenset(v.nf for v in user_views)
    question = Question(schema, constraints, policy.bound, policy.value_range, timeout_s=timeout_s)
    pruned, removed = _prune_pass(combined, question, pinned)
    report = BroadenReport()
    base = [v.nf for v in pruned.views if v.nf not in pinned]
    for v in removed:
        blame = [i for i, u in enumerate(user_views) if is_allowed(v.nf, base + [u.nf], question).allowed]
        report.removed.append((v, blame))
    return pruned, report
