"""Information containment and policy minimization.

A query is allowed under a policy iff it can be answered from the views
alone.  `is_allowed` decides by rewriting alone: when `_has_rewriting`
finds the query equal to a selection and projection over view results
under the constraint list, Allowed holds at every bound and value range;
otherwise the verdict is NoRewriting.  No solver runs, so every prune
removal holds at every bound and range.  A view determined without a
rewriting (Nash, Segoufin & Vianu, TODS 2010) is kept: finite
determinacy of CQ views is undecidable, and only a bounded search sees it.

`counterexample`, which only the `is-allowed` command calls, states a
determinacy pair (`solver.Question.ask_determinacy`): two
constraint-satisfying instances within the table bound and value range
that share session-parameter values and agree on every view's result
set yet disagree on the query.  A found pair (each instance checked
against the constraints by `solver.Question.ask`, bound 1 first, so it
has at most one row per table whenever such a pair exists) is verified
by brute-force evaluation and reported NotAllowed; none gives
Determined, which holds at this bound and range only.

Pruning walks views in decreasing join count (ties: longer SQL text
first, then lexicographic) and greedily removes any view the rest
rewrite.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field, replace

from .constraints import Constraint, Unique
from .evaluate import ScalarEnv, eval_nf
from .instance import ConcreteInput
from .normal import NormalFormQuery
from .policygen import View
from .schema import Schema
from .solver import Question
from .terms import (
    SESSION_PARAMS,
    BoolCol,
    BoolLit,
    Cmp,
    Col,
    IntLit,
    IsNull,
    Not,
    NullLit,
    Predicate,
    SessionParam,
    conjuncts,
    iter_terms,
    map_terms,
)
from .unparse import unparse_view

ALLOWED = "allowed"
NO_REWRITING = "no_rewriting"
NOT_ALLOWED = "not_allowed"
DETERMINED = "determined"
UNKNOWN = "unknown"


@dataclass
class ContainmentVerdict:
    status: str
    counterexample: tuple[ConcreteInput, ConcreteInput] | None = None

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
# Rewriting: chase and backchase

_FLIPPED = {">": "<", ">=": "<="}


def _plain(t) -> bool:
    """A column, a constant or a session parameter: both instances share the latter two."""
    if isinstance(t, SessionParam):
        return t.name in SESSION_PARAMS
    return isinstance(t, (Col, IntLit, BoolLit, NullLit))


def _canonical(a: Predicate) -> Predicate:
    """`a` with the operands of = and <> sorted and > / >= flipped: over
    classes, an atom that is not an equality must match verbatim."""
    if isinstance(a, Cmp) and a.op in _FLIPPED:
        return Cmp(_FLIPPED[a.op], a.right, a.left)
    return Cmp(a.op, *sorted((a.left, a.right), key=repr)) if isinstance(a, Cmp) and a.op in ("=", "<>") else a


@functools.lru_cache(maxsize=4096)
def _atoms(p: Predicate):
    """(equalities as term pairs, terms known non-null, other conjuncts) of
    `p`, or None if a term is not plain."""
    eqs, non_null, others = [], [], []
    for a in conjuncts(p):
        if not all(_plain(t) for t in iter_terms(a)):
            return None
        a = Cmp("=", a.term, IntLit(1)) if isinstance(a, BoolCol) else a
        if isinstance(a, Not) and isinstance(a.inner, IsNull):
            non_null.append(a.inner.term)
        elif isinstance(a, Cmp) and a.op == "=" and NullLit() not in (a.left, a.right):
            eqs.append((a.left, a.right))
        else:
            others.append(a)
        non_null += (t for t in iter_terms(a) if isinstance(a, Cmp) and isinstance(t, Col))
    return tuple(eqs), tuple(non_null), tuple(others)


class _Body:
    """A query body under the chase: rows of tables over nodes (an int per
    column, or a constant or session parameter) in a union-find of values,
    NULL included; the classes known non-null; and the other conjuncts."""

    def __init__(self, schema: Schema, first: int):
        self.schema, self.next = schema, first
        self.rows, self.parent, self.non_null, self.others = {}, {}, set(), []

    def find(self, n):
        while n in self.parent:
            n = self.parent[n]
        return n

    def node(self, h, t):  # the class of term `t` under `h`
        return self.find(h[t.index] if isinstance(t, Col) else t)

    def known(self, n) -> bool:
        return (r := self.find(n)) in self.non_null or not isinstance(r, (int, NullLit))

    def union(self, a, b) -> bool:
        """Identify the classes of `a` and `b` under `a`'s root, or a constant."""
        a, b = self.find(a), self.find(b)
        if a == b:
            return False
        if not isinstance(b, int):
            a, b = b, a
        self.parent[b] = a
        if b in self.non_null:
            self.non_null.add(a)
        return True

    def attach(self, q: NormalFormQuery, atoms, image=()) -> list:
        """Rows of fresh nodes for `q`'s sources under `atoms`, its projection
        identified with `image`; the nodes by ordinal."""
        h = []
        for name in q.sources:
            columns = self.schema.table(name).columns
            self.rows.setdefault(name, []).append(row := tuple(range(self.next, self.next + len(columns))))
            self.non_null.update(n for n, c in zip(row, columns) if not c.nullable)
            self.next += len(columns)
            h += row
        for o, n in zip(q.projection, image):
            self.union(n, h[o])
        self.assume(atoms, h)
        return h

    def assume(self, atoms, h) -> None:
        eqs, non_null, others = atoms
        for a, b in eqs:
            self.union(self.node(h, a), self.node(h, b))
        self.non_null.update(self.node(h, t) for t in non_null)
        self.others += [(a, h) for a in others]

    def matches(self, q: NormalFormQuery, atoms, fixed=()):
        """Each map of `q`'s sources onto rows, table for table, under which
        `atoms` and the equalities `fixed` hold."""
        eqs, non_null, others = atoms
        eqs = [*fixed, *eqs]
        facts = {_canonical(map_terms(a, functools.partial(self.node, g))) for a, g in self.others} if others else ()
        for rows in itertools.product(*(self.rows.get(s, ()) for s in q.sources)):
            h = sum(rows, ())
            if (all(self.node(h, a) == self.node(h, b) for a, b in eqs)
                    and all(self.known(self.node(h, t)) for t in non_null)
                    and all(_canonical(map_terms(a, functools.partial(self.node, h))) in facts for a in others)):
                yield h

    def chase(self, tgds, egds, cap) -> None:
        """Chase until no dependency applies, the tgds spending at most `cap`;
        a tgd fires where no match of its right side gives its left's image."""
        changed, met = True, set()
        while changed:
            changed, seen = False, {}
            for name, key in egds:
                for row in self.rows.get(name, ()):
                    k = (name, key, tuple(self.find(row[i]) for i in key))
                    other = seen.setdefault(k, row) if all(map(self.known, k[2])) else row
                    for a, b in zip(other, row) if other is not row else ():
                        changed |= self.union(a, b)
            for i, (left, la, right, ra, cost) in enumerate(tgds):
                for g in list(self.matches(left, la)):
                    image = tuple(self.find(g[o]) for o in left.projection)
                    if (i, image) not in met and cost <= cap and next(
                            self.matches(right, ra, list(zip(image, map(Col, right.projection)))), None) is None:
                        self.attach(right, ra, image)
                        cap, changed = cap - cost, True
                    met.add((i, image))


@functools.lru_cache(maxsize=64)
def _dependencies(constraints: tuple[Constraint, ...], schema: Schema):
    """(tgds as (left, its atoms, right, its atoms, cost), egds as (table,
    key ordinals)).  A tgd's cost is the sources it adds if its right side
    leads into a cycle of the tgds' table graph, else 0."""
    tgds, egds, graph = [], [], {}
    for c in constraints:
        if isinstance(c, Unique):
            egds.append((c.table, tuple(map(schema.table(c.table).column_index, c.columns))))
        elif isinstance(c.right, NormalFormQuery) and len(c.left.sources) == 1:
            tgds.append((c.left, _atoms(c.left.filter), c.right, _atoms(c.right.filter)))
            graph.setdefault(c.left.sources[0], set()).update(c.right.sources)
    for _ in range(len(graph)):  # drop the sinks
        graph = {t: targets for t, targets in graph.items() if targets & graph.keys()}
    tgds = [(*d, 0 if graph.keys().isdisjoint(d[2].sources) else len(d[2].sources)) for d in tgds if None not in d]
    return tgds, egds


def _has_rewriting(
    q: NormalFormQuery, views: list[NormalFormQuery], constraints: list[Constraint], schema: Schema
) -> bool:
    """Whether `q` equals a selection and projection over a product of view
    results on every instance that satisfies `constraints`: one chase and
    backchase (Deutsch, Popa & Tannen, VLDB 1999).  The uses are the maps
    of a view's body into `q` chased by `_dependencies`, one kept per (view,
    image of its projection).  A class is visible when a use projects it or
    it holds a constant or session parameter.  The expansion is the uses'
    bodies plus `q`'s conjuncts over visible classes, chased.  A rewriting
    exists iff `q` projects only visible classes and maps into the
    expansion, each projected column to its own class; each use holds in
    the chased `q`, which gives the converse.

    Soundness rules:
      * Only `=` over columns, constants and session parameters enters the
        union-find, `BoolCol(x)` as `x = 1`.  Every other atom must appear
        verbatim (`_canonical`): containment with comparisons is
        Pi_2^p-complete.
      * NULL.  An `=` holds only on a class known non-null: one holding a
        constant or session parameter, a column the schema declares not
        nullable, or a column that a comparison or `NOT ... IS NULL` of the
        same body mentions.  Identity joins of view columns never make a
        class non-null.  An egd fires only on non-null key classes, an `fk`
        tgd only where its `a IS NOT NULL` holds.
      * Literal-relation right sides and multi-source left sides are
        skipped: a subset of the constraints is sound.
      * Request parameters, placeholders and result-row references block
        the rewriting: the two instances do not share them.
      * The chase ends on an acyclic `contain` graph.  On a cycle, the
        tgds that lead into it add at most `len(q.sources)` sources to each
        chase.
    """
    if (atoms := _atoms(q.filter)) is None:
        return False
    tgds, egds = _dependencies(tuple(constraints), schema)
    chased = _Body(schema, 0)
    h = chased.attach(q, atoms)
    chased.chase(tgds, egds, len(q.sources))
    uses = {(i, tuple(chased.find(g[o]) for o in v.projection)): (v, va) for i, v in enumerate(views)
            if (va := _atoms(v.filter)) is not None for g in chased.matches(v, va)}
    h = [chased.find(n) for n in h]
    visible = {n for _, image in uses for n in image}
    hidden = {Col(o) for o, n in enumerate(h) if isinstance(n, int) and n not in visible}
    if not hidden.isdisjoint(map(Col, q.projection)):
        return False
    expansion = _Body(schema, chased.next)
    for (_, image), (v, va) in uses.items():
        expansion.attach(v, va, image)
    eqs, non_null, others = atoms
    expansion.assume(([e for e in eqs if hidden.isdisjoint(e)], [t for t in non_null if t not in hidden],
                      [a for a in others if hidden.isdisjoint(iter_terms(a))]), h)
    fixed = [(h[o], Col(o)) for o in q.projection]
    if next(expansion.matches(q, atoms, fixed), None) is not None:
        return True
    expansion.chase(tgds, egds, len(q.sources))
    return next(expansion.matches(q, atoms, fixed), None) is not None


# ---------------------------------------------------------------------------
# Determinacy


def is_allowed(
    q: NormalFormQuery, views: list[NormalFormQuery], schema: Schema, constraints: list[Constraint]
) -> ContainmentVerdict:
    """Allowed if `views` rewrite `q` under `constraints`, else NoRewriting."""
    return ContainmentVerdict(ALLOWED if _has_rewriting(q, views, constraints, schema) else NO_REWRITING)


def counterexample(q: NormalFormQuery, views: list[NormalFormQuery], question: Question) -> ContainmentVerdict:
    """Bounded two-instance determinacy check of `q` against `views` on
    `question`, for a query `is_allowed` finds no rewriting of:
    NotAllowed with a verified pair, Determined when the search is unsat,
    else Unknown."""
    status, inputs = question.ask_determinacy(q, views)
    if status == "unknown":
        return ContainmentVerdict(UNKNOWN)
    if status == "unsat":
        return ContainmentVerdict(DETERMINED)
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
    timeout_s: float | None = None,
) -> tuple[Policy, list[View]]:
    """Single greedy pass; returns (pruned policy, removed views).  No
    decision searches, so `timeout_s` is ignored; it goes with ROADMAP
    item 5's benchmark change, as in `merge_and_prune` and `broaden`."""
    return _prune_pass(policy, constraints, schema, frozenset())


def _prune_pass(policy: Policy, constraints: list[Constraint], schema: Schema, pinned: frozenset):
    """`prune`'s pass, keeping the views in `pinned`."""
    current = list(policy.views)
    removed: list[View] = []
    for v in _prune_order(policy.views, schema):
        if v.nf in pinned or v not in current:
            continue
        rest = [w.nf for w in current if w is not v]
        if is_allowed(v.nf, rest, schema, constraints).allowed:
            current = [w for w in current if w is not v]
            removed.append(v)
    return Policy(current, policy.bound, policy.value_range), removed


def merge_and_prune(
    policies: list[Policy],
    constraints: list[Constraint],
    schema: Schema,
    timeout_s: float | None = None,
) -> tuple[Policy, list[View]]:
    """Union of per-handler policies, deduplicated, then pruned (`timeout_s`: see `prune`)."""
    if not policies:
        return Policy([], 2), []
    bound, value_range = policies[0].bound, policies[0].value_range
    if any((p.bound, p.value_range) != (bound, value_range) for p in policies):
        raise PrunerError("policies merged with different bounds")
    merged = list(dict.fromkeys(v for p in policies for v in p.views))  # views compare by `nf`
    return prune(Policy(merged, bound, value_range), constraints, schema)


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
    timeout_s: float | None = None,
) -> tuple[Policy, BroadenReport]:
    """Add pinned user views, re-prune, and report what became redundant (`timeout_s`: see `prune`)."""
    seen = {v.nf for v in policy.views}
    added = [v for v in user_views if v.nf not in seen]
    combined = Policy(policy.views + added, policy.bound, policy.value_range)
    pinned = frozenset(v.nf for v in user_views)
    pruned, removed = _prune_pass(combined, constraints, schema, pinned)
    report = BroadenReport()
    base = [v.nf for v in pruned.views if v.nf not in pinned]
    for v in removed:
        blame = [i for i, u in enumerate(user_views) if is_allowed(v.nf, base + [u.nf], schema, constraints).allowed]
        report.removed.append((v, blame))
    return pruned, report
