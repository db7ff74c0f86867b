"""Information containment and policy minimization.

A query is allowed under a policy iff it can be answered from the views
alone.  `is_allowed` decides by rewriting alone: when `_has_rewriting`
finds the query equal to a selection and projection over view results
under the constraint list (a chase and backchase over the bodies of
`chase`, which `solver` shares for path questions), Allowed holds at
every bound and value range;
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

from dataclasses import dataclass, field, replace

from .chase import Body, atoms, dependencies
from .constraints import Constraint
from .evaluate import ScalarEnv, eval_nf
from .instance import ConcreteInput
from .normal import NormalFormQuery
from .policygen import View
from .schema import Schema
from .solver import Question
from .terms import Col, iter_terms
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


def _has_rewriting(
    q: NormalFormQuery, views: list[NormalFormQuery], constraints: list[Constraint], schema: Schema
) -> bool:
    """Whether `q` equals a selection and projection over a product of view
    results on every instance that satisfies `constraints`: one chase and
    backchase (Deutsch, Popa & Tannen, VLDB 1999).  The uses are the maps
    of a view's body into `q` chased by `chase.dependencies`, one kept per (view,
    image of its projection).  A class is visible when a use projects it or
    it holds a constant or session parameter.  The expansion is the uses'
    bodies plus `q`'s conjuncts over visible classes, chased.  A rewriting
    exists iff `q` projects only visible classes and maps into the
    expansion, each projected column to its own class; each use holds in
    the chased `q`, which gives the converse.

    The chase's soundness rules are in `chase`'s docstring.  Request
    parameters, placeholders and result-row references block the
    rewriting: the two instances do not share them.  On a cyclic `contain`
    graph, the tgds that lead into a cycle add at most `len(q.sources)`
    sources to each chase.
    """
    if (qa := atoms(q.filter)) is None:
        return False
    tgds, egds, _ = dependencies(tuple(constraints), schema)
    chased = Body(schema, 0)
    h = chased.attach(q, qa)
    chased.chase(tgds, egds, len(q.sources))
    uses = {(i, tuple(chased.find(g[o]) for o in v.projection)): (v, va) for i, v in enumerate(views)
            if (va := atoms(v.filter)) is not None for g in chased.matches(v, va)}
    h = [chased.find(n) for n in h]
    visible = {n for _, image in uses for n in image}
    hidden = {Col(o) for o, n in enumerate(h) if isinstance(n, int) and n not in visible}
    if not hidden.isdisjoint(map(Col, q.projection)):
        return False
    expansion = Body(schema, chased.next)
    for (_, image), (v, va) in uses.items():
        expansion.attach(v, va, image)
    eqs, non_null, others = qa
    expansion.assume(([e for e in eqs if hidden.isdisjoint(e)], [t for t in non_null if t not in hidden],
                      [a for a in others if hidden.isdisjoint(iter_terms(a))]), h)
    fixed = [(h[o], Col(o)) for o in q.projection]
    if next(expansion.matches(q, qa, fixed), None) is not None:
        return True
    expansion.chase(tgds, egds, len(q.sources))
    return next(expansion.matches(q, qa, fixed), None) is not None


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
    merged = list(dict.fromkeys(v for p in policies for v in p.views))  # views compare by `nf`
    return prune(Policy(merged, policies[0].bound, policies[0].value_range), constraints, schema)


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
