"""From transcripts to candidate policy views.

Pipeline: transcripts are cut into conditioned queries (one per issued
query, carrying the prior records as conditions; a query record with an
empty result or a COUNT(*) adds no condition, since the latter always
returns one row whose value may not be read); queries are normalized to
PSJ form, splitting a conditioned query in two wherever a LEFT JOIN
cannot be reduced to an inner join, and an issued COUNT(*) becomes a
projection of its table's unique key; the set is simplified (vacuous
branches, equality propagation, duplicate and vacuous-unused query
records, branch merging, subsumption); and each surviving conditioned
query becomes one view by conjoining its records onto an accumulated
query, then deleting request parameters of the supported shape.

Each simplification question is a path (`solver.Question.ask_path`),
answered in four ways: sat by an input some transcript ran on that takes
it, unsat by its chase, sat by an input read from its chased instance,
or by a search.  Every conditioned query carries the inputs of all the
transcripts it was cut from (`examples`), and `simplify` hands them to
its `Question`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Union

from .constraints import Constraint
from .normal import CountQuery, NormalFormQuery, column_of_ordinal, psj_variants, to_executable
from .schema import Schema
from .solver import Question
from .sqlparser import parse_sql
from .terms import (
    BoolLit,
    Cmp,
    Col,
    IntLit,
    Not,
    NullLit,
    Predicate,
    RequestParam,
    RowCol,
    Scalar,
    SessionParam,
    SESSION_PARAMS,
    TRUE,
    conjoin,
    conjuncts,
    fold_nulls,
    iter_terms,
    map_terms,
    substitute_placeholders,
)
from .transcript import BranchRecord, Transcript
from .unparse import unparse_nf


class ViewGenError(Exception):
    pass


class RequestParamRemovalError(ViewGenError):
    """A request parameter occurs outside the removable equality shape."""

    def __init__(self, view_sql: str, param: str, reason: str):
        super().__init__(f"cannot remove request parameter {param!r} from view: {reason}\n{view_sql}")
        self.param = param


# ---------------------------------------------------------------------------
# Conditioned queries


@dataclass(frozen=True)
class CondQuery:
    index: int
    nf: NormalFormQuery
    params: tuple[Scalar, ...]


@dataclass(frozen=True)
class CondBranch:
    pred: Predicate
    outcome: bool


CondRecord = Union[CondQuery, CondBranch]


@dataclass(frozen=True)
class ConditionedQuery:
    sql: NormalFormQuery
    params: tuple[Scalar, ...]
    conditions: tuple[CondRecord, ...]
    handler: str = field(compare=False, default="")
    witness: str = field(compare=False, default="")
    approx: bool = field(compare=False, default=False)
    examples: tuple = field(compare=False, default=(), repr=False)  # the inputs of every transcript it was cut from


@dataclass(frozen=True)
class View:
    nf: NormalFormQuery
    handler: str = field(compare=False, default="")
    witness: str = field(compare=False, default="")


def _dedup(items):
    return list(dict.fromkeys(items))


def _renumber(s: Scalar, mapping: dict[int, int]) -> Scalar:
    """Rename the query index of a result-column reference."""
    if isinstance(s, RowCol) and s.query_index in mapping:
        return RowCol(mapping[s.query_index], s.column_index)
    return s


def _find(parent: dict, x):
    parent.setdefault(x, x)
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _union(parent: dict, a, b) -> None:
    ra, rb = _find(parent, a), _find(parent, b)
    if ra != rb:
        parent[ra] = rb


# ---------------------------------------------------------------------------
# Preprocessing: records -> normalized conditioned queries


@dataclass
class _Partial:
    """One rewrite variant of a conditioned query under construction."""

    conditions: list[CondRecord]
    remap: dict[tuple[int, int], Scalar]  # (query, col) -> replacement; NullLit() = NULL
    approx: bool


def _remap_scalar(s: Scalar, remap) -> Scalar:
    if isinstance(s, RowCol):
        return remap.get((s.query_index, s.column_index), s)
    return s


def to_conditioned_queries(
    transcripts: list[Transcript], schema: Schema
) -> list[ConditionedQuery]:
    """One conditioned query per issued query per transcript (duplicates
    collapse), with LEFT JOIN splits and the COUNT(*) rewrite applied.

    One pass per transcript keeps the live condition variants: each query
    record emits its conditioned queries under them and, in the same
    loop, extends them.  An empty result and a COUNT(*) (one row, whose
    value may not be read) add no condition.  A variant under which a
    parameter became NULL (a LEFT JOIN's left-only part) gets no row from
    the query: it emits no conditioned query for it, and dies where the
    query returned a row.  Each conditioned query carries the inputs of
    all the transcripts, where known, as its `examples`."""
    lowered: dict[str, tuple] = {}  # SQL text -> (executable, PSJ variants)
    out: list[ConditionedQuery] = []
    examples = tuple(t.input for t in transcripts if t.input is not None)
    for t in transcripts:
        partials = [_Partial([], {}, False)]
        for record in t.records:
            grown: list[_Partial] = []
            if isinstance(record, BranchRecord):
                for part in partials:
                    pred = map_terms(record.cond, lambda s: _remap_scalar(s, part.remap))
                    folded = fold_nulls(pred, lambda s: isinstance(s, NullLit))
                    if not isinstance(folded, bool):
                        grown.append(_Partial(part.conditions + [CondBranch(folded, record.outcome)], part.remap,
                                              part.approx))
                    elif folded == record.outcome:
                        grown.append(part)  # vacuous under this variant; else a contradiction, and it dies
                partials = grown
                continue
            if record.sql not in lowered:
                exe = to_executable(parse_sql(record.sql), schema)
                lowered[record.sql] = (exe, psj_variants(exe, schema))
            exe, variants = lowered[record.sql]
            grows = not record.is_empty and not isinstance(exe, CountQuery)
            for part in partials:
                params = tuple(_remap_scalar(s, part.remap) for s in record.params)
                if any(isinstance(s, NullLit) for s in params):
                    continue
                for variant in variants:
                    approx = part.approx or not variant.lossless
                    out.append(ConditionedQuery(variant.nf, params, tuple(part.conditions), handler=t.handler,
                                                witness=t.input_id, approx=approx, examples=examples))
                    if not grows:
                        continue
                    remap = dict(part.remap)
                    if variant.tag == "left_only":
                        for old, new in enumerate(variant.result_map):
                            if new is None:
                                remap[(record.index, old)] = NullLit()
                            elif new != old:
                                remap[(record.index, old)] = RowCol(record.index, new)
                    grown.append(_Partial(part.conditions + [CondQuery(record.index, variant.nf, params)], remap,
                                          approx))
            if grows:
                partials = grown
    return _dedup(out)


# ---------------------------------------------------------------------------
# Simplification


def _step(rec: CondRecord, holds: bool) -> tuple:
    """`rec` as a `solver.Question.ask_path` step, holding or flipped."""
    if isinstance(rec, CondBranch):
        return rec.pred, rec.outcome == holds
    return rec.index, rec.nf, rec.params, not holds

@dataclass
class Simplifier:
    question: Question  # the entailment questions are its paths
    # conditions[:k+1] -> `_entails` verdict, for this Simplifier's life
    _verdicts: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def simplify(self, cqs: list[ConditionedQuery]) -> list[ConditionedQuery]:
        cqs = _dedup(cqs)
        for step in (self._remove_vacuous_branches, self._propagate_equalities, self._remove_duplicate_queries):
            cqs = [step(cq) for cq in cqs]
        cqs = _dedup(cqs)
        while True:
            before = list(cqs)
            cqs = _dedup([self._remove_vacuous_queries(cq) for cq in cqs])
            cqs = self._merge_branches(cqs)
            if cqs == before:
                break
        return self._remove_subsumed(cqs)

    def _entails(self, conditions, k: int) -> bool:
        """The constraints plus `conditions[:k]` entail that `conditions[k]`
        holds: a branch its outcome, a query a row.  A premise query also
        returns at most one row.  Entailed means the path of the premises
        followed by `conditions[k]` flipped has no model within the table
        bound (`solver.Question.ask_path`); Unknown counts as no.  Each
        distinct question is asked once."""
        key = tuple(conditions[: k + 1])
        if key not in self._verdicts:
            steps = [_step(rec, True) for rec in conditions[:k]] + [_step(conditions[k], False)]
            self._verdicts[key] = self.question.ask_path(steps)[0] == "unsat"
        return self._verdicts[key]

    def _remove_vacuous_branches(self, cq: ConditionedQuery) -> ConditionedQuery:
        kept = tuple(
            rec for k, rec in enumerate(cq.conditions)
            if not (isinstance(rec, CondBranch) and self._entails(cq.conditions, k))
        )
        return cq if len(kept) == len(cq.conditions) else replace(cq, conditions=kept)

    def _remove_vacuous_queries(self, cq: ConditionedQuery) -> ConditionedQuery:
        """Drop condition queries that must return a row and whose result
        columns are never referenced afterwards."""
        conditions = list(cq.conditions)
        k = 0
        while k < len(conditions):
            rec = conditions[k]
            if (
                isinstance(rec, CondQuery)
                and not self._referenced(rec.index, conditions[k + 1 :], cq.params)
                and self._entails(conditions, k)
            ):
                del conditions[k]
            else:
                k += 1
        if len(conditions) == len(cq.conditions):
            return cq
        return replace(cq, conditions=tuple(conditions))

    @staticmethod
    def _referenced(index: int, later: list[CondRecord], own_params) -> bool:
        def refs(scalars) -> bool:
            return any(isinstance(s, RowCol) and s.query_index == index for s in scalars)

        for rec in later:
            if isinstance(rec, CondBranch):
                if refs(iter_terms(rec.pred)):
                    return True
            elif refs(rec.params):
                return True
        return refs(own_params)

    # -- equality propagation ----------------------------------------------

    @staticmethod
    def _equality_classes(cq: ConditionedQuery):
        """Union-find over scalars forced equal by condition-query filters.

        Keys: ("qcol", query index, source ordinal) for result columns and
        plain columns of a condition query; ("scalar", s) for parameters and
        literals.  Returns (parent, scalar_key, queries, positions) for
        `_find(parent, key)`.
        """
        parent: dict = {}
        queries: dict[int, CondQuery] = {}
        positions: dict[int, int] = {}
        for pos, rec in enumerate(cq.conditions):
            if isinstance(rec, CondQuery):
                queries[rec.index] = rec
                positions[rec.index] = pos

        def scalar_key(s: Scalar):
            if isinstance(s, RowCol) and s.query_index in queries:
                nf = queries[s.query_index].nf
                if s.column_index < len(nf.projection):
                    return ("qcol", s.query_index, nf.projection[s.column_index])
            if isinstance(s, (IntLit, BoolLit, SessionParam, RequestParam)):
                return ("scalar", s)
            return None

        def key_of(term, qindex: int):
            if isinstance(term, Col):
                return ("qcol", qindex, term.index)
            return scalar_key(term)

        for rec in cq.conditions:
            if not isinstance(rec, CondQuery):
                continue
            filt = substitute_placeholders(rec.nf.filter, rec.params)
            for atom in conjuncts(filt):
                if isinstance(atom, Cmp) and atom.op == "=":
                    ka = key_of(atom.left, rec.index)
                    kb = key_of(atom.right, rec.index)
                    if ka is not None and kb is not None:
                        _union(parent, ka, kb)
        return parent, scalar_key, queries, positions

    def _propagate_equalities(self, cq: ConditionedQuery) -> ConditionedQuery:
        parent, scalar_key, queries, positions = self._equality_classes(cq)
        if not parent:
            return cq

        # Representatives, position-aware: a RowCol is usable only after its
        # query's record; preference: literal, session param, earliest row
        # column, request param.
        def rank(member, at_pos: int):
            kind, payload = member[0], member[1:]
            if kind == "scalar":
                s = payload[0]
                if isinstance(s, (IntLit, BoolLit)):
                    return (0, repr(s))
                if isinstance(s, SessionParam):
                    return (1, SESSION_PARAMS.index(s.name) if s.name in SESSION_PARAMS else 9, s.name)
                return (3, s.name)
            qindex, ordinal = payload
            nf = queries.get(qindex)
            if nf is None or positions.get(qindex, 10**9) >= at_pos:
                return None  # not available here
            if ordinal not in nf.nf.projection:
                return None
            return (2, positions[qindex], nf.nf.projection.index(ordinal))

        def best_scalar(s: Scalar, at_pos: int) -> Scalar:
            k = scalar_key(s)
            if k is None:
                return s
            root = _find(parent, k)
            members = [m for m in parent if _find(parent, m) == root]
            best = None
            best_rank = None
            for m in members:
                r = rank(m, at_pos)
                if r is None:
                    continue
                if best_rank is None or r < best_rank:
                    best_rank = r
                    best = m
            if best is None:
                return s
            if best[0] == "scalar":
                return best[1]
            qindex, ordinal = best[1], best[2]
            return RowCol(qindex, queries[qindex].nf.projection.index(ordinal))

        new_conditions: list[CondRecord] = []
        for pos, rec in enumerate(cq.conditions):
            if isinstance(rec, CondBranch):
                new_pred = map_terms(rec.pred, lambda t: best_scalar(t, pos) if not isinstance(t, Col) else t)
                new_conditions.append(CondBranch(new_pred, rec.outcome))
            else:
                new_conditions.append(
                    replace(rec, params=tuple(best_scalar(s, pos) for s in rec.params))
                )
        end = len(cq.conditions)
        new_params = tuple(best_scalar(s, end) for s in cq.params)
        return replace(cq, conditions=tuple(new_conditions), params=new_params)

    # -- duplicate query records --------------------------------------------

    def _remove_duplicate_queries(self, cq: ConditionedQuery) -> ConditionedQuery:
        """Collapse structurally identical query records; parameters are
        compared modulo the filter-induced equality classes, which is what
        makes duplicates visible after variable unification."""
        while True:
            parent, scalar_key, _queries, _positions = self._equality_classes(cq)

            def param_key(s: Scalar):
                k = scalar_key(s)
                return _find(parent, k) if k is not None else s

            seen: dict = {}
            dup: dict[int, int] = {}  # duplicate index -> surviving index
            for rec in cq.conditions:
                if not isinstance(rec, CondQuery):
                    continue
                key = (rec.nf, tuple(param_key(s) for s in rec.params))
                if key in seen:
                    dup = {rec.index: seen[key]}
                    break
                seen[key] = rec.index
            if not dup:
                return cq
            new_conditions = []
            for rec in cq.conditions:
                if isinstance(rec, CondBranch):
                    new_conditions.append(CondBranch(map_terms(rec.pred, lambda t: _renumber(t, dup)), rec.outcome))
                elif rec.index not in dup:
                    new_conditions.append(replace(rec, params=tuple(_renumber(s, dup) for s in rec.params)))
            cq = replace(
                cq,
                conditions=tuple(new_conditions),
                params=tuple(_renumber(s, dup) for s in cq.params),
            )

    # -- cross-conditioned-query steps ---------------------------------------

    @staticmethod
    def _merge_branches(cqs: list[ConditionedQuery]) -> list[ConditionedQuery]:
        """Merge pairs identical except for one Branch record's outcome: the
        query is issued no matter which way that branch goes."""
        while True:
            sig_map: dict = {}
            merge: tuple[int, int, int] | None = None  # (earlier, later, branch pos)
            for i, cq in enumerate(cqs):
                for k, rec in enumerate(cq.conditions):
                    if not isinstance(rec, CondBranch):
                        continue
                    # The signature fixes everything but this record's outcome.
                    sig = (cq.sql, cq.params, cq.conditions[:k], cq.conditions[k + 1 :], rec.pred)
                    if sig in sig_map:
                        merge = (sig_map[sig], i, k)
                        break
                    sig_map[sig] = i
                if merge is not None:
                    break
            if merge is None:
                return cqs
            j, i, k = merge
            merged = replace(cqs[j], conditions=cqs[i].conditions[:k] + cqs[i].conditions[k + 1 :])
            out = [c for idx, c in enumerate(cqs) if idx not in (i, j)]
            out.insert(j, merged)
            cqs = _dedup(out)

    @staticmethod
    def _records_match(rb: CondRecord, ra: CondRecord, mapping: dict[int, int]) -> bool:
        if isinstance(rb, CondBranch) and isinstance(ra, CondBranch):
            return rb.outcome == ra.outcome and map_terms(rb.pred, lambda t: _renumber(t, mapping)) == ra.pred
        if isinstance(rb, CondQuery) and isinstance(ra, CondQuery):
            return rb.nf == ra.nf and tuple(_renumber(s, mapping) for s in rb.params) == ra.params
        return False

    @classmethod
    def _subsumes(cls, b: ConditionedQuery, a: ConditionedQuery) -> bool:
        """Greedy order-preserving injective mapping of b's records into a's."""
        mapping: dict[int, int] = {}
        ai = 0
        for rb in b.conditions:
            found = False
            while ai < len(a.conditions):
                ra = a.conditions[ai]
                ai += 1
                if cls._records_match(rb, ra, mapping):
                    if isinstance(rb, CondQuery):
                        mapping[rb.index] = ra.index
                    found = True
                    break
            if not found:
                return False
        return b.sql == a.sql and tuple(_renumber(s, mapping) for s in b.params) == a.params

    def _remove_subsumed(self, cqs: list[ConditionedQuery]) -> list[ConditionedQuery]:
        """Drop a conditioned query when another carries the same query under
        a subset of its conditions (earliest survives on equal length)."""
        kept: list[ConditionedQuery] = []
        for i, a in enumerate(cqs):
            subsumed = False
            for j, b in enumerate(cqs):
                if i == j:
                    continue
                nb, na = len(b.conditions), len(a.conditions)
                if nb > na or (nb == na and j > i):
                    continue
                if self._subsumes(b, a):
                    subsumed = True
                    break
            if not subsumed:
                kept.append(a)
        return kept


def simplify(
    cqs: list[ConditionedQuery],
    schema: Schema,
    constraints: list[Constraint],
    param_types: dict[str, str] | None = None,
    table_bound: int = 2,
    value_range: tuple[int, int] = (0, 7),
    timeout_s: float = 5.0,
) -> list[ConditionedQuery]:
    """`Simplifier.simplify` on one `Question`, whose known inputs are
    the `examples` of `cqs`, each once."""
    # every parameter once: one no formula names is never decided
    params = tuple((param_types or {}).items())
    examples = tuple({id(ci): ci for cq in cqs for ci in cq.examples}.values())
    question = Question(schema, constraints, table_bound, value_range, params, timeout_s=timeout_s, examples=examples)
    return Simplifier(question).simplify(cqs)


# ---------------------------------------------------------------------------
# View generation (one view per conditioned query)


def _pred_via_mapping(pred: Predicate, mapping: dict[tuple[int, int], int]) -> Predicate:
    def sub(t):
        if isinstance(t, RowCol):
            key = (t.query_index, t.column_index)
            if key not in mapping:
                raise ViewGenError(f"condition references unavailable result column r{t.query_index}.c{t.column_index}")
            return Col(mapping[key])
        return t

    return map_terms(pred, sub)


def _conjoin_query(
    acc: NormalFormQuery,
    mapping: dict[tuple[int, int], int],
    nf: NormalFormQuery,
    params: tuple[Scalar, ...],
    index: int | None,
    schema: Schema,
) -> tuple[NormalFormQuery, dict]:
    n = acc.arity(schema)
    theta = substitute_placeholders(nf.filter, params)
    theta = map_terms(theta, lambda t: Col(t.index + n) if isinstance(t, Col) else t)
    theta = _pred_via_mapping(theta, mapping)
    new_filter = conjoin([acc.filter, theta])
    projection = acc.projection + tuple(n + j for j in nf.projection)
    sources = acc.sources + nf.sources
    out = NormalFormQuery(projection, new_filter, sources)
    new_mapping = dict(mapping)
    if index is not None:
        for i, j in enumerate(nf.projection):
            new_mapping[(index, i)] = n + j
    return out, new_mapping


def generate_view_trace(cq: ConditionedQuery, schema: Schema) -> list[NormalFormQuery]:
    """The accumulated query after each condition record, ending with the
    conditioned query itself conjoined (the generated view)."""
    acc = NormalFormQuery((), TRUE, ())
    mapping: dict[tuple[int, int], int] = {}
    trace: list[NormalFormQuery] = []
    for rec in cq.conditions:
        if isinstance(rec, CondBranch):
            theta = _pred_via_mapping(rec.pred, mapping)
            theta = theta if rec.outcome else Not(theta)
            acc = NormalFormQuery(acc.projection, conjoin([acc.filter, theta]), acc.sources)
        else:
            acc, mapping = _conjoin_query(acc, mapping, rec.nf, rec.params, rec.index, schema)
        trace.append(acc)
    acc, _ = _conjoin_query(acc, mapping, cq.sql, cq.params, None, schema)
    trace.append(acc)
    return trace


def generate_view(cq: ConditionedQuery, schema: Schema) -> NormalFormQuery:
    return generate_view_trace(cq, schema)[-1]


def unparse_safe(nf: NormalFormQuery, schema: Schema) -> str:
    try:
        return unparse_nf(nf, schema)
    except Exception:
        return repr(nf)


# ---------------------------------------------------------------------------
# Request parameter removal


def remove_request_params(nf: NormalFormQuery, schema: Schema) -> NormalFormQuery:
    """Delete request parameters appearing as a single `col = X` equality on
    a non-nullable column; anything else is a hard error."""
    while True:
        names = sorted(
            {t.name for t in iter_terms(nf.filter) if isinstance(t, RequestParam)}
        )
        if not names:
            return nf
        name = names[0]
        nf = _remove_one_request_param(nf, name, schema)


def _remove_one_request_param(nf: NormalFormQuery, name: str, schema: Schema) -> NormalFormQuery:
    cs = conjuncts(nf.filter)
    hits: list[int] = []
    col: int | None = None
    occurrences = 0
    for t in iter_terms(nf.filter):
        if isinstance(t, RequestParam) and t.name == name:
            occurrences += 1
    for i, c in enumerate(cs):
        if not any(isinstance(t, RequestParam) and t.name == name for t in iter_terms(c)):
            continue
        hits.append(i)
        if isinstance(c, Cmp) and c.op == "=":
            if isinstance(c.left, Col) and c.right == RequestParam(name):
                col = c.left.index
            elif isinstance(c.right, Col) and c.left == RequestParam(name):
                col = c.right.index
    if occurrences != 1 or len(hits) != 1 or col is None:
        raise RequestParamRemovalError(
            unparse_safe(nf, schema), name, "the parameter must occur exactly once, as `column = Param`"
        )
    table, column = column_of_ordinal(schema, nf.sources, col)
    if column.nullable:
        raise RequestParamRemovalError(unparse_safe(nf, schema), name, f"column {table}.{column.name} is nullable")
    remaining = [c for i, c in enumerate(cs) if i != hits[0]]
    projection = nf.projection
    if not _projected_equal(col, projection, remaining):
        projection = projection + (col,)
    return NormalFormQuery(projection, conjoin(remaining), nf.sources)


def _projected_equal(col: int, projection: tuple[int, ...], remaining: list[Predicate]) -> bool:
    """Is `col` itself projected, or forced equal to a projected column?"""
    parent: dict[int, int] = {}
    for c in remaining:
        if isinstance(c, Cmp) and c.op == "=" and isinstance(c.left, Col) and isinstance(c.right, Col):
            _union(parent, c.left.index, c.right.index)
    root = _find(parent, col)
    return any(_find(parent, p) == root for p in projection)


def views_from_cqs(cqs: list[ConditionedQuery], schema: Schema) -> list[View]:
    views = []
    for cq in cqs:
        nf = remove_request_params(generate_view(cq, schema), schema)
        views.append(View(nf, handler=cq.handler, witness=cq.witness))
    return _dedup(views)
