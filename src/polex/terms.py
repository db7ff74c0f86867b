"""Scalars, column references, and the conjunctive predicate language.

Scalars are the symbolic values that flow through handler executions:
literals, session/request parameters, placeholder positions inside a
parameterized query, and columns of earlier query results.  Predicates
are trees of comparison atoms combined with NOT and AND only (no OR, no
quantifiers); conjunctions are kept left-deep.

Null semantics are two-valued throughout the workbench: a comparison
atom is false whenever an operand is NULL, IS NULL tests the null flag,
and NOT is classical negation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Union


# ---------------------------------------------------------------------------
# Scalars


@dataclass(frozen=True)
class IntLit:
    value: int


@dataclass(frozen=True)
class BoolLit:
    value: bool


@dataclass(frozen=True)
class NullLit:
    pass


@dataclass(frozen=True)
class SessionParam:
    name: str


@dataclass(frozen=True)
class RequestParam:
    name: str


@dataclass(frozen=True)
class RowCol:
    """Column `column_index` (0-based) of the result row of query `query_index` (1-based)."""

    query_index: int
    column_index: int


@dataclass(frozen=True)
class PlaceholderRef:
    """The `position`-th `?` of a query, 1-based and contiguous within one query."""

    position: int


Scalar = Union[IntLit, BoolLit, NullLit, SessionParam, RequestParam, RowCol, PlaceholderRef]

SESSION_PARAMS = ("MyUserId", "Now")


def render_scalar(s: Scalar) -> str:
    if isinstance(s, IntLit):
        return str(s.value)
    if isinstance(s, BoolLit):
        return "TRUE" if s.value else "FALSE"
    if isinstance(s, NullLit):
        return "NULL"
    if isinstance(s, (SessionParam, RequestParam)):
        return s.name
    if isinstance(s, RowCol):
        return f"r{s.query_index}.c{s.column_index}"
    if isinstance(s, PlaceholderRef):
        return "?"
    raise TypeError(f"not a scalar: {s!r}")


# ---------------------------------------------------------------------------
# Column references

@dataclass(frozen=True)
class Col:
    """Ordinal into the cross product of a query's sources (unnamed perspective)."""

    index: int


@dataclass(frozen=True)
class NamedCol:
    """Pre-resolution column reference, as written: [table_or_alias.]name."""

    table: str | None
    name: str


Term = Union[Col, NamedCol, Scalar]


# ---------------------------------------------------------------------------
# Predicates

CMP_OPS = ("=", "<>", "<", "<=", ">", ">=")

_CMP_FN = {
    "=": lambda a, b: a == b,
    "<>": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


@dataclass(frozen=True)
class Cmp:
    op: str
    left: Term
    right: Term

    def __post_init__(self):
        if self.op not in CMP_OPS:
            raise ValueError(f"bad comparison operator {self.op!r}")


@dataclass(frozen=True)
class IsNull:
    term: Term


@dataclass(frozen=True)
class BoolCol:
    """Truthiness of a boolean column or boolean-valued scalar."""

    term: Term


@dataclass(frozen=True)
class TruePred:
    pass


@dataclass(frozen=True)
class Not:
    inner: "Predicate"


@dataclass(frozen=True)
class And:
    """Left-deep conjunction node; build through `conjoin`."""

    left: "Predicate"
    right: "Predicate"


Predicate = Union[Cmp, IsNull, BoolCol, TruePred, Not, And]

TRUE = TruePred()


def cmp_eval(op: str, a: int, b: int) -> bool:
    return _CMP_FN[op](a, b)


def conjuncts(p: Predicate) -> list[Predicate]:
    """Flatten a (left-deep) AND tree into its conjunct atoms, dropping TRUE."""
    out: list[Predicate] = []
    stack = [p]
    while stack:
        q = stack.pop()
        if isinstance(q, And):
            stack.append(q.right)
            stack.append(q.left)
        elif not isinstance(q, TruePred):
            out.append(q)
    return out


def conjoin(parts: Iterable[Predicate]) -> Predicate:
    """Fold conjuncts into a left-deep AND tree; empty input yields TRUE."""
    acc: Predicate | None = None
    for p in parts:
        if isinstance(p, TruePred):
            continue
        acc = p if acc is None else And(acc, p)
    return acc if acc is not None else TRUE


def map_terms(p: Predicate, fn: Callable[[Term], Term]) -> Predicate:
    """Rebuild `p` with every leaf term rewritten by `fn`."""
    if isinstance(p, Cmp):
        return Cmp(p.op, fn(p.left), fn(p.right))
    if isinstance(p, IsNull):
        return IsNull(fn(p.term))
    if isinstance(p, BoolCol):
        return BoolCol(fn(p.term))
    if isinstance(p, Not):
        return Not(map_terms(p.inner, fn))
    if isinstance(p, And):
        return And(map_terms(p.left, fn), map_terms(p.right, fn))
    if isinstance(p, TruePred):
        return p
    raise TypeError(f"not a predicate: {p!r}")


def fold_nulls(p: Predicate, is_null: Callable[[Term], bool]) -> Predicate | bool:
    """Partially evaluate `p` where every term picked by `is_null` is NULL.

    A comparison or truth test of such a term is false and its IS NULL is
    true; NOT and AND fold.  Returns True/False when the value is forced,
    else the residual predicate.
    """
    if isinstance(p, TruePred):
        return True
    if isinstance(p, Cmp):
        return False if is_null(p.left) or is_null(p.right) else p
    if isinstance(p, BoolCol):
        return False if is_null(p.term) else p
    if isinstance(p, IsNull):
        return True if is_null(p.term) else p
    if isinstance(p, Not):
        inner = fold_nulls(p.inner, is_null)
        return not inner if isinstance(inner, bool) else Not(inner)
    if isinstance(p, And):
        left = fold_nulls(p.left, is_null)
        right = fold_nulls(p.right, is_null)
        if left is False or right is False:
            return False
        if left is True:
            return right
        if right is True:
            return left
        return And(left, right)
    raise TypeError(f"not a predicate: {p!r}")


def iter_terms(p: Predicate) -> Iterator[Term]:
    if isinstance(p, Cmp):
        yield p.left
        yield p.right
    elif isinstance(p, (IsNull, BoolCol)):
        yield p.term
    elif isinstance(p, Not):
        yield from iter_terms(p.inner)
    elif isinstance(p, And):
        yield from iter_terms(p.left)
        yield from iter_terms(p.right)


def max_placeholder(p: Predicate) -> int:
    m = 0
    for t in iter_terms(p):
        if isinstance(t, PlaceholderRef):
            m = max(m, t.position)
    return m


def substitute_placeholders(p: Predicate, params: tuple[Scalar, ...]) -> Predicate:
    """Replace PlaceholderRef(k) with params[k-1]."""

    def sub(t: Term) -> Term:
        if isinstance(t, PlaceholderRef):
            return params[t.position - 1]
        return t

    return map_terms(p, sub)
