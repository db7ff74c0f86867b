"""Rendering normal-form queries back to SQL text.

View output applies three cleanups before printing: joins of two copies
of a table on a row key (`Table.keys()`) are collapsed, AND trees are
kept left-deep (so no parenthesizing is needed), and projected column
names are coalesced into `table.*` or `*` when they cover whole tables
in order.
Output is deterministic for identical input and always re-parses under
the repo grammar.
"""

from __future__ import annotations

from .normal import NormalFormQuery, check_nf, non_session_scalar, source_ranges
from .schema import Schema
from .terms import (
    BoolCol,
    Cmp,
    Col,
    IsNull,
    Not,
    Predicate,
    Term,
    conjoin,
    conjuncts,
    map_terms,
    render_scalar,
)


class UnparseError(Exception):
    """Caller bug: the value passed in is not a valid view."""


# ---------------------------------------------------------------------------
# Cleanup: remove self-joins on a row key


def _positive_equalities(filter: Predicate) -> set[tuple[int, int]]:
    """Unordered Col=Col pairs among top-level conjuncts."""
    eqs = set()
    for c in conjuncts(filter):
        if isinstance(c, Cmp) and c.op == "=" and isinstance(c.left, Col) and isinstance(c.right, Col):
            a, b = c.left.index, c.right.index
            eqs.add((min(a, b), max(a, b)))
    return eqs


def _merge_copies(nf: NormalFormQuery, schema: Schema, keep: int, drop: int) -> NormalFormQuery:
    ranges = source_ranges(schema, nf.sources)
    k_start, _ = ranges[keep]
    d_start, d_end = ranges[drop]
    width = d_end - d_start

    def remap(o: int) -> int:
        if d_start <= o < d_end:
            return k_start + (o - d_start)
        if o >= d_end:
            return o - width
        return o

    def remap_term(t: Term) -> Term:
        return Col(remap(t.index)) if isinstance(t, Col) else t

    new_conjuncts = []
    for c in conjuncts(nf.filter):
        c2 = map_terms(c, remap_term)
        if isinstance(c2, Cmp) and c2.op == "=" and c2.left == c2.right:
            continue  # the join equality itself, now trivial
        if c2 not in new_conjuncts:
            new_conjuncts.append(c2)
    projection = []
    for o in nf.projection:
        o2 = remap(o)
        if o2 not in projection:
            projection.append(o2)
    sources = tuple(s for i, s in enumerate(nf.sources) if i != drop)
    return NormalFormQuery(tuple(projection), conjoin(new_conjuncts), sources)


def remove_redundant_self_joins(nf: NormalFormQuery, schema: Schema) -> NormalFormQuery:
    """Collapse two copies of a table equated on a full row key
    (`Table.keys()`); a nullable unique column is no key, since the
    equality also drops the rows where it is NULL."""
    while True:
        ranges = source_ranges(schema, nf.sources)
        eqs = _positive_equalities(nf.filter)
        merged = False
        for i in range(len(nf.sources)):
            for j in range(i + 1, len(nf.sources)):
                if nf.sources[i] != nf.sources[j]:
                    continue
                i_start, j_start = ranges[i][0], ranges[j][0]
                for group in schema.table(nf.sources[i]).keys():
                    pairs = [(i_start + c, j_start + c) for c in group]
                    if all((min(a, b), max(a, b)) in eqs for a, b in pairs):
                        nf = _merge_copies(nf, schema, i, j)
                        merged = True
                        break
                if merged:
                    break
            if merged:
                break
        if not merged:
            return nf


# ---------------------------------------------------------------------------
# Rendering


def _aliases(sources: tuple[str, ...]) -> list[str]:
    seen: dict[str, int] = {}
    out = []
    for s in sources:
        seen[s] = seen.get(s, 0) + 1
        out.append(s if seen[s] == 1 else f"{s}_{seen[s]}")
    return out


class _Renderer:
    def __init__(self, nf: NormalFormQuery, schema: Schema):
        self.nf = nf
        self.schema = schema
        self.aliases = _aliases(nf.sources)
        self.ranges = source_ranges(schema, nf.sources)
        self.qualify = len(nf.sources) > 1

    def col_name(self, ordinal: int) -> str:
        for pos, (lo, hi) in enumerate(self.ranges):
            if lo <= ordinal < hi:
                name = self.schema.table(self.nf.sources[pos]).columns[ordinal - lo].name
                return f"{self.aliases[pos]}.{name}" if self.qualify else name
        raise UnparseError(f"ordinal {ordinal} out of range")

    def term(self, t: Term) -> str:
        if isinstance(t, Col):
            return self.col_name(t.index)
        return render_scalar(t)

    def atom(self, p: Predicate) -> str:
        if isinstance(p, Cmp):
            return f"{self.term(p.left)} {p.op} {self.term(p.right)}"
        if isinstance(p, IsNull):
            return f"{self.term(p.term)} IS NULL"
        if isinstance(p, BoolCol):
            return self.term(p.term)
        if isinstance(p, Not):
            if isinstance(p.inner, IsNull):
                return f"{self.term(p.inner.term)} IS NOT NULL"
            return f"NOT {self.atom(p.inner)}"
        raise UnparseError(f"cannot render predicate {p!r}")

    def select_list(self) -> str:
        proj = self.nf.projection
        items: list[str] = []
        k = 0
        while k < len(proj):
            matched = False
            for pos, (lo, hi) in enumerate(self.ranges):
                if proj[k] == lo and tuple(proj[k : k + hi - lo]) == tuple(range(lo, hi)):
                    items.append(f"{self.aliases[pos]}.*")
                    k += hi - lo
                    matched = True
                    break
            if not matched:
                items.append(self.col_name(proj[k]))
                k += 1
        if items == [f"{a}.*" for a in self.aliases]:
            return "*"
        return ", ".join(items)

    def from_list(self) -> str:
        parts = []
        for src, alias in zip(self.nf.sources, self.aliases):
            parts.append(src if alias == src else f"{src} {alias}")
        return ", ".join(parts)

    def render(self) -> str:
        proj = self.nf.projection
        existence = len(proj) == 0
        select = "1" if existence else self.select_list()
        lines = [f"SELECT {select} FROM {self.from_list()}"]
        cs = conjuncts(self.nf.filter)
        for i, c in enumerate(cs):
            prefix = "WHERE " if i == 0 else "  AND "
            lines.append(prefix + self.atom(c))
        if existence:
            lines.append("LIMIT 1")
        return "\n".join(lines)


def unparse_nf(nf: NormalFormQuery, schema: Schema) -> str:
    """Debug rendering without view preconditions or cleanups."""
    if not nf.sources:
        # The empty-tuple constant query; not part of the grammar.
        body = " AND ".join(_Renderer(nf, schema).atom(c) for c in conjuncts(nf.filter))
        return "<empty-tuple>" + (f" WHERE {body}" if body else "")
    return _Renderer(nf, schema).render()


def unparse_view(nf: NormalFormQuery, schema: Schema) -> str:
    """Render a view definition (no placeholders, no request parameters)."""
    bad = non_session_scalar(nf)
    if bad is not None:
        raise UnparseError(f"view contains non-session scalar {bad!r}")
    if not nf.sources:
        raise UnparseError("view has no sources")
    check_nf(nf, schema)
    cleaned = remove_redundant_self_joins(nf, schema)
    return _Renderer(cleaned, schema).render()
