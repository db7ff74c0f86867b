"""The one chase (Johnson & Klug, JCSS 1984): the rewriting search
(`pruner`) and the path questions (`solver.Question`) share it.

A body holds rows of tables over nodes in a union-find of values: an int
per column, or a term that is its own node.  `contain` lines with one
left source and a query right side are tgds, `unique` lines egds; the
others are skipped, as a subset of the constraints is sound.  A chased
body's facts hold in every instance that satisfies the constraints and
holds the rows the body started from:
  * only `=` enters the union-find, `BoolCol(x)` as `x = 1`; any other
    atom must appear verbatim (`_canonical`), as containment with
    comparisons is Pi_2^p-complete;
  * an `=` holds only on a class known non-null: one holding a term, a
    column the schema declares not nullable, or one a comparison or
    `NOT ... IS NULL` mentions.  An egd fires only on non-null key
    classes, an `fk` tgd only where its `a IS NOT NULL` holds.

The rewriting search chases each body once (`Body.chase`).  A path's body
grows a step at a time, each step's from a copy of its prefix's chased
body (`Growing`, for `solver.Question`), and its chase is semi-naive: it
matches only the rows the step added or moved, and never answers a tgd
image twice.  Where a cap cuts a chase into a cycle, the facts it reached
still hold.
"""

from __future__ import annotations

import collections
import functools
import itertools

from .constraints import Constraint, Unique
from .normal import NormalFormQuery
from .schema import Schema
from .terms import (SESSION_PARAMS, BoolCol, BoolLit, Cmp, Col, IntLit, IsNull, Not, NullLit, Predicate,
                    RequestParam, RowCol, SessionParam, conjuncts, iter_terms, map_terms)

_FLIPPED = {">": "<", ">=": "<="}
_LITERALS = (IntLit, BoolLit)


def _plain(t, one: bool) -> bool:
    """A column, constant or session parameter; on `one` instance also a
    request parameter or result column, which two instances do not share."""
    if isinstance(t, SessionParam):
        return t.name in SESSION_PARAMS
    return isinstance(t, (Col, IntLit, BoolLit, NullLit) + ((RequestParam, RowCol) if one else ()))


def _canonical(a: Predicate) -> Predicate:
    """`a` with the operands of = and <> sorted and > / >= flipped: over
    classes, an atom that is not an equality must match verbatim."""
    if isinstance(a, Cmp) and a.op in _FLIPPED:
        return Cmp(_FLIPPED[a.op], a.right, a.left)
    return Cmp(a.op, *sorted((a.left, a.right), key=repr)) if isinstance(a, Cmp) and a.op in ("=", "<>") else a


@functools.lru_cache(maxsize=4096)
def atoms(p: Predicate, one: bool = False):
    """(equalities as term pairs, terms known non-null, other conjuncts) of
    `p`, or None if a term is not plain (on `one` instance, see `_plain`)."""
    eqs, non_null, others = [], [], []
    for a in conjuncts(p):
        if not all(_plain(t, one) for t in iter_terms(a)):
            return None
        a = Cmp("=", a.term, IntLit(1)) if isinstance(a, BoolCol) else a
        if isinstance(a, Not) and isinstance(a.inner, IsNull):
            non_null.append(a.inner.term)
        elif isinstance(a, Cmp) and a.op == "=" and NullLit() not in (a.left, a.right):
            eqs.append((a.left, a.right))
        else:
            others.append(a)
        non_null += (t for t in iter_terms(a) if isinstance(a, Cmp) and isinstance(t, (Col, RowCol)))
    return tuple(eqs), tuple(non_null), tuple(others)


class Body:
    """A query body under the chase: rows over nodes in a union-find of
    values, NULL included; the classes known non-null; the other
    conjuncts; on one instance, the nodes of result columns by `RowCol`
    (another is a node of its own, not known non-null); and whether two
    distinct literals share a class (`clash`)."""

    def __init__(self, schema: Schema, first: int):
        self.schema, self.next, self.clash = schema, first, False
        self.rows, self.parent, self.non_null, self.others, self.results = {}, {}, set(), [], {}

    def copy(self) -> Body:
        other = type(self)(self.schema, self.next)
        other.clash, other.rows = self.clash, {t: list(rows) for t, rows in self.rows.items()}
        other.parent, other.non_null, other.others = dict(self.parent), set(self.non_null), list(self.others)
        other.results = dict(self.results)
        return other

    def find(self, n):
        while n in self.parent:
            n = self.parent[n]
        return n

    def node(self, h, t):  # the class of term `t` under `h`
        return self.find(h[t.index] if isinstance(t, Col) else self.results.get(t, t))

    def known(self, n) -> bool:
        return (r := self.find(n)) in self.non_null or not isinstance(r, (int, NullLit, RowCol))

    def union(self, a, b) -> bool:
        """Identify the classes of `a` and `b` under a literal root if
        either holds one, else a term if either holds one, else `a`'s."""
        a, b = self.find(a), self.find(b)
        if a == b:
            return False
        if not isinstance(b, int) and (isinstance(a, int) or isinstance(b, _LITERALS) and not isinstance(a, _LITERALS)):
            a, b = b, a
        if isinstance(b, _LITERALS):  # and so is `a`
            self.clash |= a.value != b.value
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

    def matches(self, q: NormalFormQuery, atoms, fixed=(), among=None):
        """Each map of `q`'s sources onto rows, table for table (of `among`
        if given, else of the body), under which `atoms` and the
        equalities `fixed` hold."""
        eqs, non_null, others = atoms
        eqs = [*fixed, *eqs]
        facts = {_canonical(map_terms(a, functools.partial(self.node, g))) for a, g in self.others} if others else ()
        for rows in itertools.product(*((among or self.rows).get(s, ()) for s in q.sources)):
            h = sum(rows, ())
            if (all(self.node(h, a) == self.node(h, b) for a, b in eqs)
                    and all(self.known(self.node(h, t)) for t in non_null)
                    and all(_canonical(map_terms(a, functools.partial(self.node, h))) in facts for a in others)):
                yield h

    def chase(self, tgds, egds, cap) -> None:
        """Chase until no dependency applies, the tgds spending at most `cap`;
        a tgd fires where its left side holds and no match of its right
        side gives its left's image."""
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

    def closure(self, tgds) -> dict[str, int]:
        """Rows per table of the witness closure of an instance that holds
        this body, for acyclic `tgds`: its distinct rows, and per row and
        tgd that no row answers (its left side may hold there and not
        here) one row per right source, each chasing its own."""
        rows = {t: {tuple(map(self.find, r)) for r in rows} for t, rows in self.rows.items()}
        count = collections.Counter({t: len(distinct) for t, distinct in rows.items()})
        chased = [right.sources for left, _, right, ra, _ in tgds for row in rows.get(left.sources[0], ())
                  if next(self.matches(right, ra, [(row[o], Col(p)) for o, p in zip(left.projection, right.projection)]),
                          None) is None]
        while chased:
            sources = chased.pop()
            count.update(sources)
            chased += [tgd[2].sources for t in sources for tgd in tgds if tgd[0].sources[0] == t]
        return {t.name: count[t.name] for t in self.schema.tables}


class Growing(Body):
    """A body that grows a step at a time and is chased after each.  It
    also keeps the rows that hold each class (`uses`), the rows added or
    moved since its last chase (`stale`), a row per non-null `unique` key
    (`keyed`) and the tgd images its chase has answered (`met`).  A copy
    keeps them, so its chase matches only the rows its own step added or
    moved.  Two int classes join under the one held by more rows, whose
    rows stay as they were."""

    def __init__(self, schema: Schema, first: int):
        super().__init__(schema, first)
        self.uses, self.stale, self.keyed, self.met = {}, {}, {}, set()

    def copy(self) -> Growing:
        other = super().copy()
        other.uses, other.stale, other.keyed = dict(self.uses), dict(self.stale), dict(self.keyed)
        other.met = set(self.met)
        return other

    def union(self, a, b) -> bool:
        a, b = self.find(a), self.find(b)
        if a == b:
            return False
        if (not isinstance(b, int) and (isinstance(a, int) or isinstance(b, _LITERALS) and not isinstance(a, _LITERALS))
                or isinstance(a, int) and len(self.uses.get(a, ())) < len(self.uses.get(b, ()))):
            a, b = b, a  # so that `Body.union` roots `a`
        moved = self.uses.pop(b, ())  # `b`'s rows join `a`'s and go stale, all if `a` becomes known non-null
        self.uses[a] = self.uses.get(a, ()) + moved
        self.stale.update(self.uses[a] if b in self.non_null and a not in self.non_null else moved)
        return super().union(a, b)

    def attach(self, q: NormalFormQuery, atoms, image=()) -> list:
        first = self.next
        for name in q.sources:  # the rows `Body.attach` adds, each of fresh nodes
            row = tuple(range(first, first := first + self.schema.table(name).arity))
            self.uses.update(zip(row, itertools.repeat(((row, name),))))
            self.stale[row] = name
        return super().attach(q, atoms, image)

    def assume(self, atoms, h) -> None:
        unknown = [n for t in atoms[1] if not self.known(n := self.node(h, t))]
        super().assume(atoms, h)
        self.stale.update(pair for n in unknown for pair in self.uses.get(self.find(n), ()))

    def chase(self, tgds, egds, cap) -> None:
        """`Body.chase`, semi-naive: a round matches only the stale rows
        against the egds, and against each tgd whose left side has no other
        conjuncts (on the other rows its left side holds as before, and
        `met` holds its image)."""
        keys = {}
        for name, key in egds:
            keys.setdefault(name, []).append(key)
        while self.stale:
            rows, self.stale = self.stale, {}
            for row, name in rows.items():
                for key in keys.get(name, ()):
                    if all(map(self.known, k := tuple(self.find(row[i]) for i in key))):
                        other = self.keyed.setdefault((name, key, k), row)
                        for a, b in zip(other, row) if other != row else ():
                            self.union(a, b)
            tables = set(rows.values())
            for i, (left, la, right, ra, cost) in enumerate(tgds):
                (src,) = left.sources
                if src not in tables and not la[2]:
                    continue
                among = None if la[2] else {src: [r for r in self.rows[src] if r in rows or r in self.stale]}
                for g in list(self.matches(left, la, among=among)):
                    image = tuple(self.find(g[o]) for o in left.projection)
                    if (i, image) not in self.met and cost <= cap and next(
                            self.matches(right, ra, list(zip(image, map(Col, right.projection)))), None) is None:
                        self.attach(right, ra, image)
                        cap -= cost
                        tables.update(self.stale.values())
                    self.met.add((i, image))


@functools.lru_cache(maxsize=64)
def dependencies(constraints: tuple[Constraint, ...], schema: Schema):
    """(tgds as (left, its atoms, right, its atoms, cost), egds as (table,
    key ordinals), whether the tgds are every query-sided `contain` line
    and acyclic).  A tgd's cost is the sources it adds if its right side
    leads into a cycle of the tgds' table graph, else 0."""
    tgds, egds, graph, lines = [], [], {}, 0
    for c in constraints:
        if isinstance(c, Unique):
            egds.append((c.table, tuple(map(schema.table(c.table).column_index, c.columns))))
        elif isinstance(c.right, NormalFormQuery):
            lines += 1
            if len(c.left.sources) == 1:
                tgds.append((c.left, atoms(c.left.filter), c.right, atoms(c.right.filter)))
                graph.setdefault(c.left.sources[0], set()).update(c.right.sources)
    for _ in range(len(graph)):  # drop the sinks
        graph = {t: targets for t, targets in graph.items() if targets & graph.keys()}
    tgds = [(*d, 0 if graph.keys().isdisjoint(d[2].sources) else len(d[2].sources)) for d in tgds if None not in d]
    return tgds, egds, len(tgds) == lines and not graph

