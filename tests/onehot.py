"""One-hot reference encoding for `fdsolver`.

Each int symbol is a one-hot vector of SAT variables over its domain with
a pairwise exactly-one scaffold: d(d-1)/2 + 1 clauses per symbol, and d²
per order comparison between two symbols.  `fdsolver.Compiler` uses the
order encoding instead; this compiler shares its boolean structure and
its CDCL search, so the two differ only in how integers are encoded.  Its
search always decides (`declining.DecliningSearch`): a one-hot vector
with no variable set has no value to read.  It takes pools without a base
only.
"""

from __future__ import annotations

from polex.fdsolver import _NO_BASE, CdclBackend, Compiler, VarPool
from polex.terms import cmp_eval

from declining import DecliningSearch


class OneHotCompiler(Compiler):
    def __init__(self, pool: VarPool):
        assert pool.base is None, "the one-hot reference takes pools without a base"
        super().__init__(VarPool())
        self.pool = pool
        self.onehot: dict[int, dict[int, int]] = {}  # vid -> value -> sat var
        for vid, d in enumerate(pool.domains):
            self.first.append(self.cnf.nvars)  # a bool's sat var; unread for an int
            if d is None:
                self.cnf.new_var()
                continue
            lo, hi = d
            hot = self.onehot[vid] = {v: self.cnf.new_var() for v in range(lo, hi + 1)}
            sats = list(hot.values())
            self.cnf.clauses.append([2 * s for s in sats])
            self.cnf.clauses.extend([2 * s + 1, 2 * t + 1] for i, s in enumerate(sats) for t in sats[i + 1:])

    def _value_set_lit(self, vid: int, values: list[int]) -> int:
        """Literal for "vid takes a value in `values`" given exactly-one."""
        hot = self.onehot[vid]
        inside = [v for v in hot if v in values]
        if not inside:
            return self.true_lit() ^ 1
        if len(inside) == len(hot):
            return self.true_lit()
        if len(inside) == 1:
            return 2 * hot[inside[0]]
        gl = 2 * self.cnf.new_var()
        self.cnf.clauses.append([gl ^ 1] + [2 * hot[v] for v in inside])
        self.cnf.clauses.extend([[gl, 2 * hot[v] + 1] for v in inside])
        return gl

    def _compile_cmp(self, f) -> int:
        _, op, t1, t2 = f
        if t1[0] == "c" and t2[0] == "c":
            return self.true_lit() if cmp_eval(op, t1[1], t2[1]) else self.true_lit() ^ 1
        self.mentioned.update(t[1] for t in (t1, t2) if t[0] == "v")
        if t1[0] == "c" or t2[0] == "c" or t1 == t2:  # one symbol
            vid = t2[1] if t1[0] == "c" else t1[1]

            def value(t, v):
                return v if t[0] == "v" else t[1]

            return self._value_set_lit(vid, [v for v in self.onehot[vid] if cmp_eval(op, value(t1, v), value(t2, v))])
        hx, hy = self.onehot[t1[1]], self.onehot[t2[1]]
        gl = 2 * self.cnf.new_var()
        for u, su in hx.items():
            for w, sw in hy.items():
                self.cnf.clauses.append([2 * su + 1, 2 * sw + 1, gl if cmp_eval(op, u, w) else gl ^ 1])
        return gl

    def decision_vars(self) -> list[int]:
        return list(range(self.cnf.nvars))

    def model_from_sat(self, assigns: list) -> dict:
        model: dict = {}
        for vid, d in enumerate(self.pool.domains):
            if d is None:
                model[vid] = assigns[self.first[vid]] is True
            else:
                model[vid] = next(v for v, s in self.onehot[vid].items() if assigns[s])
        return model


class OneHotBackend(CdclBackend):
    """Reference backend: the one-hot compiler and the same CDCL search,
    without the accepted completion."""

    def __init__(self, pool: VarPool):
        self.comp = OneHotCompiler(pool)
        self.search = DecliningSearch(_NO_BASE.search)
        self.search.attach(self.comp)
