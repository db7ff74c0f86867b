"""Finite-domain satisfiability core.

Everything the workbench asks a solver is a quantifier-free boolean
combination of comparisons between integer symbols drawn from small
bounded domains (database values are restricted to a configurable range,
[0, 7] by default) plus free boolean symbols.  That makes the problems
finite, so instead of an external SMT engine we compile to SAT:

  * each int symbol x over lo..hi is order-encoded (Crawford & Baker
    1994; Tamura et al. 2009): one SAT variable [x >= v] for each v in
    lo+1..hi, tied by the ladder [x >= v+1] -> [x >= v];
  * `x < c` is one threshold literal and `x = c` at most a 3-clause gate;
    between two symbols `x < y` takes 2d-1 clauses and `x = y` 3d-2.
    `<>`, `<=`, `>` and `>=` compile as `=` or `<`.  `fcmp` writes `=`
    and `<>` between two symbols with the lower vid first, so `x = y` and
    `y = x` are one atom and compile to one gate;
  * the boolean structure is Tseitin-encoded with full equivalences.

A symbol is its index in a `VarPool` and its domain, None for a bool;
nothing names it, because what a person reads is policies and verified
counterexamples, never a CNF.

A `CdclBackend` is one incremental search over one pool, a small CDCL
(two-watched literals, 1UIP learning, VSIDS-ish activities, phase saving,
Luby restarts).  Each `check` compiles its formulas into the same CNF,
where Tseitin definitions only add, and asserts them as assumptions, one
decision level each in list order (Een & Sorensson, SAT 2003); learnt
clauses are kept.  Activities, phases and the conflict count start afresh
per check, so a search without conflicts finds the model a fresh one
would.  All heuristics are deterministic: same inputs, same models.

The search decides only gate variables and the SAT variables of symbols
some compiled formula mentions (`Compiler.mentioned`; MiniSat's
`setDecisionVar`).  An unmentioned symbol's ladder stays in the CNF but
never propagates or takes part in a conflict, so the other variables see
the same decisions, conflicts and learnt clauses.  Its model value is
the one deciding it would give: False, or its domain's lower value, all
its thresholds false.  A search reads every unset variable so (the
completion) before deciding, and returns that model if every formula
holds; only otherwise does it build its decision state (`_Cdcl.solve`).
Until its first conflict every activity is 0, so it decides the lowest
unset decision variable by a forward scan, and it builds the activity
heap, holding what the scan has not passed, at that conflict.

A search over a pool whose `base` is set starts as a copy of that base
search, which holds its formulas as unit clauses propagated at level 0.
Models are verified against every formula, the base's too.

Only the long clause of an `and`/`or` gate goes through `_Cnf.add`, which
drops a tautology and repeated literals: its literals come from arbitrary
subformulas, so two may coincide or be complementary.  Every other clause
is appended as built, the comparison gates' with the constant thresholds
[x >= lo] and [x >= hi+1] (`_T`, `_F`) folded out.  The ladder, the
comparison gates and the binary gate clauses each name distinct threshold
variables or a fresh gate variable, and a unit clause has one literal, so
none can hold a repeat or a complementary pair.  The search keeps each
literal's value in an array indexed by literal (`_Cdcl.lval`), so
propagation reads a value with one list lookup.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from heapq import heapify as _heapify, heappop as _heappop, heappush as _heappush
from types import SimpleNamespace

from .terms import cmp_eval

# ---------------------------------------------------------------------------
# Formula IR: plain tuples, hashable and cheap.
#
#   ("true",) | ("false",)
#   ("bv", vid)
#   ("not", f) | ("and", (f, ...)) | ("or", (f, ...))
#   ("cmp", op, term, term)        term = ("v", vid) | ("c", int)

TRUE_F = ("true",)
FALSE_F = ("false",)


def bvar(vid: int):
    return ("bv", vid)


def ivar(vid: int):
    return ("v", vid)


def const(value: int):
    return ("c", value)


def lnot(f):
    if f == TRUE_F:
        return FALSE_F
    if f == FALSE_F:
        return TRUE_F
    if f[0] == "not":
        return f[1]
    return ("not", f)


def land(*fs):
    flat = []
    for f in fs:
        if f == TRUE_F:
            continue
        if f == FALSE_F:
            return FALSE_F
        if f[0] == "and":
            flat.extend(f[1])
        else:
            flat.append(f)
    if not flat:
        return TRUE_F
    if len(flat) == 1:
        return flat[0]
    return ("and", tuple(flat))


def lor(*fs):
    flat = []
    for f in fs:
        if f == FALSE_F:
            continue
        if f == TRUE_F:
            return TRUE_F
        if f[0] == "or":
            flat.extend(f[1])
        else:
            flat.append(f)
    if not flat:
        return FALSE_F
    if len(flat) == 1:
        return flat[0]
    return ("or", tuple(flat))


def implies(a, b):
    return lor(lnot(a), b)


def fcmp(op: str, t1, t2):
    if t1[0] == "c" and t2[0] == "c":
        return TRUE_F if cmp_eval(op, t1[1], t2[1]) else FALSE_F
    if op in ("=", "<>") and t1[0] == t2[0] == "v" and t2[1] < t1[1]:
        t1, t2 = t2, t1  # one atom, and one gate, per unordered pair
    return ("cmp", op, t1, t2)


def feq(t1, t2):
    return fcmp("=", t1, t2)


@dataclass
class VarPool:
    """Symbol registry: a symbol is its index into `domains`, which holds
    an int symbol's (lo, hi) and None for a bool symbol.

    `base`, when set, is a search over the pool's first symbols that
    holds the formulas every check on the pool also asserts; a search
    over the pool starts as its copy and never changes it."""

    domains: list[tuple[int, int] | None] = field(default_factory=list)
    base: CdclBackend | None = None

    def new_bool(self) -> int:
        self.domains.append(None)
        return len(self.domains) - 1

    def new_int(self, lo: int, hi: int) -> int:
        if hi < lo:
            raise ValueError("empty domain")
        self.domains.append((lo, hi))
        return len(self.domains) - 1

    def __len__(self) -> int:
        return len(self.domains)


def eval_formula(f, model: dict) -> bool:
    """Evaluate IR against a model mapping vid -> bool/int."""
    op = f[0]
    if op == "true":
        return True
    if op == "false":
        return False
    if op == "bv":
        return bool(model[f[1]])
    if op == "not":
        return not eval_formula(f[1], model)
    if op == "and":
        return all(eval_formula(g, model) for g in f[1])
    if op == "or":
        return any(eval_formula(g, model) for g in f[1])
    if op == "cmp":
        a = f[2][1] if f[2][0] == "c" else model[f[2][1]]
        b = f[3][1] if f[3][0] == "c" else model[f[3][1]]
        return cmp_eval(f[1], a, b)
    raise ValueError(f"bad formula node {f!r}")


# ---------------------------------------------------------------------------
# CNF compilation


class _Cnf:
    def __init__(self):
        self.nvars = 0
        self.clauses: list[list[int]] = []

    def new_var(self) -> int:
        self.nvars += 1
        return self.nvars - 1

    def add(self, lits: list[int]) -> None:
        """Append `lits` unless it is a tautology, dropping repeats (first
        occurrences kept in order)."""
        seen = set(lits)
        for l in seen:
            if l ^ 1 in seen:
                return
        self.clauses.append(lits if len(seen) == len(lits) else list(dict.fromkeys(lits)))


_NO_BASE = SimpleNamespace(  # what a search over a pool without a base copies
    comp=SimpleNamespace(cnf=_Cnf(), cache={}, first=[], mentioned=set(), _true_lit=None, formulas=[]),
    search=SimpleNamespace(nvars=0, clauses=[], watches=[], lval=[], trail=[], ok=True),
)

_T, _F = -1, -2  # TRUE and FALSE folded into literals: _T ^ 1 == _F


class Compiler:
    """Compile formula IR over a VarPool into CNF.

    A Compiler starts as a copy of `pool.base`'s (`_NO_BASE` when it is
    None) and lays the ladder of the int symbols past it.  `cnf.clauses`
    holds the clauses a search has not yet taken (`_Cdcl.attach`)."""

    def __init__(self, pool: VarPool):
        base = (pool.base or _NO_BASE).comp
        self.pool = pool
        self.cnf = _Cnf()
        self.cnf.nvars = base.cnf.nvars
        self.cache: dict = dict(base.cache)
        self.first: list[int] = base.first[:]  # vid -> a bool's sat var, or an int's [vid >= lo + 1]
        self.mentioned: set[int] = set(base.mentioned)  # vids some compiled formula names
        self._true_lit: int | None = base._true_lit
        self.formulas: list[tuple] = base.formulas[:]  # asserted for good, in order
        self.checked: dict = {}  # id(f) -> (f, lit) of each formula a check asserted; f keeps its id unused
        for d in pool.domains[len(self.first):]:
            first = self.cnf.nvars
            self.first.append(first)
            if d is None:
                self.cnf.nvars += 1
                continue
            self.cnf.nvars += d[1] - d[0]
            # the ladder: [vid >= v + 1] -> [vid >= v]
            self.cnf.clauses.extend([[2 * s + 3, 2 * s] for s in range(first, self.cnf.nvars - 1)])

    def add(self, formulas: list[tuple]) -> None:
        """Assert each formula for good, as a unit clause, in list order."""
        for f in formulas:
            self.cnf.clauses.append([self.lit(f)])
        self.formulas += formulas

    def true_lit(self) -> int:
        if self._true_lit is None:
            v = self.cnf.new_var()
            self.cnf.clauses.append([2 * v])
            self._true_lit = 2 * v
        return self._true_lit

    def lit(self, f) -> int:
        """SAT literal equivalent to formula `f` (adds defining clauses)."""
        out = self.cache.get(f)
        if out is None:
            out = self.cache[f] = self._compile(f)
        return out

    def _compile(self, f) -> int:
        op = f[0]
        if op == "true":
            return self.true_lit()
        if op == "false":
            return self.true_lit() ^ 1
        if op == "bv":
            self.mentioned.add(f[1])
            return 2 * self.first[f[1]]
        if op == "not":
            return self.lit(f[1]) ^ 1
        if op == "and":
            lits = [self.lit(g) for g in f[1]]
            gl = 2 * self.cnf.new_var()
            self.cnf.clauses.extend([[gl ^ 1, l] for l in lits])
            self.cnf.add([gl] + [l ^ 1 for l in lits])
            return gl
        if op == "or":
            lits = [self.lit(g) for g in f[1]]
            gl = 2 * self.cnf.new_var()
            self.cnf.add([gl ^ 1] + lits)
            self.cnf.clauses.extend([[gl, l ^ 1] for l in lits])
            return gl
        if op == "cmp":
            return self._compile_cmp(f)
        raise ValueError(f"bad formula node {f!r}")

    def _compile_cmp(self, f) -> int:
        """`<>` is compiled as `not =`, and `<=`, `>`, `>=` as `<` or its
        negation with the terms swapped, each through the cache."""
        _, op, t1, t2 = f
        if op == "<>":
            return self.lit(("cmp", "=", t1, t2)) ^ 1
        if op in ("<=", ">"):
            return self.lit(("cmp", "<", t2, t1)) ^ (op == "<=")
        if op == ">=":
            return self.lit(("cmp", "<", t1, t2)) ^ 1
        self.mentioned.update(t[1] for t in (t1, t2) if t[0] == "v")
        if op == "<":
            out = self._lt(t1, t2)
        elif op != "=":
            raise ValueError(f"bad formula node {f!r}")
        elif t1[0] == t2[0] == "v" and t1 != t2:
            out = self._eq(t1[1], t2[1])
        else:  # against a constant or itself: neither term is below the other
            out = self._and(self._lt(t1, t2) ^ 1, self._lt(t2, t1) ^ 1)
        return out if out >= 0 else self.true_lit() ^ (out == _F)

    def _ge(self, vid: int, c: int) -> int:
        """[vid >= c]: a threshold variable's literal, or _T / _F outside lo+1..hi."""
        lo, hi = self.pool.domains[vid]
        return _T if c <= lo else _F if c > hi else 2 * (self.first[vid] + c - lo - 1)

    def _ge_lits(self, vid: int) -> list[int]:
        """[vid >= v] for v in lo..hi+1, at index v - lo."""
        t = self._sat_vars(vid)
        return [_T, *range(2 * t.start, 2 * t.stop, 2), _F]

    def _and(self, a: int, b: int) -> int:
        """a and b, folded; else a gate over two literals of distinct variables."""
        if a == _F or b == _F:
            return _F
        if a == _T or b == _T:
            return b if a == _T else a
        gl = 2 * self.cnf.new_var()
        self.cnf.clauses.extend([[gl ^ 1, a], [gl ^ 1, b], [gl, a ^ 1, b ^ 1]])
        return gl

    def _lt(self, t1, t2) -> int:
        """t1 < t2, folded; between two symbols a gate of 2d-1 clauses.  Its
        symbols' domains overlap, which keeps _T out of every clause, so
        only _F literals are dropped; the same holds in `_eq`."""
        if t1[0] == "c" and t2[0] == "c":
            return _T if t1[1] < t2[1] else _F
        if t1 == t2:
            return _F
        if t2[0] == "c":
            return self._ge(t1[1], t2[1]) ^ 1
        if t1[0] == "c":
            return self._ge(t2[1], t1[1] + 1)
        (lx, hx), (ly, hy) = self.pool.domains[t1[1]], self.pool.domains[t2[1]]
        if hx < ly:
            return _T
        if lx >= hy:
            return _F
        gl, X, Y, add = 2 * self.cnf.new_var(), self._ge_lits(t1[1]), self._ge_lits(t2[1]), self.cnf.clauses.append
        for v in range(max(lx, ly), min(hx, hy) + 1):  # gl -> ([x >= v] -> [y >= v + 1])
            add([l for l in (gl ^ 1, X[v - lx] ^ 1, Y[v + 1 - ly]) if l != _F])
        for v in range(max(lx + 1, ly), min(hx + 1, hy) + 1):  # not gl -> ([y >= v] -> [x >= v])
            add([l for l in (gl, Y[v - ly] ^ 1, X[v - lx]) if l != _F])
        return gl

    def _eq(self, x: int, y: int) -> int:
        """x = y between two symbols, folded; else a gate of 3d-2 clauses."""
        (lx, hx), (ly, hy) = self.pool.domains[x], self.pool.domains[y]
        if hx < ly or hy < lx:
            return _F
        gl, X, Y, add = 2 * self.cnf.new_var(), self._ge_lits(x), self._ge_lits(y), self.cnf.clauses.append
        for v in range(max(lx, ly + 1), min(hx, hy + 1) + 1):  # gl -> ([x >= v] -> [y >= v])
            add([l for l in (gl ^ 1, X[v - lx] ^ 1, Y[v - ly]) if l != _F])
        for v in range(max(lx + 1, ly), min(hx + 1, hy) + 1):  # gl -> ([y >= v] -> [x >= v])
            add([l for l in (gl ^ 1, Y[v - ly] ^ 1, X[v - lx]) if l != _F])
        for v in range(max(lx, ly), min(hx, hy) + 1):  # not gl -> not (x = v and y = v)
            add([l for l in (gl, X[v - lx] ^ 1, X[v + 1 - lx], Y[v - ly] ^ 1, Y[v + 1 - ly]) if l != _F])
        return gl

    def _sat_vars(self, vid: int) -> range:
        """A bool symbol's SAT variable, or an int symbol's thresholds [vid >= lo+1..hi]."""
        d = self.pool.domains[vid]
        return range(self.first[vid], self.first[vid] + (1 if d is None else d[1] - d[0]))

    def decision_vars(self) -> list[int]:
        """The SAT variables a search decides, ascending: all but those of unmentioned symbols."""
        skip = {s for vid in range(len(self.pool)) if vid not in self.mentioned for s in self._sat_vars(vid)}
        return [v for v in range(self.cnf.nvars) if v not in skip]

    def model_from_sat(self, assigns: list) -> dict:
        """An int symbol's value is lo plus the number of its true thresholds; unset counts as false."""
        return {vid: assigns[s] is True if d is None else d[0] + assigns[s:s + d[1] - d[0]].count(True)
                for vid, (s, d) in enumerate(zip(self.first, self.pool.domains))}


# ---------------------------------------------------------------------------
# CDCL


class _Timeout(Exception):
    pass


def _luby(x: int) -> int:
    """Luby restart sequence 1,1,2,1,1,2,4,... (0-indexed)."""
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) >> 1
        seq -= 1
        x = x % size
    return 1 << seq


class _Cdcl:
    """Minisat-style solver over a growing clause database, starting as a
    copy of `base`'s clauses, watch lists and level-0 trail.  `lval[lit]`
    is True, False or None (unset).  A search decides only `decision`
    (ascending) unless it accepts the completion, and is sat once those are all set."""

    def __init__(self, base):
        self.nvars = base.nvars
        self.clauses = list(map(list.copy, base.clauses))
        self.watches = list(map(list.copy, base.watches))  # lit -> clauses watching it
        self.lval: list = base.lval[:]
        self.level = [0] * self.nvars
        self.reason: list = [None] * self.nvars
        self.trail: list[int] = base.trail[:]
        self.trail_lim: list[int] = []
        self.qhead = len(self.trail)
        self.ok = base.ok  # False once level 0 holds a conflict
        self.decision = self.activity = self.phase = None  # built at a check's first decision
        self.heap = None  # built at its first conflict

    def attach(self, comp: Compiler) -> None:
        """Take the clauses `comp` compiled since the last call, at level 0:
        undo the last search's levels, then watch each clause's first two
        literals.  A clause with fewer than two, or a watch that level 0
        falsifies, is simplified first: dropped if a level-0 literal
        satisfies it, else stripped of the literals level 0 falsifies, and
        a single literal left is enqueued.  Then propagate."""
        lval, clauses, watches = self.lval, self.clauses, self.watches
        if self.trail_lim:
            for lit in self.trail[self.trail_lim[0]:]:
                lval[lit] = lval[lit ^ 1] = None
            del self.trail[self.trail_lim[0]:]
            self.trail_lim.clear()
            self.qhead = len(self.trail)
        grow = comp.cnf.nvars - self.nvars
        self.nvars += grow
        lval += [None] * (2 * grow)
        self.level += [0] * grow
        self.reason += [None] * grow
        watches += [[] for _ in range(2 * grow)]
        start = len(clauses)
        clauses += comp.cnf.clauses
        comp.cnf.clauses.clear()
        for ci in range(start, len(clauses)):
            clause = clauses[ci]
            if len(clause) < 2 or lval[clause[0]] is False or lval[clause[1]] is False:
                if True in map(lval.__getitem__, clause):
                    continue  # left unwatched
                clause = clauses[ci] = [l for l in clause if lval[l] is None]
                if len(clause) < 2:
                    if clause:
                        self.enqueue(clause[0], None)
                    else:
                        self.ok = False
                    continue
            watches[clause[0]].append(ci)
            watches[clause[1]].append(ci)
        self.ok = self.ok and self.propagate() is None

    def enqueue(self, lit: int, reason) -> bool:
        a = self.lval[lit]
        if a is not None:
            return a
        self.lval[lit] = True
        self.lval[lit ^ 1] = False
        v = lit >> 1
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.trail.append(lit)
        return True

    def propagate(self):
        trail, clauses, watches, lval = self.trail, self.clauses, self.watches, self.lval
        level, reason, lvl = self.level, self.reason, len(self.trail_lim)
        qhead = self.qhead
        while qhead < len(trail):
            fl = trail[qhead] ^ 1
            qhead += 1
            ws = watches[fl]
            i = j = 0
            n = len(ws)
            while i < n:
                ci = ws[i]
                i += 1
                clause = clauses[ci]
                if clause[0] == fl:
                    clause[0], clause[1] = clause[1], fl
                first = clause[0]
                fv = lval[first]
                if fv is True:
                    ws[j] = ci
                    j += 1
                    continue
                for k in range(2, len(clause)):
                    if lval[clause[k]] is not False:
                        clause[1], clause[k] = clause[k], fl
                        watches[clause[1]].append(ci)
                        break
                else:
                    ws[j] = ci
                    j += 1
                    if fv is False:
                        del ws[j:i]  # keep the unvisited watchers
                        self.qhead = len(trail)
                        return ci
                    lval[first] = True  # an inlined enqueue: `first` is unset here
                    lval[first ^ 1] = False
                    level[first >> 1] = lvl
                    reason[first >> 1] = ci
                    trail.append(first)
            del ws[j:]
        self.qhead = qhead
        return None

    def decision_level(self) -> int:
        return len(self.trail_lim)

    def new_level(self) -> None:
        self.trail_lim.append(len(self.trail))

    def cancel_until(self, lvl: int) -> None:
        if self.decision_level() <= lvl:
            return
        heappush, lval = _heappush, self.lval
        for i in range(len(self.trail) - 1, self.trail_lim[lvl] - 1, -1):
            lit = self.trail[i]
            v = lit >> 1
            self.phase[v] = (lit & 1) ^ 1
            lval[lit] = lval[lit ^ 1] = None
            self.reason[v] = None
            heappush(self.heap, (-self.activity[v], v))
        del self.trail[self.trail_lim[lvl]:]
        del self.trail_lim[lvl:]
        self.qhead = len(self.trail)

    def bump(self, v: int) -> None:
        self.activity[v] += self.var_inc
        if self.activity[v] > 1e100:
            for i in range(self.nvars):
                self.activity[i] *= 1e-100
            self.var_inc *= 1e-100
            self.heap = [(-self.activity[x], x) for x in self.decision if self.lval[2 * x] is None]
            _heapify(self.heap)
            return
        if self.lval[2 * v] is None:
            _heappush(self.heap, (-self.activity[v], v))

    def analyze(self, confl: int):
        learnt = [0]
        seen = [False] * self.nvars
        counter = 0
        p = None
        index = len(self.trail) - 1
        cur_level = self.decision_level()
        while True:
            clause = self.clauses[confl]
            start = 0 if p is None else 1
            for q in clause[start:]:
                v = q >> 1
                if not seen[v] and self.level[v] > 0:
                    seen[v] = True
                    self.bump(v)
                    if self.level[v] >= cur_level:
                        counter += 1
                    else:
                        learnt.append(q)
            while not seen[self.trail[index] >> 1]:
                index -= 1
            p = self.trail[index]
            v = p >> 1
            index -= 1
            seen[v] = False
            counter -= 1
            if counter == 0:
                break
            confl = self.reason[v]
        learnt[0] = p ^ 1
        # Local minimization: drop literals implied by the rest of the clause.
        if len(learnt) > 2:
            marked = {q >> 1 for q in learnt}
            kept = [learnt[0]]
            for q in learnt[1:]:
                r = self.reason[q >> 1]
                if r is None:
                    kept.append(q)
                    continue
                if all((w >> 1) in marked or self.level[w >> 1] == 0 for w in self.clauses[r][1:]):
                    continue  # redundant
                kept.append(q)
            learnt = kept
        if len(learnt) == 1:
            bt = 0
        else:
            # move the highest-level literal (other than learnt[0]) to slot 1
            max_i = 1
            for i in range(2, len(learnt)):
                if self.level[learnt[i] >> 1] > self.level[learnt[max_i] >> 1]:
                    max_i = i
            learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
            bt = self.level[learnt[1] >> 1]
        return learnt, bt

    def _check_time(self) -> None:
        if self.deadline is not None and self.conflicts % 64 == 0:
            if time.monotonic() > self.deadline:
                raise _Timeout()

    def decide_var(self) -> int | None:
        """Before the first conflict every activity is 0 and no variable
        was unassigned, so the heap would pop `decision` in order: scan it.
        After, each unassigned decision variable has a heap entry with its
        current activity (`cancel_until` pushes what it unassigns, `bump`
        pushes unassigned variables and a rescale rebuilds)."""
        heap, lval = self.heap, self.lval
        if heap is None:
            decision = self.decision
            while self.scanned < len(decision):
                v = decision[self.scanned]
                self.scanned += 1
                if lval[2 * v] is None:
                    return v
            return None
        while heap:
            act, v = _heappop(heap)
            if lval[2 * v] is None and -act == self.activity[v]:
                return v
        return None

    def complete(self, read):
        """`read` of the trail, unset variables false, if no formula fails on it; else None."""
        found = read(self.lval[0::2])
        return found if found[1] is None else None

    def solve(self, assumptions: list[int], read, decision_vars, deadline: float | None):
        """Search, from level 0, for a model in which every literal of
        `assumptions` holds; level i + 1 decides assumptions[i].  Returns
        ("sat", read(assigns)) | ("unsat", None), where assigns[v] is v's
        bool or None and `read` gives (model, the name of a formula it
        breaks or None).  A conflict on the assumption levels refutes
        them; like a conflict at level 0 of a search that held them as
        unit clauses, it counts only after other conflicts.

        Before deciding it returns the completion if `complete` accepts it,
        the model deciding gives: with each gate set to its formula's value
        it satisfies every clause (definitions, level-0 units, learnt), so
        every literal propagation forces agrees with it.  Deciding symbols'
        thresholds false in variable order, a fresh search forces each gate
        before it could decide it: a base gate names only base symbols,
        numbered below it, and later gates follow the pool's symbols.  So
        it never conflicts and returns the completion.  Only a declined one
        builds the decision state, `decision_vars()` with activities,
        phases and heap, which is dropped on return."""
        n, trail_lim = len(assumptions), self.trail_lim
        self.deadline, self.conflicts = deadline, 0
        if not self.ok:
            return "unsat", None
        restart_count = 0
        conflicts_left = 64 * _luby(restart_count)
        try:
            while True:
                confl = self.propagate()
                if confl is not None:
                    refuted = self.decision_level() <= n  # the clauses refute the assumptions
                    if refuted and not self.conflicts:
                        return "unsat", None
                    self.conflicts += 1
                    conflicts_left -= 1
                    self._check_time()
                    if refuted:
                        return "unsat", None
                    if self.heap is None:  # the heap the scan stands for: what it has not passed
                        self.heap = [(0.0, v) for v in self.decision[self.scanned:]]
                    learnt, bt = self.analyze(confl)
                    self.cancel_until(bt)
                    ci = len(self.clauses)
                    self.clauses.append(learnt)
                    if len(learnt) == 1:
                        self.enqueue(learnt[0], None)
                    else:
                        self.watches[learnt[0]].append(ci)
                        self.watches[learnt[1]].append(ci)
                        self.enqueue(learnt[0], ci)
                    self.var_inc /= 0.95
                    continue
                if conflicts_left <= 0 and self.decision_level() > n:
                    restart_count += 1
                    conflicts_left = 64 * _luby(restart_count)
                    self.cancel_until(n)
                    continue
                if len(trail_lim) < n:
                    lit = assumptions[len(trail_lim)]
                    if self.lval[lit] is False:
                        return "unsat", None
                    trail_lim.append(len(self.trail))
                    self.enqueue(lit, None)  # a no-op when it already holds
                    continue
                if self.decision is None:  # the first decision
                    if (found := self.complete(read)) is not None:
                        return "sat", found
                    self.decision, self.scanned = decision_vars(), 0
                    self.activity, self.phase, self.var_inc = [0.0] * self.nvars, [0] * self.nvars, 1.0
                v = self.decide_var()
                if v is None:
                    return "sat", read(self.lval[0::2])
                self.new_level()
                self.enqueue(2 * v + (1 - self.phase[v]), None)
        finally:
            self.decision = self.activity = self.phase = self.heap = None


# ---------------------------------------------------------------------------
# Public check interface


@dataclass
class CheckResult:
    status: str  # "sat" | "unsat" | "unknown"
    model: dict | None = None  # vid -> bool/int


class InternalSolverError(Exception):
    pass


class CdclBackend:
    """One incremental search over `pool` that holds `formulas` for good;
    used for one check, it is a one-shot check."""

    def __init__(self, pool: VarPool, formulas: list[tuple] = ()):
        self.comp = Compiler(pool)
        self.search = _Cdcl((pool.base or _NO_BASE).search)
        self.comp.add(list(formulas))
        self.search.attach(self.comp)

    def check(self, formulas: list[tuple], timeout_s: float | None = 5.0) -> CheckResult:
        deadline = None if timeout_s is None else time.monotonic() + timeout_s
        comp, checked, assumptions = self.comp, self.comp.checked, []
        for f in formulas:  # a formula object an earlier check asserted is found without hashing its tree
            hit = checked.get(id(f))
            if hit is None:
                hit = checked[id(f)] = f, comp.lit(f)
            assumptions.append(hit[1])
        self.search.attach(comp)

        def read(assigns):  # the model and the name of a formula it breaks, the check's own first, or None
            model = comp.model_from_sat(assigns)
            return model, next((f"{name} {i}" for name, fs in (("formula", formulas), ("base formula", comp.formulas))
                                for i, f in enumerate(fs) if not eval_formula(f, model)), None)

        try:
            status, found = self.search.solve(assumptions, read, comp.decision_vars, deadline)
        except _Timeout:
            return CheckResult("unknown")
        if status == "unsat":
            return CheckResult("unsat")
        model, broken = found
        if broken is not None:
            raise InternalSolverError(f"model does not satisfy {broken}")
        return CheckResult("sat", model=model)
