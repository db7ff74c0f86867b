"""Per-layer tracing for the benchmark's traced run.

The tracer wraps the layers' entry points from outside the program: it
rebinds each name where its callers look it up (a module attribute, or a
method on a class) and restores every binding afterwards.  Names that a
caller imported with `from ... import` are patched in the caller's module,
because rebinding them in the defining module would not be seen there.

The only non-public name wrapped is `fdsolver._Cdcl.solve`: the solver
exposes no counters yet, and one span around it splits solver time into
CNF compilation and CDCL search and reads `conflicts`, `nvars` and the
clause count.

Spans are kept in memory as [name, start, end, parent index, attrs].  A
span's self time is its duration minus the durations of its direct
children; a layer's `_s` metric is the sum of its spans' self times, so
those metrics partition the traced part of a job.  The `_total_s` metrics
are inclusive times of a stage's entry point (time per stage).
"""

from __future__ import annotations

import functools
import statistics
import time

from polex import explorer, fdsolver, policygen, pruner, solver

_NAME, _START, _END, _PARENT, _ATTRS = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, enter=None, leave=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, enter(args) if enter else None]
            stack.append(len(spans))
            spans.append(rec)
            rec[_START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[_END] = time.perf_counter()
                stack.pop()
            if leave:
                rec[_ATTRS] = leave(args, result, rec[_ATTRS])
            return result

        return traced

    def patch(self, owner, attr: str, name: str, enter=None, leave=None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, enter, leave))

    def __enter__(self) -> "Tracer":
        install(self)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[float]:
        out = [s[_END] - s[_START] for s in self.spans]
        for s in self.spans:
            if s[_PARENT] >= 0:
                out[s[_PARENT]] -= s[_END] - s[_START]
        return out


def install(t: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics need."""
    t.patch(fdsolver.CdclBackend, "check", "fdsolver.check",
            leave=lambda args, r, _: r.status)
    t.patch(fdsolver._Cdcl, "solve", "fdsolver.search",
            enter=lambda args: (args[0].nvars, len(args[0].clauses)),
            leave=lambda args, r, cnf: cnf + (args[0].conflicts,))
    # encode_instance / encode_query / result_pairs are bound by
    # `from .solver import ...` in each caller, and called inside solver too.
    for mod in (solver, explorer, policygen, pruner):
        for fname in ("encode_instance", "encode_query", "result_pairs"):
            if fname in vars(mod):
                t.patch(mod, fname, "solver.encode")
    t.patch(explorer, "explore", "explorer.explore",
            leave=lambda args, r, _: (len(r.transcripts), r.tree.counts()))
    t.patch(explorer.Explorer, "generate_input", "explorer.generate_input",
            leave=lambda args, r, _: r[0])
    t.patch(explorer, "execute", "interpreter.execute")
    t.patch(policygen, "simplify", "policygen.simplify",
            leave=lambda args, r, _: (len(args[0]), len(r)))
    t.patch(policygen, "views_from_cqs", "policygen.views",
            leave=lambda args, r, _: len(r))
    t.patch(pruner, "is_allowed", "pruner.is_allowed",
            leave=lambda args, r, _: r.status)
    t.patch(pruner, "prune", "pruner.prune",
            leave=lambda args, r, _: len(r[1]))
    t.patch(pruner, "eval_nf", "pruner.verify")


def layer_metrics(t: Tracer) -> dict[str, float]:
    """Per-layer metrics of everything recorded since the tracer was made."""
    spans = t.spans
    own = t.self_times()
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[_NAME], []).append(i)
    checks_under: dict[int, int] = {}
    for i in by_name.get("fdsolver.check", ()):
        checks_under[spans[i][_PARENT]] = checks_under.get(spans[i][_PARENT], 0) + 1

    def ids(name):
        return by_name.get(name, [])

    def self_s(name):
        return sum(own[i] for i in ids(name))

    def total_s(name):  # inclusive: these spans never nest in themselves
        return sum(spans[i][_END] - spans[i][_START] for i in ids(name))

    def attrs(name):
        return [spans[i][_ATTRS] for i in ids(name)]

    search = attrs("fdsolver.search")  # (nvars, clauses, conflicts)
    checks = attrs("fdsolver.check")
    explores = attrs("explorer.explore")  # (paths, tree counts)
    gen = ids("explorer.generate_input")
    allowed = attrs("pruner.is_allowed")
    allowed_s = sorted(spans[i][_END] - spans[i][_START] for i in ids("pruner.is_allowed"))
    paths = sum(p for p, _ in explores)
    simplified = attrs("policygen.simplify")
    return {
        "fdsolver.search_s": self_s("fdsolver.search"),
        "fdsolver.search_calls": len(search),
        "fdsolver.conflicts": sum(c for _, _, c in search),
        "fdsolver.compile_s": self_s("fdsolver.check"),
        "fdsolver.cnf_vars_max": max((v for v, _, _ in search), default=0),
        "fdsolver.cnf_clauses_max": max((c for _, c, _ in search), default=0),
        "fdsolver.cnf_clauses_total": sum(c for _, c, _ in search),
        "fdsolver.check_calls": len(checks),
        "fdsolver.sat": checks.count("sat"),
        "fdsolver.unsat": checks.count("unsat"),
        "fdsolver.unknown": checks.count("unknown"),
        "solver.encode_s": self_s("solver.encode"),
        "solver.encode_calls": len(ids("solver.encode")),
        "explorer.explore_total_s": total_s("explorer.explore"),
        "explorer.generate_input_calls": len(gen),
        "explorer.generate_input_s": self_s("explorer.generate_input"),
        "explorer.paths": paths,
        "explorer.infeasible": sum(c[explorer.INFEASIBLE] for _, c in explores),
        "explorer.abandoned": sum(c[explorer.ABANDONED] for _, c in explores),
        # infeasible without a solver call: answered by the conflict cache
        "explorer.cache_hits": sum(
            1 for i in gen
            if spans[i][_ATTRS] == explorer.INFEASIBLE and i not in checks_under
        ),
        "explorer.useful_ratio": paths / len(gen) if gen else 0.0,
        "interpreter.execute_calls": len(ids("interpreter.execute")),
        "interpreter.execute_s": self_s("interpreter.execute"),
        "policygen.simplify_total_s": total_s("policygen.simplify"),
        "policygen.simplify_s": self_s("policygen.simplify"),
        "policygen.entailment_checks": sum(checks_under.get(i, 0) for i in ids("policygen.simplify")),
        "policygen.cqs_in": sum(n for n, _ in simplified),
        "policygen.cqs_out": sum(n for _, n in simplified),
        "policygen.views": sum(attrs("policygen.views")),
        "pruner.is_allowed_total_s": total_s("pruner.is_allowed"),
        "pruner.is_allowed_calls": len(allowed),
        "pruner.allowed": allowed.count(pruner.ALLOWED),
        "pruner.not_allowed": allowed.count(pruner.NOT_ALLOWED),
        "pruner.unknown": allowed.count(pruner.UNKNOWN),
        "pruner.is_allowed_p50_s": statistics.median(allowed_s) if allowed_s else 0.0,
        "pruner.is_allowed_max_s": allowed_s[-1] if allowed_s else 0.0,
        "pruner.views_removed": sum(attrs("pruner.prune")),
        "pruner.verify_s": self_s("pruner.verify"),
    }
