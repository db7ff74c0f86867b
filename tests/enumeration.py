"""Brute-force reference backend for `fdsolver`.

Enumerates every assignment of a `VarPool` and evaluates the formula IR
directly, so it shares nothing with the CNF compiler or the CDCL search.
It answers the same `check` interface as `fdsolver.CdclBackend` and is
only usable on tiny problems.
"""

from __future__ import annotations

import itertools
import time

from polex.fdsolver import CheckResult, VarPool, eval_formula


class EnumerationBackend:
    """Reference backend: enumerate all assignments (tiny problems only)."""

    def __init__(self, pool: VarPool):
        self.pool = pool

    def check(self, formulas: list[tuple], timeout_s: float | None = 5.0) -> CheckResult:
        deadline = None if timeout_s is None else time.monotonic() + timeout_s
        spaces = []
        for d in self.pool.domains:
            if d is None:
                spaces.append((False, True))
            else:
                spaces.append(tuple(range(d[0], d[1] + 1)))

        for combo in itertools.product(*spaces):
            if deadline is not None and time.monotonic() > deadline:
                return CheckResult("unknown")
            model = dict(enumerate(combo))
            if all(eval_formula(f, model) for f in formulas):
                return CheckResult("sat", model=model)
        return CheckResult("unsat")
