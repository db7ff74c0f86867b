"""Brute-force reference backend for `fdsolver`.

Enumerates every assignment of a `VarPool` and evaluates the formula IR
directly, so it shares nothing with the CNF compiler or the CDCL search.
It answers the same `check` interface as `fdsolver.CdclBackend`, cores
included, and is only usable on tiny problems.
"""

from __future__ import annotations

import itertools
import time

from polex.fdsolver import CheckResult, VarPool, eval_formula


class _Timeout(Exception):
    pass


class EnumerationBackend:
    """Reference backend: enumerate all assignments (tiny problems only)."""

    name = "enumerate"

    def check(
        self,
        pool: VarPool,
        labeled: list[tuple[str, tuple]],
        hard: list[tuple] = (),
        timeout_s: float | None = 5.0,
        shrink_cores: bool = True,
    ) -> CheckResult:
        deadline = None if timeout_s is None else time.monotonic() + timeout_s
        spaces = []
        for vid in range(len(pool)):
            if pool.kinds[vid] == "bool":
                spaces.append((False, True))
            else:
                lo, hi = pool.domains[vid]
                spaces.append(tuple(range(lo, hi + 1)))

        def find_model(formulas) -> dict | None:
            for combo in itertools.product(*spaces):
                if deadline is not None and time.monotonic() > deadline:
                    raise _Timeout()
                model = dict(enumerate(combo))
                if all(eval_formula(f, model) for f in formulas):
                    return model
            return None

        by_label = dict(labeled)
        try:
            model = find_model(list(hard) + [f for _, f in labeled])
            if model is not None:
                return CheckResult("sat", model=model)
            core = [label for label, _ in labeled]
            if shrink_cores:
                i = 0
                while i < len(core):
                    trial = core[:i] + core[i + 1:]
                    if find_model(list(hard) + [by_label[l] for l in trial]) is None:
                        core = trial
                    else:
                        i += 1
            return CheckResult("unsat", core=core)
        except _Timeout:
            return CheckResult("unknown")
