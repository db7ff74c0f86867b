"""Reference for `solver.ask` without its bound-1 rung.

`solver.ask` decides a question with one row per table first and at the
full bound only if that finds no model.  A bound-1 model is a full-bound
model with the other rows absent, so the rung must never change a verdict.
This module asks the same question by one check at the full bound, so
tests can compare the stages' outputs against it.
"""

from __future__ import annotations

from polex import explorer, policygen, pruner
from polex.solver import bounded, check


def ask(schema, constraints, bound, value_range, encode, params=(), copies=1, timeout_s=5.0):
    """`solver.ask` as one check at `bound`."""
    pool, instances, env = bounded(schema, constraints, bound, value_range, params, copies)
    return check(pool, encode(pool, instances, env), timeout_s), instances, env


def only(monkeypatch) -> None:
    """Route explore, policy-gen and prune through `ask` above while the
    test runs."""
    for module in (explorer, policygen, pruner):
        monkeypatch.setattr(module, "ask", ask)
