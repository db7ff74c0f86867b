"""Reference for `solver.ask` without its bound-1 rung.

`solver.ask` decides a question with one row per table first and at the
full bound only if that finds no model.  A bound-1 model is a full-bound
model with the other rows absent, so the rung must never change a verdict.
This module asks the same question by one check at the full bound, so
tests can compare the stages' outputs against it.
"""

from __future__ import annotations

from polex import explorer, policygen, pruner
from polex.constraints import validate_instance
from polex.fdsolver import CdclBackend, InternalSolverError
from polex.solver import bounded, model_to_input


def ask(schema, constraints, bound, value_range, encode, params=(), copies=1, timeout_s=5.0):
    """`solver.ask` as one check at `bound`."""
    pool, instances, env = bounded(schema, constraints, bound, value_range, params, copies)
    verdict = CdclBackend().check(pool, encode(instances, env), timeout_s)
    if verdict.status != "sat":
        return verdict.status, ()
    inputs = tuple(model_to_input(verdict.model, inst, schema, env, [n for n, _ in params]) for inst in instances)
    for ci in inputs:
        ok, viol = validate_instance(ci, constraints, schema)
        if not ok:
            raise InternalSolverError(f"model breaks a constraint: {viol}")
    return "sat", inputs


def only(monkeypatch) -> None:
    """Route explore, policy-gen and prune through `ask` above while the
    test runs."""
    for module in (explorer, policygen, pruner):
        monkeypatch.setattr(module, "ask", ask)
