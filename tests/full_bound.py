"""Reference for `solver.Question.ask` without its bound-1 rung, without
its row caps and without a search shared between questions.

`solver.Question` decides a question with one row per table first and at
the full bound only if that finds no model, each rung on one incremental
search that every question of the stage call reuses.  A bound-1 model is
a full-bound model with the other rows absent, so the rung must never
change a verdict, and what a search learnt from earlier questions must
never change an answer.  Nor may a question's witness closure
(`solver.Question.row_bounds`), which skips or caps its full-bound rung,
nor a path that `solver.Question.chase_refutes` or
`solver.Question.chased_input` answers without a search.  This module
asks each question by one check at the full bound on a search of its own,
so tests can compare the stages' outputs against it.
"""

from __future__ import annotations

import dataclasses

import pytest

from polex import solver
from polex.constraints import validate_instance
from polex.fdsolver import CdclBackend, InternalSolverError
from polex.solver import bounded, model_to_input


def ask(question: solver.Question, encode, copies, steps=None):
    """`solver.Question.ask` as one check at the full bound, with no row
    cap: `steps` is ignored."""
    q = question
    pool, instances, env = bounded(q.schema, q.constraints, q.bound, q.value_range, q.params, copies)
    verdict = CdclBackend(pool).check(encode(instances, env, {}), q.timeout_s)
    if verdict.status != "sat":
        return verdict.status, ()
    inputs = tuple(model_to_input(verdict.model, inst, q.schema, env, [n for n, _ in q.params]) for inst in instances)
    for ci in inputs:
        ok, viol = validate_instance(ci, q.constraints, q.schema)
        if not ok:
            raise InternalSolverError(f"model breaks a constraint: {viol}")
    return "sat", inputs


def only(monkeypatch) -> None:
    """Route every question of explore, policy-gen and `counterexample`
    through `ask` above while the test runs, paths that
    `solver.Question.chase_refutes` decides or `chased_input` answers too."""
    monkeypatch.setattr(solver.Question, "ask", ask)
    monkeypatch.setattr(solver.Question, "chase_refutes", lambda self, steps: False)
    searched(monkeypatch)


def searched(monkeypatch) -> None:
    """Send every sat path to the solver while the test runs: no input is
    read from a path's chased instance (`solver.Question.chased_input`)."""
    monkeypatch.setattr(solver.Question, "chased_input", lambda self, steps: None)


def ask_path(question: solver.Question, steps, bound: int):
    """`question.ask_path(steps)` with `question.bound` set to `bound`, as
    one check by `ask` above, with `solver.Question.chase_refutes` and
    `chased_input` bypassed."""
    with pytest.MonkeyPatch.context() as mp:
        only(mp)
        return dataclasses.replace(question, bound=bound).ask_path(steps)
