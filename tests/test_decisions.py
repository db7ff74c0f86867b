"""How many decisions the benchmark's jobs make, and how many sat checks need none.

A check whose propagated assumptions already give a model (the completion,
see `fdsolver._Cdcl.solve`) returns it without a decision.  These counts
do not depend on the machine: every check of a benchmark job runs without
a deadline.  A change that moves them on purpose updates them here.  A job
reads almost every sat path's input from its chased instance, so these
jobs send every sat path to the solver (`full_bound.searched`), as a job
did before.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from polex import fdsolver

import full_bound

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("workload, sat, undecided, decisions", [
    ("toys-b3", 30, 22, 45),
    ("synth-front", 148, 88, 720),
])
def test_sat_checks_end_without_a_decision_when_the_completion_holds(
        monkeypatch, tmp_path, workload, sat, undecided, decisions):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    checks = []  # (status, decisions) per check
    solve, new_level, check = fdsolver._Cdcl.solve, fdsolver._Cdcl.new_level, fdsolver.CdclBackend.check

    def counted_solve(self, *args):
        self.decided = 0
        return solve(self, *args)

    def counted_new_level(self):
        self.decided += 1
        new_level(self)

    def counted_check(self, *args, **kwargs):
        r = check(self, *args, **kwargs)
        checks.append((r.status, self.search.decided))
        return r

    monkeypatch.setattr(fdsolver._Cdcl, "solve", counted_solve)
    monkeypatch.setattr(fdsolver._Cdcl, "new_level", counted_new_level)
    monkeypatch.setattr(fdsolver.CdclBackend, "check", counted_check)
    full_bound.searched(monkeypatch)
    wl = workloads.WORKLOADS[workload]
    ld = workloads.load(**wl.inputs(PERFBENCH.parent, 1, tmp_path))
    assert wl.check(ld, wl.job(ld, workloads.Ops())) == []
    sat_decided = [n for status, n in checks if status == "sat"]
    assert (len(sat_decided), sat_decided.count(0)) == (sat, undecided)
    assert sum(n for _, n in checks) == decisions
