"""The benchmark's tracer still finds, wraps and restores every layer entry point.

`perfbench/tracing.py` rebinds program names from outside `src/`; a rename
in the program would otherwise surface only in a traced benchmark run.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from polex import explorer, fdsolver, policygen, pruner, solver

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# (owner, attribute) pairs the per-layer metrics are read from.
WRAPPED = [
    (fdsolver.CdclBackend, "check"),
    (fdsolver._Cdcl, "solve"),
    (explorer, "explore"),
    (explorer.Explorer, "generate_input"),
    (explorer, "execute"),
    (policygen, "simplify"),
    (policygen, "views_from_cqs"),
    (pruner, "is_allowed"),
    (pruner, "prune"),
    (pruner, "eval_nf"),
    (solver, "encode_instance"),
    (solver, "encode_query"),
    (solver, "result_pairs"),
]


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    return tracing


def test_tracer_wraps_and_restores_every_binding(tracing):
    before = {(owner, attr): vars(owner)[attr] for owner, attr in WRAPPED}
    with tracing.Tracer():
        for owner, attr in WRAPPED:
            assert vars(owner)[attr] is not before[owner, attr], f"{attr} is not wrapped"
    for owner, attr in WRAPPED:
        assert vars(owner)[attr] is before[owner, attr], f"{attr} is not restored"


def test_traced_toys_job_counts_the_same_work(tracing, tmp_path):
    # The counters do not depend on the machine: every check runs without
    # a deadline, and each check's search starts from the same copy of its
    # context.  A change that moves them on purpose updates them here.
    import workloads

    wl = workloads.WORKLOADS["toys-b3"]
    ld = workloads.load(**wl.inputs(PERFBENCH.parent, 1, tmp_path))
    with tracing.Tracer() as tracer:
        out = wl.job(ld, workloads.Ops())
    assert wl.check(ld, out) == []
    m = tracing.layer_metrics(tracer)
    assert (m["explorer.paths"], m["explorer.infeasible"], m["fdsolver.unknown"]) == (24, 3, 0)
    # Of the 4 unsat questions, 2 are an empty parent fetch that a foreign
    # key forbids, answered without a check: 1 in explore, 1 in policy-gen.
    assert (m["fdsolver.check_calls"], m["fdsolver.conflicts"], m["explorer.cache_hits"]) == (48, 1, 1)
