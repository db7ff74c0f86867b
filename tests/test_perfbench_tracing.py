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
    # The chase refutes all 4 unsat questions without a check, 3 in explore
    # and 1 in policy-gen, so no search is unsat, and builds 28 of the 30
    # sat ones' inputs: only `item_report`'s 2 LEFT JOIN paths are checked.
    # Prune makes no check: its 26 decisions are rewritings or none.
    assert (m["fdsolver.check_calls"], m["fdsolver.conflicts"], m["explorer.cache_hits"]) == (2, 1, 3)
    assert m["fdsolver.unsat"] == 0
    assert (m["pruner.is_allowed_calls"], m["pruner.allowed"]) == (26, 10)


def test_every_workload_job_counts_operations_and_fails_none(tmp_path, monkeypatch):
    # perfbench/run.py counts a job's operations under `counting_verdicts`,
    # which sees prune and broaden only through `pruner.is_allowed`: a
    # decision made past that name leaves broaden-b3 with none to count.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    attempted = {}
    for name, wl in workloads.WORKLOADS.items():
        ld = workloads.load(**wl.inputs(PERFBENCH.parent, 1, tmp_path))
        ops = workloads.Ops()
        with workloads.counting_verdicts(ops):
            assert wl.check(ld, wl.job(ld, ops)) == []
        assert ops.failed == 0, name
        attempted[name] = ops.attempted
    assert min(attempted.values()) > 0, attempted
    # 6 decisions in broaden's prune pass, and 10 in its blame: 5 removed
    # views, each against the 2 pinned ones.
    assert attempted["broaden-b3"] == 16
