"""Same inputs, same bytes: pinned output digests of the cheapest runs of
`scripts/output_digest.py`, of one generated `synth-front` corpus, where
the simplifier repeats questions and checks leave symbols unnamed, of
toys at bound 5, where every solver-decided prune check ends at bound 1,
and of toys and that corpus at value range 0:15, which must keep their
policies.  Models take the lowest values their formulas allow, so the
0:15 runs print the same bytes as their 0:7 runs.

A change that alters any of these outputs (transcripts, generated inputs,
policies, blame) on purpose must update the digest here and say why.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from polex import solver

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "output_digest.py"


@pytest.fixture(scope="module")
def output_digest():
    spec = importlib.util.spec_from_file_location("output_digest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "run, args, digest",
    [
        ("pipeline", ("toys", 2), "9a91070e9465cd2d07f6c7d4be1f6acba1c31113e6ca75edb09541493b171cb6"),
        ("pipeline", ("grade_sheet", 2), "ded4d72afd8701624dbc81215e7c4997dc08faf3faa19506e438519a0572cea9"),
        ("broaden", (2,), "38d9cdef5556f66239b63aa1d1d9b3534071ecbbbd83b619d898db8780e50871"),
        ("synth_front", (1,), "36f4f69db2c161abc5fd89757537254fdb3c6c4428f4fce999b3b301657b4288"),
        ("pipeline", ("toys", 5), "9a91070e9465cd2d07f6c7d4be1f6acba1c31113e6ca75edb09541493b171cb6"),
        ("pipeline", ("toys", 3, (0, 15)), "9a91070e9465cd2d07f6c7d4be1f6acba1c31113e6ca75edb09541493b171cb6"),
        ("synth_front", (1, 2, (0, 15)), "36f4f69db2c161abc5fd89757537254fdb3c6c4428f4fce999b3b301657b4288"),
    ],
    ids=["toys-b2", "grade_sheet-b2", "broaden-b2", "synth-s1-b2", "toys-b5", "toys-b3-r15", "synth-s1-b2-r15"],
)
def test_output_digest_unchanged(output_digest, run, args, digest):
    assert getattr(output_digest, run)(*args) == digest


def test_toys_pipeline_compiles_each_bounded_context_once(output_digest):
    # Explore and policy-gen use one instance, prune two; every stage asks
    # through `solver.ask`, which compiles each at bound 1 and at the full
    # bound: four contexts at most, all kept by the memo.
    solver._shared.cache_clear()
    output_digest.pipeline("toys", 5)
    assert solver._shared.cache_info().misses <= 4
