"""Same inputs, same bytes: pinned output digests of the cheapest runs of
`scripts/output_digest.py`, of one generated `synth-front` corpus, where
the simplifier repeats questions and checks leave symbols unnamed, and of
toys at bound 5, where every solver-decided prune check ends at bound 1.

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
        ("pipeline", ("toys", 2), "d22891abcb4e3228bcc2419107ff423b8b0d4f9b98b612dc4d056662cde3d007"),
        ("pipeline", ("grade_sheet", 2), "1ce704ebc951599b2d032220eb04a58364e9e7af7ca01677cc9e3ec7e3ecfa6a"),
        ("broaden", (2,), "38d9cdef5556f66239b63aa1d1d9b3534071ecbbbd83b619d898db8780e50871"),
        ("synth_front", (1,), "1baf2937b02d22aec73694b06659857bbf8fd34ccefd287146cfc1d92ccb7803"),
        ("pipeline", ("toys", 5), "d22891abcb4e3228bcc2419107ff423b8b0d4f9b98b612dc4d056662cde3d007"),
    ],
    ids=["toys-b2", "grade_sheet-b2", "broaden-b2", "synth-s1-b2", "toys-b5"],
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
