"""Same inputs, same bytes: one pinned output digest per run of
`scripts/output_digest.py`, so a run added there cannot stay unpinned.

Toys prints the same bytes at bounds 2 to 5, and broaden, whose prune
decides by rewriting alone, at bounds 2 to 5.  `synth-front` seed 1
prints the same bytes at bounds 2, 4, 6 and 8: the chase refutes every
unsat question and builds every sat one's input from its chased instance
(`Question.chased_input`), which holds at most one row per table here and
does not depend on the bound.  Models and built inputs take the lowest
values their formulas allow, so the toys and `synth-front` runs at value
range 0:15 print the same bytes as their 0:7 runs; the `ranges` corpus is
the run whose inputs need values above 7.  For the same reason toys with
item categories limited to three interned names prints the toys bytes:
every input's category is 0, the id of 'red'.  Limited to 3 and 5
instead, every input's category is 3, so that run prints bytes of its own.
A built input takes the values a bound-1 model takes, so reading inputs
from the chase moved no digest but the `replies` ones, and those only in
generated-input lines (`scripts/output_digest.py --lines RUN` at the
parent and here: transcripts, tree counts, views and policies are the
same).  The `replies` corpus prints the same bytes at bounds 3 to 5: its
one handler's 4 views prune to 1 by rewriting at every bound, with no
search.  Its bound-2 run differs from them in two generated inputs.
`show_reply-0003` is built from the chased instance at bounds 3 to 5,
where its 3 posts rows fit, and at bound 2 comes from a search with 2.
`show_reply-0004` comes from a full-bound search at every bound (the
foreign key to its own table leaves no witness-closure count, and its
built input fetches the empty grandparent), where a model depends on the
bound.
`scripts/output_digest.py --lines RUN` prints the lines behind a digest,
to show what a change of pin changed.

A change that alters any of these outputs (transcripts, generated inputs,
policies, blame) on purpose must update the digest here and say why.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from polex import dsl, explorer, solver

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "output_digest.py"
_spec = importlib.util.spec_from_file_location("output_digest", SCRIPT)
output_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_digest)

TOYS = "9a91070e9465cd2d07f6c7d4be1f6acba1c31113e6ca75edb09541493b171cb6"
BROADEN = "38d9cdef5556f66239b63aa1d1d9b3534071ecbbbd83b619d898db8780e50871"
SYNTH_S1 = "36f4f69db2c161abc5fd89757537254fdb3c6c4428f4fce999b3b301657b4288"
REPLIES = "b7556d5cc9d4461b59a8bb6fd0db8bb309c2b14affe003bfec011f9b6beaf49f"
PINNED = {
    "toys-b2": TOYS,
    "toys-b3": TOYS,
    "toys-b4": TOYS,
    "toys-b5": TOYS,
    "grade_sheet-b2": "ded4d72afd8701624dbc81215e7c4997dc08faf3faa19506e438519a0572cea9",
    "broaden-b2": BROADEN,
    "broaden-b3": BROADEN,
    "broaden-b4": BROADEN,
    "broaden-b5": BROADEN,
    "synth-s1-b2": SYNTH_S1,
    "synth-s2-b2": "fef6c97de5e9177747624330aaa78eb9595d07e555799a8bab2039a766c7c945",
    "synth-s3-b2": "c117379598c2531d331acd099cbc2b76648ef064417d54c94b69b25ca4002d04",
    "synth-s1-b4": SYNTH_S1,
    "synth-s1-b6": SYNTH_S1,
    "synth-s1-b8": SYNTH_S1,
    "toys-b3-r15": TOYS,
    "synth-s1-b2-r15": SYNTH_S1,
    "ranges-b2-r15": "eca6fbeadffb63b64e96e0475d90e67bf4f0a2bef9ae055c3620a912e97aac71",
    "toys-b2-domain": TOYS,
    "toys-b2-domain-no-0": "d1c3ef5fc8bab2fa18b3113d087c71aacc4b5f30f5cb97c075a3621c30a0069f",
    "replies-b2": "e346ac281da0298c55b4775a64e6d1c032732b982f2e893165df68b8681588bf",
    "replies-b3": REPLIES,
    "replies-b4": REPLIES,
    "replies-b5": REPLIES,
}


def test_every_run_is_pinned():
    assert [name for name, _ in output_digest.RUNS] == list(PINNED)


@pytest.mark.parametrize("name, run", output_digest.RUNS, ids=[name for name, _ in output_digest.RUNS])
def test_output_digest_unchanged(name, run):
    assert run() == PINNED[name]


def test_ranges_inputs_hold_values_above_7():
    root = output_digest.ROOT / "corpus" / "ranges"
    s, cons = output_digest._load((root / "schema.txt").read_text(encoding="utf-8"))
    (program,) = dsl.parse_handlers((root / "handlers" / "high_bids.hdl").read_text(encoding="utf-8"))
    config = explorer.ExplorationConfig(table_bound=2, value_range=(0, 15), solver_timeout=None)
    inputs = explorer.explore(program, s, cons, config).inputs.values()
    assert max(v for ci in inputs for rows in ci.tables.values() for row in rows for v in row) > 7


def test_domain_without_0_moves_every_category_off_0():
    root = output_digest.ROOT / "corpus" / "toys"
    s, cons = output_digest._load((root / "schema.txt").read_text(encoding="utf-8"), output_digest.DOMAIN_NO_0)
    (program,) = dsl.parse_handlers((root / "handlers" / "show_item.hdl").read_text(encoding="utf-8"))
    config = explorer.ExplorationConfig(table_bound=2, solver_timeout=None)
    inputs = explorer.explore(program, s, cons, config).inputs.values()
    ci = s.table("items").column_index("category")
    assert {row[ci] for i in inputs for row in i.tables["items"]} == {3}


def test_toys_pipeline_compiles_each_bounded_context_once():
    # Explore and policy-gen use one instance, and prune asks no solver;
    # every stage asks through a `solver.Question`, which compiles it at
    # bound 1 and at the full bound: two contexts at most, kept by the memo.
    solver._shared.cache_clear()
    output_digest.pipeline("toys", 5)
    assert solver._shared.cache_info().misses <= 2
