#!/usr/bin/env python3
"""Print one SHA-256 digest per pipeline run, to compare two versions' outputs.

    PYTHONPATH=src python3 scripts/output_digest.py
    PYTHONPATH=src python3 scripts/output_digest.py --lines replies-b2

With `--lines RUN` it prints the lines behind that one run's digest, then
the digest, so two versions' lines can be compared with `diff`.

Every run is in-process and every solver call has no deadline
(`timeout_s=None`), so the digests depend only on the code, never on the
machine's speed.  The runs:

- toys at bounds 2 to 5 and grade_sheet at bound 2: explore, policy-gen
  and prune per handler, then merge-prune;
- broaden at bounds 2 to 5: the narrow policy broadened by the pinned
  broader views;
- the generated `synth-front` corpus (`perfbench/synth.py`), seeds 1-3 at
  bound 2 and seed 1 at bounds 4, 6 and 8: explore and policy-gen per
  handler;
- toys at bound 3 and `synth-front` seed 1 at bound 2 again, with value
  range 0:15 instead of 0:7 (the `-r15` runs);
- the `ranges` corpus at bound 2 and value range 0:15: its handlers filter
  with `<>`, `<`, `<=`, `>` and `>=`, between two columns and against
  constants above 7, so its inputs hold values a 0:7 run cannot;
- toys at bound 2 with `DOMAIN` added, which interns three category
  names (ids 0-2): the one run whose constraints hold a literal relation
  with more than the empty `nonnull` one;
- toys at bound 2 with `DOMAIN_NO_0` added instead: 0, the value every
  model tries first, is not a category, so these searches must leave it
  and their inputs hold category 3;
- the `replies` corpus at bounds 2 to 5: explore, policy-gen and prune
  per handler, then merge-prune, over a nullable self-referencing
  foreign key (a reply's parent post).

A digest covers the transcript lines, the generated inputs, the prefix-tree
counts, the warnings and reports, the per-handler views with their witness
ids, the merged or broadened policy text and the broaden blame.  Two
versions of the program produce byte-identical outputs on these runs iff
they print the same lines.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from polex import constraints, dsl, explorer, policygen, pruner, rundir, schema
from polex.transcript import record_line

ROOT = Path(__file__).resolve().parent.parent
VALUE_RANGE = (0, 7)
DOMAIN = "domain items.category in {'red', 'green', 'blue'}"
DOMAIN_NO_0 = "domain items.category in {3, 5}"

sys.path.insert(0, str(ROOT / "perfbench"))
import synth  # noqa: E402  (the synth-front corpus generator)


class Digest:
    echo = None  # a stream that gets each line too (`--lines`)

    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, *lines: str) -> None:
        for line in lines:
            self._h.update(line.encode("utf-8") + b"\n")
            if self.echo is not None:
                print(line, file=self.echo)

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def _load(schema_text: str, extra: str = ""):
    """The schema's generated constraints, then the constraint lines `extra`."""
    s = schema.parse_schema(schema_text)
    items = constraints.generate_constraints(s) + constraints.parse_constraint_file(extra, s, schema.Interner())
    return s, constraints.expand_all(items, s)


def _handler_views(d: Digest, program, s, cons, bound: int, value_range: tuple[int, int]):
    """Explore and policy-gen one handler; digest everything it produced."""
    result = explorer.explore(
        program, s, cons,
        explorer.ExplorationConfig(table_bound=bound, value_range=value_range, solver_timeout=None),
    )
    d.add(f"handler {program.name} complete={result.complete}",
          json.dumps(result.tree.counts(), sort_keys=True))
    for t in result.transcripts:
        d.add(f"transcript {t.input_id} outcome={t.outcome}", *(record_line(r) for r in t.records))
        d.add(json.dumps(result.inputs[t.input_id].to_json(s), sort_keys=True))
    d.add(*(f"report {line}" for line in result.reports))
    d.add(*(f"warning {line}" for line in result.warnings))
    cqs = policygen.to_conditioned_queries(result.transcripts, s)
    simplified = policygen.simplify(
        cqs, s, cons, dict(program.request_params),
        table_bound=bound, value_range=value_range, timeout_s=None,
    )
    views = policygen.views_from_cqs(simplified, s)
    d.add(f"condqs {len(cqs)} -> {len(simplified)}", rundir.render_policy(views, s))
    return views


def pipeline(corpus: str, bound: int, value_range: tuple[int, int] = VALUE_RANGE, extra: str = "") -> str:
    """Per-handler explore, policy-gen and prune, then merge-prune, with the
    constraint lines `extra` added."""
    d = Digest()
    root = ROOT / "corpus" / corpus
    s, cons = _load((root / "schema.txt").read_text(encoding="utf-8"), extra)
    policies = []
    for path in sorted((root / "handlers").glob("*.hdl")):
        for program in dsl.parse_handlers(path.read_text(encoding="utf-8")):
            views = _handler_views(d, program, s, cons, bound, value_range)
            pruned, _ = pruner.prune(pruner.Policy(views, bound, value_range), cons, s)
            d.add(f"pruned {program.name}", rundir.render_policy(pruned.views, s))
            policies.append(pruned)
    merged, removed = pruner.merge_and_prune(policies, cons, s)
    d.add(f"merged, {len(removed)} pruned", rundir.render_policy(merged.views, s))
    return d.hexdigest()


def broaden(bound: int) -> str:
    d = Digest()
    root = ROOT / "corpus" / "broaden"
    s, cons = _load((root / "schema.txt").read_text(encoding="utf-8"))
    narrow = rundir.load_policy_file(root / "narrow.sql", s)
    broader = rundir.load_policy_file(root / "broader.sql", s)
    policy, report = pruner.broaden(pruner.Policy(narrow, bound, VALUE_RANGE), broader, cons, s)
    d.add("broadened", rundir.render_policy(policy.views, s))
    for v, blame in report.removed:
        d.add(f"removed {narrow.index(v)} blame {blame}")
    return d.hexdigest()


def synth_front(seed: int, bound: int = 2, value_range: tuple[int, int] = VALUE_RANGE) -> str:
    d = Digest()
    schema_text, handlers, _expected = synth.generate(seed)
    s, cons = _load(schema_text)
    for name in sorted(handlers):
        for program in dsl.parse_handlers(handlers[name]):
            _handler_views(d, program, s, cons, bound, value_range)
    return d.hexdigest()


RUNS = [
    ("toys-b2", lambda: pipeline("toys", 2)),
    ("toys-b3", lambda: pipeline("toys", 3)),
    ("toys-b4", lambda: pipeline("toys", 4)),
    ("toys-b5", lambda: pipeline("toys", 5)),
    ("grade_sheet-b2", lambda: pipeline("grade_sheet", 2)),
    ("broaden-b2", lambda: broaden(2)),
    ("broaden-b3", lambda: broaden(3)),
    ("broaden-b4", lambda: broaden(4)),
    ("broaden-b5", lambda: broaden(5)),
    ("synth-s1-b2", lambda: synth_front(1)),
    ("synth-s2-b2", lambda: synth_front(2)),
    ("synth-s3-b2", lambda: synth_front(3)),
    ("synth-s1-b4", lambda: synth_front(1, bound=4)),
    ("synth-s1-b6", lambda: synth_front(1, bound=6)),
    ("synth-s1-b8", lambda: synth_front(1, bound=8)),
    ("toys-b3-r15", lambda: pipeline("toys", 3, (0, 15))),
    ("synth-s1-b2-r15", lambda: synth_front(1, value_range=(0, 15))),
    ("ranges-b2-r15", lambda: pipeline("ranges", 2, (0, 15))),
    ("toys-b2-domain", lambda: pipeline("toys", 2, extra=DOMAIN)),
    ("toys-b2-domain-no-0", lambda: pipeline("toys", 2, extra=DOMAIN_NO_0)),
    ("replies-b2", lambda: pipeline("replies", 2)),
    ("replies-b3", lambda: pipeline("replies", 3)),
    ("replies-b4", lambda: pipeline("replies", 4)),
    ("replies-b5", lambda: pipeline("replies", 5)),
]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Print one output digest per pipeline run.")
    ap.add_argument("--lines", metavar="RUN", choices=[name for name, _ in RUNS],
                    help="print the lines behind this run's digest, then the digest")
    args = ap.parse_args(argv)
    if args.lines:
        Digest.echo = sys.stdout
    for name, run in RUNS:
        if args.lines in (None, name):
            print(f"{name} {run()}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
