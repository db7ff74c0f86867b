"""The benchmark's three workloads: inputs, set-up, one job, and checks.

Every workload uses value range 0:7 and runs every solver call without a
wall-clock deadline (`timeout_s=None`), so each job does the same work on
any machine and its outputs can be checked exactly.  The program's own
checks stay on: encoding cross-checks in the explorer, model verification
in the solver, and brute-force verification of counterexamples in the
pruner.

polex is driven only through its public functions, looked up as module
attributes at call time so the traced run can wrap them.
"""

from __future__ import annotations

from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from polex import constraints, dsl, explorer, interpreter, policygen, pruner, rundir, schema
from polex.normal import to_normal_form
from polex.sqlparser import parse_sql
from polex.transcript import record_line

import synth

VALUE_RANGE = (0, 7)


@dataclass
class Ops:
    """Operations attempted and failed, across all jobs of a run.

    An operation is one handler exploration, one policy generation or one
    determinacy verdict; it fails when it ends undecided, abandoned,
    refused or raised.
    """

    attempted: int = 0
    failed: int = 0

    def count(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok


@dataclass
class Loaded:
    schema: object
    constraints: list
    programs: list = field(default_factory=list)
    views: dict = field(default_factory=dict)  # policy file stem -> views
    expected_paths: dict = field(default_factory=dict)  # handler -> path count


def load(schema_path: Path, handler_paths=(), policy_paths=(), expected_paths=None) -> Loaded:
    """Set-up: parse and load the schema, constraints, handlers and policies."""
    s = schema.parse_schema(schema_path.read_text(encoding="utf-8"))
    cons = constraints.expand_all(constraints.generate_constraints(s), s)
    programs = [p for path in handler_paths for p in dsl.parse_handlers(path.read_text(encoding="utf-8"))]
    views = {path.stem: rundir.load_policy_file(path, s) for path in policy_paths}
    return Loaded(s, cons, programs, views, expected_paths or {})


@contextmanager
def counting_verdicts(ops: Ops):
    """Count each determinacy verdict as an operation while the block runs."""
    original = pruner.is_allowed

    def counted(*args, **kwargs):
        verdict = original(*args, **kwargs)
        ops.count(verdict.status != pruner.UNKNOWN)
        return verdict

    pruner.is_allowed = counted
    try:
        yield
    finally:
        pruner.is_allowed = original


def _explore(ld: Loaded, program, bound: int, ops: Ops):
    result = explorer.explore(
        program, ld.schema, ld.constraints,
        explorer.ExplorationConfig(table_bound=bound, value_range=VALUE_RANGE, solver_timeout=None),
    )
    counts = result.tree.counts()
    ops.count(result.complete and counts[explorer.ABANDONED] == 0 and counts[explorer.PENDING] == 0)
    return result


def _policy_gen(ld: Loaded, program, transcripts, bound: int, ops: Ops):
    cqs = policygen.to_conditioned_queries(transcripts, ld.schema)
    simplified = policygen.simplify(
        cqs, ld.schema, ld.constraints, dict(program.request_params),
        table_bound=bound, value_range=VALUE_RANGE, timeout_s=None,
    )
    views = policygen.views_from_cqs(simplified, ld.schema)
    ops.count(True)  # a refusal raises and is counted by the caller
    return views


# ---------------------------------------------------------------------------
# toys-b3: the bundled toy corpus through the whole pipeline at bound 3.

TOYS_BOUND = 3

# The merged policy, derived by hand from corpus/toys/handlers:
# - users: flagged_lookup and both_branches fetch any user row by a request
#   parameter, so every users row can be revealed;
# - items: show_item fetches any item by id before its owner/public checks,
#   so every items row can be revealed (the item and owner queries of the
#   other handlers are projections or selections of it);
# - details joined with items: show_item, detail_chain and exists_check
#   reveal the details of any existing item, and the foreign key makes every
#   details row join its item.
TOYS_POLICY = (
    "SELECT * FROM users",
    "SELECT * FROM details, items WHERE items.id = details.item_id",
    "SELECT * FROM items",
)


def toys_inputs(root: Path, seed: int, workdir: Path) -> dict:
    corpus = root / "corpus" / "toys"
    return {"schema_path": corpus / "schema.txt",
            "handler_paths": sorted((corpus / "handlers").glob("*.hdl"))}


def toys_job(ld: Loaded, ops: Ops):
    policies = []
    for program in ld.programs:
        result = _explore(ld, program, TOYS_BOUND, ops)
        views = _policy_gen(ld, program, result.transcripts, TOYS_BOUND, ops)
        pruned, _ = pruner.prune(
            pruner.Policy(views, TOYS_BOUND, VALUE_RANGE), ld.constraints, ld.schema, timeout_s=None
        )
        policies.append(pruned)
    merged, _ = pruner.merge_and_prune(policies, ld.constraints, ld.schema, timeout_s=None)
    return merged


def toys_check(ld: Loaded, merged) -> list[str]:
    got = [v.nf for v in merged.views]
    want = {to_normal_form(parse_sql(q), ld.schema) for q in TOYS_POLICY}
    if len(got) != len(want) or set(got) != want:
        return [f"toys-b3: merged policy has {len(got)} view(s), not the expected 3"]
    return []


# ---------------------------------------------------------------------------
# broaden-b3: corpus/broaden, 6 narrow + 2 pinned broader views, bound 3.

BROADEN_BOUND = 3

# The expectation of acceptance criterion 6: the pinned broader views plus
# the contacts view (narrow view 6) survive.  Blame, by hand: narrow views
# 1-3 are selections/projections of broader view 1 (public profiles; the
# foreign key makes the join with people lossless), and narrow views 4-5
# are projections of broader view 2 (profiles of the user's own people).
BROADEN_BLAME = {0: [0], 1: [0], 2: [0], 3: [1], 4: [1]}
BROADEN_KEPT_NARROW = 5


def broaden_inputs(root: Path, seed: int, workdir: Path) -> dict:
    corpus = root / "corpus" / "broaden"
    return {"schema_path": corpus / "schema.txt",
            "policy_paths": [corpus / "narrow.sql", corpus / "broader.sql"]}


def broaden_job(ld: Loaded, ops: Ops):
    policy = pruner.Policy(list(ld.views["narrow"]), BROADEN_BOUND, VALUE_RANGE)
    return pruner.broaden(policy, ld.views["broader"], ld.constraints, ld.schema, timeout_s=None)


def broaden_check(ld: Loaded, out) -> list[str]:
    policy, report = out
    narrow, broader = ld.views["narrow"], ld.views["broader"]
    want = {v.nf for v in broader} | {narrow[BROADEN_KEPT_NARROW].nf}
    problems = []
    if len(policy.views) != len(want) or {v.nf for v in policy.views} != want:
        problems.append("broaden-b3: broadened policy is not the 2 pinned views plus the contacts view")
    blame = {narrow.index(v): b for v, b in report.removed}
    if blame != BROADEN_BLAME:
        problems.append(f"broaden-b3: removed views and blame {blame} differ from {BROADEN_BLAME}")
    return problems


# ---------------------------------------------------------------------------
# synth-front: a generated corpus through explore and policy-gen, bound 2.

SYNTH_BOUND = 2


def synth_inputs(root: Path, seed: int, workdir: Path) -> dict:
    schema_text, handlers, expected_paths = synth.generate(seed)
    corpus = workdir / f"synth-{seed}"
    (corpus / "handlers").mkdir(parents=True, exist_ok=True)
    for old in (corpus / "handlers").glob("*.hdl"):
        old.unlink()
    (corpus / "schema.txt").write_text(schema_text, encoding="utf-8")
    paths = []
    for name, text in handlers.items():
        path = corpus / "handlers" / name
        path.write_text(text, encoding="utf-8")
        paths.append(path)
    return {"schema_path": corpus / "schema.txt", "handler_paths": paths,
            "expected_paths": expected_paths}


def synth_job(ld: Loaded, ops: Ops):
    out = []
    for program in ld.programs:
        result = _explore(ld, program, SYNTH_BOUND, ops)
        views = _policy_gen(ld, program, result.transcripts, SYNTH_BOUND, ops)
        out.append((program, result, views))
    return out


def synth_check(ld: Loaded, out) -> list[str]:
    problems = []
    for program, result, views in out:
        counts = result.tree.counts()
        if counts[explorer.PENDING] or counts[explorer.ABANDONED]:
            problems.append(f"synth-front: {program.name} left pending or abandoned prefixes")
        want = ld.expected_paths[program.name]
        if len(result.transcripts) != want:
            problems.append(f"synth-front: {program.name} has {len(result.transcripts)} paths, not {want}")
        if not views:
            problems.append(f"synth-front: {program.name} produced no view")
        for t in result.transcripts:
            replayed, _ = interpreter.execute(program, result.inputs[t.input_id], ld.schema)
            if (replayed.outcome != t.outcome
                    or [record_line(r) for r in replayed.records] != [record_line(r) for r in t.records]):
                problems.append(f"synth-front: input {t.input_id} does not replay to its transcript")
    return problems


@dataclass(frozen=True)
class Workload:
    inputs: Callable[[Path, int, Path], dict]  # (repo root, seed, work dir) -> arguments of load
    job: Callable[[Loaded, Ops], object]
    check: Callable[[Loaded, object], list[str]]  # -> problems found


WORKLOADS = {
    "toys-b3": Workload(toys_inputs, toys_job, toys_check),
    "broaden-b3": Workload(broaden_inputs, broaden_job, broaden_check),
    "synth-front": Workload(synth_inputs, synth_job, synth_check),
}
