"""Command-line surface for the policy-extraction pipeline.

Exit codes: 0 success, 2 input error, 3 partial result (path budget hit),
4 policy-generation refusal (an unremovable request parameter, or a
COUNT(*) over a table with no unique column).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .constraints import RangeError, check_range, generate_constraints, render_constraint_file
from .explorer import ExplorationConfig, explore
from .interpreter import ExecutionError, MultiRowResult, execute
from .lexutil import SourceError
from .policygen import (
    ViewGenError,
    simplify,
    to_conditioned_queries,
    views_from_cqs,
)
from .pruner import DETERMINED, Policy, broaden, counterexample, is_allowed, merge_and_prune, prune
from .rundir import RunDirectory, RunDirError, load_policy_file, render_policy
from .schema import SchemaError, load_schema
from .solver import Question
from .normal import NormalizeError, session_view
from .transcript import record_line, render_record
from .unparse import unparse_view

OK = 0
INPUT_ERROR = 2
PARTIAL = 3
REFUSED = 4


class CliError(Exception):
    pass


# A malformed or missing input, or an unwritable output path: exit 2.
INPUT_ERRORS = (CliError, RunDirError, SchemaError, SourceError, NormalizeError, ExecutionError, RangeError, OSError)


def _arg_type(parse, valid, expected: str):
    """An argparse type: `parse(text)` when it is `valid`, else an error
    that says what was `expected`."""
    def convert(text: str):
        try:
            value = parse(text)
            if valid(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
    return convert


_value_range = _arg_type(lambda t: tuple(map(int, t.split(":"))), lambda r: len(r) == 2 and r[0] <= r[1],
                         "LO:HI with LO <= HI")
_positive_int = _arg_type(int, lambda n: n >= 1, "an integer >= 1")
_positive_float = _arg_type(float, lambda x: x > 0, "a number > 0")


def _load(run: RunDirectory, args, program=None):
    """The run's schema and constraints; for a command that searches, their
    constants and `program`'s literals checked against `--value-range`."""
    schema = run.load_schema()
    constraints = run.load_constraints(schema)
    if "value_range" in args:
        check_range(schema, constraints, args.value_range, program)
    return schema, constraints


def _load_handler(run: RunDirectory, name: str):
    handlers = run.load_handlers()
    if name not in handlers:
        known = ", ".join(sorted(handlers)) or "none"
        raise CliError(f"unknown handler {name!r} (known: {known})")
    return handlers[name]


# ---------------------------------------------------------------------------
# Commands


def cmd_constraints_gen(args) -> int:
    items = generate_constraints(load_schema(args.schema))
    text = render_constraint_file(items)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
        print(f"wrote {len(items)} constraints to {args.output}")
    else:
        sys.stdout.write(text)
    return OK


def cmd_explore(args) -> int:
    run = RunDirectory(args.rundir)
    program, _path = _load_handler(run, args.handler)
    schema, constraints = _load(run, args, program)
    config = ExplorationConfig(args.bound, args.value_range, args.timeout, args.max_paths)
    result = explore(program, schema, constraints, config)
    meta = {"config": config.to_json()}
    run.remove_runs(args.handler)
    for t in result.transcripts:
        run.write_transcript(t, meta)
        run.write_input(result.inputs[t.input_id], schema)
    for line in result.reports:
        print(line, file=sys.stderr)
    for line in result.warnings:
        print(f"warning: {line}", file=sys.stderr)
    counts = result.tree.counts()
    print(
        f"{args.handler}: {len(result.transcripts)} path(s) explored, "
        f"{counts['infeasible']} infeasible, {counts['abandoned']} abandoned"
    )
    if not result.complete:
        print("exploration incomplete: path budget reached", file=sys.stderr)
        return PARTIAL
    return OK


def cmd_policy_gen(args) -> int:
    run = RunDirectory(args.rundir)
    program, _ = _load_handler(run, args.handler)
    schema, constraints = _load(run, args, program)
    ids = run.transcript_ids(args.handler)
    if not ids:
        raise CliError(f"no transcripts for handler {args.handler!r}; run explore first")
    transcripts = [replace(run.read_transcript(i)[1], input=run.read_input(i, schema)) for i in ids]
    try:
        cqs = to_conditioned_queries(transcripts, schema)
        simplified = simplify(cqs, schema, constraints, dict(program.request_params),
                              table_bound=args.bound, value_range=args.value_range, timeout_s=args.timeout)
        views = views_from_cqs(simplified, schema)
    except (ViewGenError, NormalizeError) as e:
        print(f"policy generation refused: {e}", file=sys.stderr)
        return REFUSED
    policy = Policy(views, args.bound, args.value_range)
    pruned, _removed = prune(policy, constraints, schema)
    path = run.write_policy(args.handler, pruned.views, schema)
    print(
        f"{args.handler}: paths={len(transcripts)} "
        f"condqs {len(cqs)} -> {len(simplified)} "
        f"views {len(views)} -> {len(pruned.views)}"
    )
    approx = sum(1 for cq in simplified if cq.approx)
    if approx:
        print(
            f"note: {approx} conditioned quer{'y' if approx == 1 else 'ies'} "
            "involved lossy rewrites (LEFT JOIN split or COUNT approximation)",
            file=sys.stderr,
        )
    print(f"wrote {path}")
    return OK


def cmd_policy_merge_prune(args) -> int:
    run = RunDirectory(args.rundir)
    schema, constraints = _load(run, args)
    policies = []
    for name in args.handlers:
        views = load_policy_file(run.policy_path(name), schema)
        policies.append(Policy(views))
    merged, removed = merge_and_prune(policies, constraints, schema)
    run.policies_dir.mkdir(parents=True, exist_ok=True)
    out = Path(args.output) if args.output else run.policies_dir / "final.sql"
    out.write_text(render_policy(merged.views, schema), encoding="utf-8")
    total_in = sum(len(p.views) for p in policies)
    print(f"merged {total_in} view(s) -> {len(merged.views)} ({len(removed)} pruned)")
    print(f"wrote {out}")
    return OK


def cmd_broaden(args) -> int:
    run = RunDirectory(args.rundir)
    schema, constraints = _load(run, args)
    base_views = load_policy_file(args.policy, schema)
    user_views = load_policy_file(args.added, schema)
    policy = Policy(base_views)
    broadened, report = broaden(policy, user_views, constraints, schema)
    out = Path(args.output) if args.output else Path(args.policy).with_suffix(".broadened.sql")
    out.write_text(render_policy(broadened.views, schema), encoding="utf-8")
    run.reports_dir.mkdir(parents=True, exist_ok=True)
    lines = [f"broadened policy: {len(policy.views)} + {len(user_views)} pinned -> {len(broadened.views)} view(s)"]
    for v, blame in report.removed:
        sql = unparse_view(v.nf, schema).replace("\n", " ")
        if blame:
            made_by = ", ".join(f"added view {i + 1}" for i in blame)
        else:
            made_by = "the added views jointly"
        lines.append(f"removed (made redundant by {made_by}): {sql}")
    report_path = run.reports_dir / "broaden.txt"
    report_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print("\n".join(lines))
    print(f"wrote {out}")
    return OK


def cmd_replay(args) -> int:
    run = RunDirectory(args.rundir)
    schema = run.load_schema()
    meta, stored = run.read_transcript(args.input_id)
    ci = run.read_input(args.input_id, schema)
    program, path = _load_handler(run, meta["handler"])
    try:
        transcript, _warnings = execute(program, ci, schema)
    except MultiRowResult:
        print("error: replay diverged from the stored transcript", file=sys.stderr)
        return INPUT_ERROR
    got = [record_line(r) for r in transcript.records]
    want = [record_line(r) for r in stored.records]
    if got != want:
        print("error: replay diverged from the stored transcript", file=sys.stderr)
        return INPUT_ERROR
    for r in transcript.records:
        suffix = f"  @{path.name}:{r.line}" if args.verbose and r.line else ""
        print(render_record(r) + suffix)
    print(f"outcome: {transcript.outcome}")
    return OK


def cmd_is_allowed(args) -> int:
    run = RunDirectory(args.rundir)
    schema, constraints = _load(run, args)
    views = load_policy_file(args.policy, schema)
    q = session_view(args.query, schema)
    nfs = [v.nf for v in views]
    verdict = is_allowed(q, nfs, schema, constraints)
    if not verdict.allowed:
        question = Question(schema, constraints, args.bound, args.value_range, timeout_s=args.timeout)
        verdict = counterexample(q, nfs, question)
    lo, hi = args.value_range
    print(f"determined at bound {args.bound} within range {lo}:{hi}, no rewriting"
          if verdict.status == DETERMINED else verdict.status.replace("_", " "))
    if verdict.counterexample and args.dump:
        dump = Path(args.dump)
        dump.mkdir(parents=True, exist_ok=True)
        ca, cb = verdict.counterexample
        ca.save(dump / "counterexample-a.json", schema)
        cb.save(dump / "counterexample-b.json", schema)
        print(f"counterexample pair written to {dump}")
    return OK


# ---------------------------------------------------------------------------
# Argument parsing


def _add_solver_args(p, include_explore=False):
    p.add_argument("--bound", type=_positive_int, default=2, help="symbolic rows per table (default 2)")
    p.add_argument("--value-range", type=_value_range, default=(0, 7), metavar="LO:HI",
                   help="database value range (default 0:7)")
    p.add_argument("--timeout", type=_positive_float, default=5.0,
                   help="solver timeout per check, seconds (a question asks at most two)")
    if include_explore:
        p.add_argument("--max-paths", type=_positive_int, default=10000, help="path budget")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polex",
        description="Extract a view-based access-control policy from handler programs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constraints-gen", help="generate constraints from a schema file")
    p.add_argument("schema")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_constraints_gen)

    p = sub.add_parser("explore", help="concolically explore one handler")
    p.add_argument("rundir")
    p.add_argument("handler")
    _add_solver_args(p, include_explore=True)
    p.set_defaults(func=cmd_explore)

    p = sub.add_parser("policy-gen", help="generate a per-handler policy from transcripts")
    p.add_argument("rundir")
    p.add_argument("handler")
    _add_solver_args(p)
    p.set_defaults(func=cmd_policy_gen)

    p = sub.add_parser("policy-merge-prune", help="merge per-handler policies and prune")
    p.add_argument("rundir")
    p.add_argument("handlers", nargs="+")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_policy_merge_prune)

    p = sub.add_parser("broaden", help="add pinned broader views and re-prune")
    p.add_argument("rundir")
    p.add_argument("policy")
    p.add_argument("added")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_broaden)

    p = sub.add_parser("replay", help="re-run a logged input and echo its transcript")
    p.add_argument("rundir")
    p.add_argument("input_id")
    p.add_argument("--verbose", action="store_true", help="annotate records with source lines")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("is-allowed", help="check a query against a policy file")
    p.add_argument("rundir")
    p.add_argument("policy")
    p.add_argument("query")
    p.add_argument("--dump", help="directory for counterexample instance files")
    _add_solver_args(p)
    p.set_defaults(func=cmd_is_allowed)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except INPUT_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return INPUT_ERROR


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
