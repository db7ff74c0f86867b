"""Concolic exploration driver.

The driver owns a prefix tree of explored paths.  Each node is one
transcript record together with its outcome (Branch records fork on
their boolean outcome; Query records fork on their emptiness).  For
every pending prefix the driver asserts the database constraints plus
the path conditions up to the prefix (negating the final record's
outcome is implicit: the pending node already carries the flipped
outcome), asks the solver for an input, runs the handler on it, and
grows the tree from the transcript.  Exploration ends when no pending
prefix remains or the path budget runs out.

Determinism: each round generates inputs for the pending prefixes in
depth-first tree order, then runs them in that order, so the visited set
and all emitted ids reproduce.

Every pending prefix costs one solver check: sat gives the next input,
unsat marks the prefix infeasible, and a timeout marks it abandoned.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .constraints import Constraint, validate_instance
from .dsl import HandlerProgram
from .fdsolver import lnot
from .instance import ConcreteInput
from .interpreter import MultiRowResult, QueryCatalog, execute, validate_program
from .schema import Schema
from .solver import bounded, check, encode_pred, encode_query, model_to_input
from .terms import IntLit, iter_terms
from .transcript import (
    BranchRecord,
    QueryRecord,
    Transcript,
    TranscriptRecord,
    pred_to_json,
    scalar_to_json,
)

PENDING = "pending"
VISITED = "visited"
INFEASIBLE = "infeasible"
ABANDONED = "abandoned"


class DivergenceError(Exception):
    """A run did not follow the prefix its input was generated for."""


@dataclass
class ExplorationConfig:
    table_bound: int = 2
    value_range: tuple[int, int] = (0, 7)
    solver_timeout: float = 5.0
    max_paths: int = 10000
    seed: int = 0

    def __post_init__(self):
        if self.table_bound < 1:
            raise ValueError("table_bound must be >= 1")
        if self.max_paths < 1:
            raise ValueError("max_paths must be >= 1")

    def to_json(self) -> dict:
        return {
            "bound": self.table_bound,
            "valueRange": list(self.value_range),
            "solverTimeout": self.solver_timeout,
            "maxPaths": self.max_paths,
        }


def record_label(r: TranscriptRecord) -> str:
    """Stable content-based identity of a record plus its outcome."""
    if isinstance(r, QueryRecord):
        body = {
            "q": r.index,
            "sql": r.sql,
            "params": [scalar_to_json(s) for s in r.params],
            "empty": r.is_empty,
        }
    else:
        body = {"cond": pred_to_json(r.cond), "out": r.outcome}
    return json.dumps(body, sort_keys=True, separators=(",", ":"))


def _flip(r: TranscriptRecord) -> TranscriptRecord:
    if isinstance(r, QueryRecord):
        return QueryRecord(r.index, r.sql, r.params, not r.is_empty)
    return BranchRecord(r.cond, not r.outcome)


@dataclass
class Node:
    record: TranscriptRecord | None  # None only at the root
    status: str
    parent: "Node | None" = None
    children: list["Node"] = field(default_factory=list)
    note: str = ""

    def prefix(self) -> list[TranscriptRecord]:
        out = []
        n = self
        while n.record is not None:
            out.append(n.record)
            n = n.parent
        return list(reversed(out))


class PrefixTree:
    def __init__(self):
        self.root = Node(None, PENDING)

    def pending_nodes(self) -> list[Node]:
        out = []
        stack = [self.root]
        while stack:
            n = stack.pop()
            if n.status == PENDING:
                out.append(n)
            stack.extend(reversed(n.children))
        return out

    def extend(self, transcript: Transcript, target: Node | None = None) -> int:
        """Mark the transcript's path visited, adding pending siblings for
        fresh branch points.  Returns the number of new pending nodes.

        Raises DivergenceError if the transcript does not pass through
        `target` (the prefix its input was generated to follow).
        """
        if target is not None:
            want = [record_label(r) for r in target.prefix()]
            got = [record_label(r) for r in transcript.records[: len(want)]]
            if got != want:
                raise DivergenceError(
                    f"run diverged from its prefix at record {len(got)}"
                )
        node = self.root
        node.status = VISITED
        new_pending = 0
        for r in transcript.records:
            label = record_label(r)
            child = None
            for c in node.children:
                if record_label(c.record) == label:
                    child = c
                    break
            if child is None:
                child = Node(r, PENDING, parent=node)
                node.children.append(child)
                sibling = Node(_flip(r), PENDING, parent=node)
                node.children.append(sibling)
                new_pending += 1
            child.status = VISITED
            node = child
        return new_pending

    def counts(self) -> dict[str, int]:
        out = {PENDING: 0, VISITED: 0, INFEASIBLE: 0, ABANDONED: 0}
        stack = [self.root]
        while stack:
            n = stack.pop()
            out[n.status] += 1
            stack.extend(n.children)
        return out


@dataclass
class ExplorationResult:
    transcripts: list[Transcript]
    inputs: dict[str, ConcreteInput]
    tree: PrefixTree
    complete: bool
    reports: list[str]
    warnings: list[str]


class _PathEncoder:
    """Assemble labeled solver formulas for one prefix."""

    def __init__(self, program: HandlerProgram, schema: Schema, constraints: list[Constraint],
                 config: ExplorationConfig, catalog: QueryCatalog):
        self.schema = schema
        self.config = config
        self.catalog = catalog
        self.pool, (self.inst,), self.env, constraint_formulas = bounded(
            schema, constraints, config.table_bound, config.value_range, program.request_params
        )
        self.labeled: list[tuple[str, tuple]] = list(constraint_formulas)
        self.hard: list[tuple] = []
        self._seen_labels = {label for label, _ in self.labeled}

    def _add(self, label: str, formula) -> None:
        if label in self._seen_labels:
            return
        self._seen_labels.add(label)
        self.labeled.append((label, formula))

    def add_record(self, r: TranscriptRecord) -> None:
        if isinstance(r, QueryRecord):
            exe = self.catalog.executable(r.sql)
            enc = encode_query(
                exe, r.params, self.inst, self.schema, self.env,
                self.pool, f"q{r.index}", self.config.value_range,
            )
            self.hard.extend(enc.defs)
            label = record_label(r)
            self._add(label, lnot(enc.non_empty) if r.is_empty else enc.non_empty)
            self._add("amo:" + record_label(QueryRecord(r.index, r.sql, r.params, False)), enc.at_most_one)
            if not r.is_empty:
                self.env.rows[r.index] = enc.result
        else:
            f = encode_pred(r.cond, {}, self.env)
            self._add(record_label(r), f if r.outcome else lnot(f))

    def add_at_most_one(self, index: int, sql: str, params) -> None:
        exe = self.catalog.executable(sql)
        enc = encode_query(exe, params, self.inst, self.schema, self.env,
                           self.pool, f"amoq{index}", self.config.value_range)
        self.hard.extend(enc.defs)
        self._add("amo:" + record_label(QueryRecord(index, sql, params, False)), enc.at_most_one)


class Explorer:
    def __init__(self, program: HandlerProgram, schema: Schema,
                 constraints: list[Constraint], config: ExplorationConfig):
        validate_program(program, schema)
        self.program = program
        self.schema = schema
        self.constraints = constraints
        self.config = config
        self.catalog = QueryCatalog(schema)
        self.tree = PrefixTree()
        self.transcripts: list[Transcript] = []
        self.inputs: dict[str, ConcreteInput] = {}
        self.reports: list[str] = []
        self.warnings: list[str] = []
        self.seen_sql: set[str] = set()
        self.seen_constants: set[int] = set()
        self.input_seq = 0

    # -- input generation --------------------------------------------------

    def _encoder_for(self, records) -> _PathEncoder:
        enc = _PathEncoder(self.program, self.schema, self.constraints, self.config, self.catalog)
        for r in records:
            enc.add_record(r)
        return enc

    def generate_input(self, records, extra_amo=()) -> tuple[str, ConcreteInput | None]:
        """Solve the path conditions of `records`; returns (status, input)."""
        enc = self._encoder_for(records)
        for (index, sql, params) in extra_amo:
            enc.add_at_most_one(index, sql, params)
        verdict = check(enc.pool, enc.labeled, enc.hard, self.config.solver_timeout)
        if verdict.status == "unknown":
            return ABANDONED, None
        if verdict.status == "unsat":
            if not records and not extra_amo:
                raise RuntimeError("database constraints alone are unsatisfiable")
            return INFEASIBLE, None
        self.input_seq += 1
        input_id = f"{self.program.name}-{self.input_seq:04d}"
        ci = model_to_input(
            verdict.model, enc.inst, self.schema, enc.env,
            input_id, self.program.name, self.program.param_names(),
        )
        ok, viol = validate_instance(ci, self.constraints, self.schema)
        if not ok:
            raise RuntimeError(f"generated input violates constraints: {viol}")
        return "sat", ci

    # -- execution with multi-row repair ------------------------------------

    def repair_and_run(self, target: Node, first: MultiRowResult):
        """Sequential two-phase repair: regenerate the input with the
        offending query's at-most-one restriction added, then re-execute."""
        prefix = target.prefix()
        extra_amo: list = []
        exc = first
        for _attempt in range(10):
            next_index = len([r for r in exc.records if isinstance(r, QueryRecord)]) + 1
            extra_amo.append((next_index, exc.sql, exc.params))
            # The partial run may have stopped mid-prefix; keep asserting
            # the full target prefix in that case.
            records = list(exc.records) if len(exc.records) >= len(prefix) else prefix
            status, ci = self.generate_input(records, tuple(extra_amo))
            if status != "sat":
                raise DivergenceError(f"could not repair multi-row result for {exc.sql!r}")
            try:
                return ci, execute(self.program, ci, self.schema, self.catalog)
            except MultiRowResult as e:
                exc = e
        raise DivergenceError("multi-row repair did not converge")

    # -- reporting (new constants / new queries, per the detection mechanism)

    def _report_transcript(self, t: Transcript) -> None:
        from .normal import CountQuery, LeftJoinQuery, PlainQuery

        for r in t.records:
            if isinstance(r, QueryRecord):
                if r.sql not in self.seen_sql:
                    self.seen_sql.add(r.sql)
                    self.reports.append(f"new query: {r.sql}")
                terms = list(r.params)
                exe = self.catalog.executable(r.sql)
                if isinstance(exe, PlainQuery):
                    terms.extend(iter_terms(exe.nf.filter))
                elif isinstance(exe, LeftJoinQuery):
                    terms.extend(iter_terms(exe.on))
                    terms.extend(iter_terms(exe.where))
                elif isinstance(exe, CountQuery):
                    terms.extend(iter_terms(exe.filter))
            else:
                terms = list(iter_terms(r.cond))
            for s in terms:
                if isinstance(s, IntLit) and s.value not in self.seen_constants:
                    self.seen_constants.add(s.value)
                    self.reports.append(f"new constant: {s.value}")

    # -- main loop -----------------------------------------------------------

    def explore(self) -> ExplorationResult:
        budget = self.config.max_paths
        while True:
            targets = self.tree.pending_nodes()
            if not targets:
                return self._result(complete=True)
            jobs = []
            for target in targets:
                if len(self.transcripts) + len(jobs) >= budget:
                    break
                status, ci = self.generate_input(target.prefix())
                if status == INFEASIBLE:
                    target.status = INFEASIBLE
                elif status == ABANDONED:
                    target.status = ABANDONED
                    target.note = "solver timeout"
                    self.warnings.append("solver timeout; prefix abandoned")
                else:
                    jobs.append((target, ci))
            if not jobs:
                if len(self.transcripts) >= budget and self.tree.pending_nodes():
                    return self._result(complete=False)
                continue

            for target, ci in jobs:
                try:
                    try:
                        outcome = ci, execute(self.program, ci, self.schema, self.catalog)
                    except MultiRowResult as e:
                        outcome = self.repair_and_run(target, e)
                except Exception as e:
                    target.status = ABANDONED
                    target.note = str(e)
                    self.warnings.append(f"executor failure: {e}")
                    continue
                final_ci, (transcript, warnings) = outcome
                try:
                    self.tree.extend(transcript, target)
                except DivergenceError as e:
                    target.status = ABANDONED
                    target.note = str(e)
                    self.warnings.append(str(e))
                    continue
                self.transcripts.append(transcript)
                self.inputs[final_ci.input_id] = final_ci
                self.warnings.extend(warnings)
                self._report_transcript(transcript)
                self._check_agreement(transcript, final_ci)
            if len(self.transcripts) >= budget and self.tree.pending_nodes():
                return self._result(complete=False)

    def _check_agreement(self, transcript: Transcript, ci: ConcreteInput) -> None:
        """Concrete/symbolic agreement: branch outcomes recompute identically."""
        from .evaluate import ScalarEnv, eval_branch, eval_executable

        env = ScalarEnv(session=dict(ci.session), request=dict(ci.request))
        for r in transcript.records:
            if isinstance(r, QueryRecord):
                exe = self.catalog.executable(r.sql)
                env.placeholders = tuple(env.lookup(s) for s in r.params)
                rows = eval_executable(exe, ci, self.schema, env)
                env.placeholders = ()
                if (len(rows) == 0) != r.is_empty:
                    raise RuntimeError(f"emptiness disagreement on {r.sql!r}")
                if rows:
                    env.rows[r.index] = next(iter(rows))
            else:
                if eval_branch(r.cond, env) != r.outcome:
                    raise RuntimeError("branch outcome disagreement")

    def _result(self, complete: bool) -> ExplorationResult:
        return ExplorationResult(
            self.transcripts, self.inputs, self.tree, complete, self.reports, self.warnings
        )


def explore(
    program: HandlerProgram,
    schema: Schema,
    constraints: list[Constraint],
    config: ExplorationConfig | None = None,
) -> ExplorationResult:
    return Explorer(program, schema, constraints, config or ExplorationConfig()).explore()
