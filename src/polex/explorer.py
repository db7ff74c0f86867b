"""Concolic exploration driver.

The explored paths form a prefix tree: each node is one transcript
record together with its outcome (Branch records fork on their boolean
outcome; Query records fork on their emptiness).  The explorer keeps only
the tree's frontier: the pending prefixes, each a tuple of records whose
last record carries the flipped outcome, and a count of settled nodes
per status.  For every pending prefix the explorer asks the solver for an
input that follows it, runs the handler on that input, and queues the
prefixes the transcript opens.  Exploration ends when no pending prefix
remains or the path budget runs out.

No tree is needed because a popped prefix P has no children yet and
pending prefixes lie in disjoint subtrees, so a run through P passes no
other pending node: each of its records after P is a fresh branch point,
whose flipped sibling `records[:i] + (flip(records[i]),)` is a new
pending prefix.  This is generational search (Godefroid, Levin & Molnar,
NDSS 2008): an input flips only the records past the prefix it was
generated for.

Determinism: one loop takes the pending prefixes first in, first out, so
every prefix a run opens is tried after those opened before it; the
prefixes one run opens enter deepest first.  Each input takes the next
id when it is solved, a repaired input too, so the visited set and all
emitted ids reproduce.

Every pending prefix is one path question (`solver.Question.ask_path`)
on the explore call's `solver.Question`: each record becomes a step, a
branch with its outcome or a query with its emptiness, and `solver`
builds the formulas.  Sibling prefixes share one search per rung: sat
gives the next input, already checked against the constraints, unsat
marks the prefix infeasible, and a timeout marks it abandoned.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace

from .constraints import Constraint, check_range
from .dsl import HandlerProgram
from .evaluate import ScalarEnv, eval_branch, eval_executable
from .instance import ConcreteInput
from .interpreter import MultiRowResult, QueryCatalog, execute, validate_program
from .normal import CountQuery, LeftJoinQuery, PlainQuery
from .schema import Schema
from .solver import Question
from .terms import IntLit, iter_terms
from .transcript import BranchRecord, QueryRecord, Transcript, TranscriptRecord

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


def _flip(r: TranscriptRecord) -> TranscriptRecord:
    if isinstance(r, QueryRecord):
        return QueryRecord(r.index, r.sql, r.params, not r.is_empty)
    return BranchRecord(r.cond, not r.outcome)


class PrefixTree:
    """The frontier of the explored prefix tree: the `pending` prefixes,
    oldest first, and the `settled` count of every other node by status.
    The explorer pops a prefix and settles it, by `extend` when a run
    passes through it and else by counting its status; a popped prefix
    counts nowhere until then."""

    def __init__(self):
        self.pending: deque[tuple[TranscriptRecord, ...]] = deque([()])
        self.settled = {VISITED: 0, INFEASIBLE: 0, ABANDONED: 0}

    def extend(self, transcript: Transcript,
               target: tuple[TranscriptRecord, ...] = ()) -> list[tuple[TranscriptRecord, ...]]:
        """Mark the transcript's path from the popped prefix `target` on
        visited, and queue the flipped sibling of every record after it.
        Returns the new pending prefixes deepest first.

        Raises DivergenceError, counting nothing, if the transcript does
        not pass through `target` (the prefix its input was generated to
        follow).  Records compare by value, which ignores their source
        lines.
        """
        records = transcript.records
        got = records[: len(target)]
        if got != target:
            raise DivergenceError(f"run diverged from its prefix at record {len(got)}")
        self.settled[VISITED] += 1 + len(records) - len(target)
        new_pending = [records[:i] + (_flip(records[i]),)
                       for i in reversed(range(len(target), len(records)))]
        self.pending.extend(new_pending)
        return new_pending

    def counts(self) -> dict[str, int]:
        return {PENDING: len(self.pending), **self.settled}


@dataclass
class ExplorationResult:
    transcripts: list[Transcript]
    inputs: dict[str, ConcreteInput]
    tree: PrefixTree
    complete: bool
    reports: list[str]
    warnings: list[str]


class Explorer:
    def __init__(self, program: HandlerProgram, schema: Schema,
                 constraints: list[Constraint], config: ExplorationConfig):
        self.catalog = QueryCatalog(schema)
        validate_program(program, self.catalog)
        check_range(schema, constraints, config.value_range, program)
        self.program = program
        self.schema = schema
        self.config = config
        self.question = Question(schema, constraints, config.table_bound, config.value_range,
                                 program.request_params, timeout_s=config.solver_timeout)
        self.tree = PrefixTree()
        self.transcripts: list[Transcript] = []
        self.inputs: dict[str, ConcreteInput] = {}
        self.reports: list[str] = []
        self.warnings: list[str] = []
        self.seen_sql: set[str] = set()
        self.seen_constants: set[int] = set()
        self.input_seq = 0

    # -- input generation --------------------------------------------------

    def generate_input(self, records, extra_amo=()) -> tuple[str, ConcreteInput | None]:
        """Solve the path conditions of `records`, with an at-most-one-row
        restriction per `(index, sql, params)` of `extra_amo`; returns
        (status, input)."""
        exe = self.catalog.executable
        steps = [(r.cond, r.outcome) if isinstance(r, BranchRecord) else (r.index, exe(r.sql), r.params, r.is_empty)
                 for r in records]
        status, inputs = self.question.ask_path(steps + [(i, exe(sql), params, None) for i, sql, params in extra_amo])
        if status == "unknown":
            return ABANDONED, None
        if status == "unsat":
            if not records and not extra_amo:
                raise RuntimeError("database constraints alone are unsatisfiable")
            return INFEASIBLE, None
        self.input_seq += 1
        input_id = f"{self.program.name}-{self.input_seq:04d}"
        return "sat", replace(inputs[0], input_id=input_id, handler=self.program.name)

    # -- execution with multi-row repair ------------------------------------

    def repair_and_run(self, target: tuple[TranscriptRecord, ...], first: MultiRowResult):
        """Sequential two-phase repair: regenerate the input with the
        offending query's at-most-one restriction added, then re-execute."""
        extra_amo: list = []
        exc = first
        for _attempt in range(10):
            next_index = len([r for r in exc.records if isinstance(r, QueryRecord)]) + 1
            extra_amo.append((next_index, exc.sql, exc.params))
            # The partial run may have stopped mid-prefix; keep asserting
            # the full target prefix in that case.
            records = exc.records if len(exc.records) >= len(target) else target
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
        pending, settled = self.tree.pending, self.tree.settled
        while pending:
            if len(self.transcripts) >= self.config.max_paths:
                return self._result(complete=False)
            target = pending.popleft()
            status, ci = self.generate_input(target)
            if status != "sat":
                settled[status] += 1
                if status == ABANDONED:
                    self.warnings.append("solver timeout; prefix abandoned")
                continue
            try:
                try:
                    transcript, warnings = execute(self.program, ci, self.schema, self.catalog)
                except MultiRowResult as e:
                    ci, (transcript, warnings) = self.repair_and_run(target, e)
            except Exception as e:
                settled[ABANDONED] += 1
                self.warnings.append(f"executor failure: {e}")
                continue
            try:
                self.tree.extend(transcript, target)
            except DivergenceError as e:
                settled[ABANDONED] += 1
                self.warnings.append(str(e))
                continue
            self.transcripts.append(transcript)
            self.inputs[ci.input_id] = ci
            self.warnings.extend(warnings)
            self._report_transcript(transcript)
            self._check_agreement(transcript, ci)
        return self._result(complete=True)

    def _check_agreement(self, transcript: Transcript, ci: ConcreteInput) -> None:
        """Concrete/symbolic agreement: branch outcomes recompute identically."""
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
