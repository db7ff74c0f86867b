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

Determinism: one loop takes the pending prefixes first in, first out,
in the order they were found; the siblings a run adds enter deepest
first.  Pending prefixes of different runs lie in disjoint subtrees, so
this is the depth-first order of the tree.  Each input takes the next id
when it is solved, a repaired input too, so the visited set and all
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
from dataclasses import dataclass, field, replace

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


@dataclass
class Node:
    record: TranscriptRecord | None  # None only at the root
    status: str
    parent: "Node | None" = None
    children: list["Node"] = field(default_factory=list)

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

    def extend(self, transcript: Transcript, target: Node | None = None) -> list[Node]:
        """Mark the transcript's path visited, adding pending siblings for
        fresh branch points.  Returns the new pending siblings deepest
        first, which is their depth-first order.

        Raises DivergenceError if the transcript does not pass through
        `target` (the prefix its input was generated to follow).  Records
        compare by value, which ignores their source lines.
        """
        if target is not None:
            want = target.prefix()
            got = list(transcript.records[: len(want)])
            if got != want:
                raise DivergenceError(
                    f"run diverged from its prefix at record {len(got)}"
                )
        node = self.root
        node.status = VISITED
        new_pending = []
        for r in transcript.records:
            child = next((c for c in node.children if c.record == r), None)
            if child is None:
                child = Node(r, PENDING, parent=node)
                node.children.append(child)
                sibling = Node(_flip(r), PENDING, parent=node)
                node.children.append(sibling)
                new_pending.append(sibling)
            child.status = VISITED
            node = child
        return new_pending[::-1]

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


class Explorer:
    def __init__(self, program: HandlerProgram, schema: Schema,
                 constraints: list[Constraint], config: ExplorationConfig):
        self.catalog = QueryCatalog(schema)
        validate_program(program, self.catalog)
        check_range(schema, constraints, config.value_range, program)
        self.program = program
        self.schema = schema
        self.constraints = constraints
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
        pending = deque([self.tree.root])
        while pending:
            if len(self.transcripts) >= self.config.max_paths:
                return self._result(complete=False)
            target = pending.popleft()
            status, ci = self.generate_input(target.prefix())
            if status != "sat":
                target.status = status
                if status == ABANDONED:
                    self.warnings.append("solver timeout; prefix abandoned")
                continue
            try:
                try:
                    transcript, warnings = execute(self.program, ci, self.schema, self.catalog)
                except MultiRowResult as e:
                    ci, (transcript, warnings) = self.repair_and_run(target, e)
            except Exception as e:
                target.status = ABANDONED
                self.warnings.append(f"executor failure: {e}")
                continue
            try:
                pending.extend(self.tree.extend(transcript, target))
            except DivergenceError as e:
                target.status = ABANDONED
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
