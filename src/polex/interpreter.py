"""Concolic interpretation of handler programs.

Execution is concrete (queries run on the input's rows through the
brute-force evaluator) while every value originating from a parameter or
a query result carries its symbolic scalar.  Each query appends a Query
record; each test of a symbolic condition appends a Branch record whose
stored condition is normalized to the innermost positive form (an outer
`!` flips the recorded outcome instead).  Emptiness tests (`nonempty`,
`abort_if_empty`) append nothing: the emptiness outcome already lives in
the Query record.  Abort is a path outcome, not an error.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dsl import (
    AbortIfEmpty,
    AbortStmt,
    ArgExpr,
    Cond,
    CondEq,
    CondIsNull,
    CondNonEmpty,
    CondNot,
    CondTruthy,
    FieldRef,
    HandlerProgram,
    IfStmt,
    LetQuery,
    ParamRef,
    RenderStmt,
)
from .evaluate import ScalarEnv, eval_branch, eval_executable
from .instance import ConcreteInput, Row
from .normal import ExecutableQuery, to_executable
from .schema import Schema
from .sqlast import QueryAst
from .sqlparser import parse_sql
from .terms import (
    SESSION_PARAMS,
    BoolCol,
    BoolLit,
    Cmp,
    IntLit,
    IsNull,
    Not,
    Predicate,
    RequestParam,
    RowCol,
    Scalar,
    SessionParam,
    iter_terms,
)
from .transcript import BranchRecord, QueryRecord, Transcript, TranscriptRecord


class ExecutionError(Exception):
    pass


class MultiRowResult(Exception):
    """A query returned more than one distinct row; the driver must
    regenerate the input with this query's at-most-one-row restriction."""

    def __init__(self, records: tuple[TranscriptRecord, ...], sql: str, params: tuple[Scalar, ...]):
        super().__init__(f"query returned multiple rows: {sql}")
        self.records = records
        self.sql = sql
        self.params = params


@dataclass
class QueryCatalog:
    """Schema-bound executables of handler SQL, one per distinct text."""

    schema: Schema

    def __post_init__(self):
        self._cache: dict[str, ExecutableQuery] = {}

    def executable(self, sql: str, ast: QueryAst | None = None) -> ExecutableQuery:
        """Lowers `ast`, the parse its `LetQuery` kept, or else `sql` parsed here."""
        if sql not in self._cache:
            self._cache[sql] = to_executable(ast or parse_sql(sql), self.schema)
        return self._cache[sql]


def validate_program(program: HandlerProgram, catalog: QueryCatalog) -> None:
    """Schema-aware static checks, lowering each query through `catalog`:
    queries resolve, field refs exist and are unambiguous, truthiness tests
    are on bool-typed operands.  Statements are checked in program order,
    each `if` block's then-branch before its else-branch."""
    executables: dict[str, ExecutableQuery] = {}
    param_types = dict(program.request_params)
    blocks = [iter(program.body)]  # the statements left in each open block
    while blocks:
        s = next(blocks[-1], None)
        if s is None:
            blocks.pop()
        elif isinstance(s, (LetQuery, RenderStmt)):
            if isinstance(s, LetQuery):
                executables[s.name] = catalog.executable(s.sql, s.ast)
            for a in s.args:
                if isinstance(a, FieldRef):
                    _field_type(a, executables)
        elif isinstance(s, IfStmt):
            _check_cond(s.cond, executables, param_types)
            blocks += [iter(s.els), iter(s.then)]


def _field_type(ref: FieldRef, executables: dict[str, ExecutableQuery]) -> str:
    q = executables.get(ref.binding)
    if q is None:
        raise ExecutionError(f"unknown binding {ref.binding!r}")
    hits = [c for c in q.result if c.name == ref.column]
    if not hits:
        raise ExecutionError(f"binding {ref.binding!r} has no column {ref.column!r}")
    if len(hits) > 1:
        raise ExecutionError(f"column {ref.column!r} of binding {ref.binding!r} is ambiguous")
    return hits[0].type


def _check_cond(c: Cond, executables: dict[str, ExecutableQuery], param_types: dict[str, str]) -> None:
    while isinstance(c, CondNot):
        c = c.inner
    if isinstance(c, CondTruthy):
        if isinstance(c.operand, FieldRef):
            t = _field_type(c.operand, executables)
        else:
            t = "bool" if param_types.get(c.operand.name) == "bool" else (
                "int" if c.operand.name in SESSION_PARAMS else param_types.get(c.operand.name, "?")
            )
        if t != "bool":
            raise ExecutionError(f"truthiness test needs a bool operand, got {t}")
    elif isinstance(c, CondIsNull):
        _field_type(c.operand, executables)
    elif isinstance(c, CondEq):
        for op in (c.left, c.right):
            if isinstance(op, FieldRef):
                _field_type(op, executables)


@dataclass
class _Binding:
    query_index: int
    row: Row | None
    is_empty: bool
    result_cols: tuple


class _Run:
    def __init__(self, program: HandlerProgram, input: ConcreteInput, schema: Schema, catalog: QueryCatalog):
        self.program = program
        self.input = input
        self.schema = schema
        self.catalog = catalog
        self.env = ScalarEnv(session=dict(input.session), request=dict(input.request))
        self.bindings: dict[str, _Binding] = {}
        self.records: list[TranscriptRecord] = []
        self.outcome = "end"
        self.warnings: list[str] = []
        self.query_counter = 0

    # -- scalars ---------------------------------------------------------

    def arg_scalar(self, a: ArgExpr) -> Scalar:
        if isinstance(a, (IntLit, BoolLit)):
            return a
        if isinstance(a, ParamRef):
            if a.name in SESSION_PARAMS:
                return SessionParam(a.name)
            return RequestParam(a.name)
        if isinstance(a, FieldRef):
            b = self.bindings[a.binding]
            hits = [i for i, c in enumerate(b.result_cols) if c.name == a.column]
            if len(hits) != 1:
                raise ExecutionError(f"cannot resolve field {a.binding}.{a.column}")
            return RowCol(b.query_index, hits[0])
        raise ExecutionError(f"cannot use {a!r} as a value")

    # -- statements ------------------------------------------------------

    def run(self) -> None:
        self.block(self.program.body)

    def block(self, stmts) -> bool:
        """Returns True when the run has ended."""
        for s in stmts:
            if isinstance(s, LetQuery):
                self.do_query(s)
            elif isinstance(s, AbortIfEmpty):
                if self.bindings[s.binding].is_empty:
                    self.outcome = f"abort:{s.code}"
                    return True
            elif isinstance(s, AbortStmt):
                self.outcome = f"abort:{s.code}"
                return True
            elif isinstance(s, RenderStmt):
                self.outcome = "rendered"
                return True
            elif isinstance(s, IfStmt):
                taken = self.do_cond(s.cond, s.line)
                if self.block(s.then if taken else s.els):
                    return True
        return False

    def do_query(self, s: LetQuery) -> None:
        q = self.catalog.executable(s.sql, s.ast)
        scalars = tuple(self.arg_scalar(a) for a in s.args)
        self.env.placeholders = tuple(self.env.lookup(sc) for sc in scalars)
        rows = eval_executable(q, self.input, self.schema, self.env)
        self.env.placeholders = ()
        if len(rows) > 1:
            raise MultiRowResult(tuple(self.records), s.sql, scalars)
        self.query_counter += 1
        is_empty = len(rows) == 0
        record = QueryRecord(self.query_counter, s.sql, scalars, is_empty, line=s.line)
        self.records.append(record)
        row = next(iter(rows)) if rows else None
        self.bindings[s.name] = _Binding(self.query_counter, row, is_empty, q.result)
        if row is not None:
            self.env.rows[self.query_counter] = row

    def cond_pred(self, c: Cond) -> Predicate:
        if isinstance(c, CondEq):
            return Cmp("=", self.arg_scalar(c.left), self.arg_scalar(c.right))
        if isinstance(c, CondTruthy):
            return BoolCol(self.arg_scalar(c.operand))
        if isinstance(c, CondIsNull):
            return IsNull(self.arg_scalar(c.operand))
        if isinstance(c, CondNot):
            return Not(self.cond_pred(c.inner))
        raise ExecutionError(f"cannot build predicate for {c!r}")

    def do_cond(self, c: Cond, line: int) -> bool:
        # Emptiness tests never record a Branch: the Query record carries it.
        flip = False
        inner = c
        while isinstance(inner, CondNot):
            flip = not flip
            inner = inner.inner
        if isinstance(inner, CondNonEmpty):
            result = not self.bindings[inner.binding].is_empty
            return result != flip

        pred = self.cond_pred(c)
        outcome = eval_branch(pred, self.env)
        # Normalize: record the innermost positive condition.
        rec_pred, rec_outcome = pred, outcome
        while isinstance(rec_pred, Not):
            rec_pred = rec_pred.inner
            rec_outcome = not rec_outcome
        self.check_concretization(rec_pred)
        self.records.append(BranchRecord(rec_pred, rec_outcome, line=line))
        return outcome

    def check_concretization(self, pred: Predicate) -> None:
        """Flag constants that did not come from the program text: a branch
        mixing symbolic state with freshly observed concrete values means
        something escaped symbolic tracking."""
        for t in iter_terms(pred):
            if isinstance(t, IntLit) and t.value not in self.program.literals:
                self.warnings.append(
                    f"concretization: branch condition uses constant {t.value} "
                    f"not present in handler {self.program.name!r}"
                )


def execute(
    program: HandlerProgram,
    input: ConcreteInput,
    schema: Schema,
    catalog: QueryCatalog | None = None,
) -> tuple[Transcript, list[str]]:
    """Run `program` on `input`; returns the transcript and any warnings.

    Raises MultiRowResult when a query returns more than one distinct row.
    """
    catalog = catalog or QueryCatalog(schema)
    run = _Run(program, input, schema, catalog)
    run.run()
    t = Transcript(program.name, input.input_id, tuple(run.records), run.outcome)
    return t, run.warnings
