"""The handler DSL: grammar, static checks, and program representation.

A handler is the unit of analysis, standing in for one web endpoint::

    handler view_grade_sheet(CourseId: int) {
      let role = query("SELECT * FROM roles WHERE user_id = ? AND course_id = ?",
                       MyUserId, CourseId);
      abort_if_empty(role, 404);
      if (!role.is_instructor) { abort(403); }
      let all_grades = query("SELECT * FROM grades WHERE course_id = ?", role.course_id);
      render(all_grades);
    }

Request parameters are declared CamelCase; `MyUserId` (int) and `Now`
(timestamp) are implicit session parameters.  Query arguments must be
parameters, literals, or fields of earlier bindings; anything computed
is rejected at parse time.  Field access `x.col` is allowed only where
`x` is statically known non-empty (after `abort_if_empty(x, _)` or under
a `nonempty(x)` guard); this keeps every recorded value purely symbolic.

The parser builds each `HandlerProgram` once, after one checking walk
over the body that also collects the handler's int literals: query
arguments, condition operands and SQL WHERE terms.  The interpreter's
concretization warning treats any other branch constant as suspect.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from .lexutil import SourceError, TokenStream, tokenize, unquote
from .sqlast import CountStar, QueryAst
from .sqlparser import parse_sql
from .terms import SESSION_PARAMS, BoolLit, IntLit, iter_terms, max_placeholder

PARAM_TYPES = ("int", "bool", "timestamp")


class DslError(SourceError):
    pass


class ComputedArgumentError(DslError):
    pass


class UseBeforeGuardError(DslError):
    pass


# ---------------------------------------------------------------------------
# Expressions and conditions


@dataclass(frozen=True)
class FieldRef:
    binding: str
    column: str


@dataclass(frozen=True)
class ParamRef:
    name: str


@dataclass(frozen=True)
class BindingRef:
    name: str  # render-only


ArgExpr = Union[IntLit, BoolLit, FieldRef, ParamRef, BindingRef]


@dataclass(frozen=True)
class CondEq:
    left: Union[FieldRef, ParamRef]
    right: ArgExpr


@dataclass(frozen=True)
class CondTruthy:
    operand: Union[FieldRef, ParamRef]


@dataclass(frozen=True)
class CondIsNull:
    operand: FieldRef


@dataclass(frozen=True)
class CondNonEmpty:
    binding: str


@dataclass(frozen=True)
class CondNot:
    inner: "Cond"


Cond = Union[CondEq, CondTruthy, CondIsNull, CondNonEmpty, CondNot]


# ---------------------------------------------------------------------------
# Statements


@dataclass(frozen=True)
class LetQuery:
    name: str
    sql: str
    args: tuple[ArgExpr, ...]
    line: int
    # `sql` parsed once for every later stage, or its error for the static checks
    ast: QueryAst | SourceError = field(compare=False, repr=False)


@dataclass(frozen=True)
class AbortIfEmpty:
    binding: str
    code: int
    line: int


@dataclass(frozen=True)
class IfStmt:
    cond: Cond
    then: tuple["Stmt", ...]
    els: tuple["Stmt", ...]
    line: int


@dataclass(frozen=True)
class AbortStmt:
    code: int
    line: int


@dataclass(frozen=True)
class RenderStmt:
    args: tuple[ArgExpr, ...]
    line: int


Stmt = Union[LetQuery, AbortIfEmpty, IfStmt, AbortStmt, RenderStmt]


@dataclass(frozen=True)
class HandlerProgram:
    name: str
    request_params: tuple[tuple[str, str], ...]  # (name, type)
    body: tuple[Stmt, ...]
    literals: frozenset[int]  # int literals appearing in the source


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(self, text: str):
        self.ts = TokenStream(tokenize(text))
        self.asts: dict[str, QueryAst | SourceError] = {}  # each SQL text's, parsed once: both are immutable

    def parse_handlers(self) -> list[HandlerProgram]:
        out = []
        while self.ts.peek().kind != "eof":
            out.append(self.handler())
        return out

    def handler(self) -> HandlerProgram:
        ts = self.ts
        ts.expect_keyword("HANDLER")
        name_tok = ts.expect_ident("handler name")
        ts.expect_punct("(")
        params: list[tuple[str, str]] = []
        if not ts.accept_punct(")"):
            while True:
                p = ts.expect_ident("parameter name")
                if not p.text[0].isupper():
                    raise DslError(
                        f"request parameter {p.text!r} must start uppercase", p.line, p.col
                    )
                if p.text in SESSION_PARAMS:
                    raise DslError(
                        f"{p.text} is a session parameter and cannot be redeclared", p.line, p.col
                    )
                ts.expect_punct(":")
                t = ts.expect_ident("parameter type")
                if t.text not in PARAM_TYPES:
                    raise DslError(f"unknown parameter type {t.text!r}", t.line, t.col)
                params.append((p.text, t.text))
                if not ts.accept_punct(","):
                    break
            ts.expect_punct(")")
        if len({n for n, _ in params}) != len(params):
            raise DslError("duplicate parameter name", name_tok.line, name_tok.col)
        ts.expect_punct("{")
        body = tuple(self.block())
        checker = _Checker(n for n, _ in params)
        checker.block(body, _State())
        return HandlerProgram(name_tok.text, tuple(params), body, frozenset(checker.literals))

    def block(self) -> list[Stmt]:
        out = []
        while not self.ts.accept_punct("}"):
            out.append(self.statement())
        return out

    def statement(self) -> Stmt:
        ts = self.ts
        tok = ts.peek()
        if ts.accept_keyword("LET"):
            name = ts.expect_ident("binding name")
            if name.text[0].isupper():
                raise DslError(f"binding {name.text!r} must start lowercase", name.line, name.col)
            ts.expect_punct("=")
            kw = ts.expect_ident("query")
            if kw.text != "query":
                raise DslError("let bindings must be query(...) calls", kw.line, kw.col)
            ts.expect_punct("(")
            sql_tok = ts.peek()
            if sql_tok.kind != "string":
                raise DslError("query() needs a SQL string literal", sql_tok.line, sql_tok.col)
            ts.next()
            args = []
            while ts.accept_punct(","):
                args.append(self.arg(render=False))
            ts.expect_punct(")")
            ts.expect_punct(";")
            sql = unquote(sql_tok.text)
            if sql not in self.asts:
                try:
                    self.asts[sql] = parse_sql(sql)
                except SourceError as e:
                    self.asts[sql] = e
            return LetQuery(name.text, sql, tuple(args), tok.line, self.asts[sql])
        if ts.at_keyword("ABORT_IF_EMPTY"):
            ts.next()
            ts.expect_punct("(")
            binding = ts.expect_ident("binding").text
            ts.expect_punct(",")
            code = int(ts.expect_int().text)
            ts.expect_punct(")")
            ts.expect_punct(";")
            return AbortIfEmpty(binding, code, tok.line)
        if ts.at_keyword("IF"):
            ts.next()
            ts.expect_punct("(")
            cond = self.cond()
            ts.expect_punct(")")
            ts.expect_punct("{")
            then = self.block()
            els: list[Stmt] = []
            if ts.accept_keyword("ELSE"):
                ts.expect_punct("{")
                els = self.block()
            ts.accept_punct(";")
            return IfStmt(cond, tuple(then), tuple(els), tok.line)
        if ts.at_keyword("ABORT"):
            ts.next()
            ts.expect_punct("(")
            code = int(ts.expect_int().text)
            ts.expect_punct(")")
            ts.expect_punct(";")
            return AbortStmt(code, tok.line)
        if ts.at_keyword("RENDER"):
            ts.next()
            ts.expect_punct("(")
            args = []
            if not ts.accept_punct(")"):
                args.append(self.arg(render=True))
                while ts.accept_punct(","):
                    args.append(self.arg(render=True))
                ts.expect_punct(")")
            ts.expect_punct(";")
            return RenderStmt(tuple(args), tok.line)
        raise DslError(f"expected a statement, got {tok.text!r}", tok.line, tok.col)

    def arg(self, render: bool) -> ArgExpr:
        ts = self.ts
        tok = ts.peek()
        expr: ArgExpr
        if tok.kind == "int":
            ts.next()
            expr = IntLit(int(tok.text))
        elif ts.accept_keyword("TRUE"):
            expr = BoolLit(True)
        elif ts.accept_keyword("FALSE"):
            expr = BoolLit(False)
        elif tok.kind == "ident":
            ts.next()
            if ts.accept_punct("."):
                col = ts.expect_ident("column").text
                expr = FieldRef(tok.text, col)
            elif tok.text[0].isupper():
                expr = ParamRef(tok.text)
            else:
                expr = BindingRef(tok.text) if render else ParamRef(tok.text)
        else:
            raise DslError(f"expected an argument, got {tok.text!r}", tok.line, tok.col)
        nxt = ts.peek()
        if nxt.kind == "punct" and nxt.text in ("+", "-", "*", "/", "("):
            raise ComputedArgumentError(
                "computed expressions are not allowed as query arguments", nxt.line, nxt.col
            )
        return expr

    def cond(self) -> Cond:
        ts = self.ts
        if ts.accept_punct("!"):
            return CondNot(self.cond())
        tok = ts.peek()
        if ts.at_keyword("NONEMPTY"):
            ts.next()
            ts.expect_punct("(")
            binding = ts.expect_ident("binding").text
            ts.expect_punct(")")
            return CondNonEmpty(binding)
        if ts.at_keyword("IS_NULL"):
            ts.next()
            ts.expect_punct("(")
            b = ts.expect_ident("binding").text
            ts.expect_punct(".")
            col = ts.expect_ident("column").text
            ts.expect_punct(")")
            return CondIsNull(FieldRef(b, col))
        if tok.kind != "ident":
            raise DslError(f"expected a condition, got {tok.text!r}", tok.line, tok.col)
        ts.next()
        operand: Union[FieldRef, ParamRef]
        if ts.accept_punct("."):
            col = ts.expect_ident("column").text
            operand = FieldRef(tok.text, col)
        else:
            operand = ParamRef(tok.text)
        if ts.accept_punct("="):
            right = self.arg(render=False)
            return CondEq(operand, right)
        nxt = ts.peek()
        if nxt.kind == "punct" and nxt.text in ("<", "<=", ">", ">=", "<>", "!=", "+", "-", "*", "/"):
            raise DslError(
                f"condition operator {nxt.text!r} is outside the instrumented set", nxt.line, nxt.col
            )
        return CondTruthy(operand)


# ---------------------------------------------------------------------------
# Static checks


@dataclass
class _BindingInfo:
    always_nonempty: bool
    has_fields: bool


@dataclass
class _State:
    defined: dict[str, _BindingInfo] = field(default_factory=dict)
    nonempty: frozenset = frozenset()


def _nonempty_guard(c: Cond) -> tuple[str, bool] | None:
    """If `c` is nonempty(x) under an even/odd stack of !, return (x, polarity)."""
    flip = False
    while isinstance(c, CondNot):
        flip = not flip
        c = c.inner
    if isinstance(c, CondNonEmpty):
        return c.binding, not flip
    return None


class _Checker:
    """One walk over a handler body: rejects what the DSL forbids and
    collects the int literals of query arguments, condition operands and
    SQL WHERE terms (render arguments are outputs, not decisions)."""

    def __init__(self, params):
        self.params = set(params) | set(SESSION_PARAMS)
        self.literals: set[int] = set()

    def fail(self, msg: str, line: int, cls=DslError):
        raise cls(msg, line, 1)

    def check_field(self, ref: FieldRef, state: _State, line: int):
        info = state.defined.get(ref.binding)
        if info is None:
            self.fail(f"unknown binding {ref.binding!r}", line)
        if not info.has_fields:
            self.fail(f"result of {ref.binding!r} has no referenceable columns", line)
        if not (info.always_nonempty or ref.binding in state.nonempty):
            self.fail(
                f"field access {ref.binding}.{ref.column} is not guarded by abort_if_empty or nonempty()",
                line,
                UseBeforeGuardError,
            )

    def check_arg(self, a: ArgExpr, state: _State, line: int, render: bool):
        if isinstance(a, FieldRef):
            self.check_field(a, state, line)
        elif isinstance(a, ParamRef):
            if a.name in state.defined:
                if not render:
                    self.fail(f"binding {a.name!r} cannot be a query argument; pass a field", line)
            elif a.name not in self.params:
                self.fail(f"unknown parameter {a.name!r}", line)
        elif isinstance(a, BindingRef):
            if a.name not in state.defined:
                if a.name in self.params:
                    return
                self.fail(f"unknown name {a.name!r}", line)

    def check_cond(self, c: Cond, state: _State, line: int):
        if isinstance(c, CondNot):
            self.check_cond(c.inner, state, line)
            return
        if isinstance(c, CondNonEmpty):
            if c.binding not in state.defined:
                self.fail(f"unknown binding {c.binding!r}", line)
            return
        if isinstance(c, CondIsNull):
            self.check_field(c.operand, state, line)
            return
        if isinstance(c, (CondEq, CondTruthy)):
            operands = [c.left, c.right] if isinstance(c, CondEq) else [c.operand]
            for op in operands:
                if isinstance(op, IntLit):
                    self.literals.add(op.value)
                elif isinstance(op, FieldRef):
                    self.check_field(op, state, line)
                elif isinstance(op, ParamRef):
                    if op.name in state.defined:
                        self.fail(
                            f"binding {op.name!r} used as a value; test emptiness with nonempty()",
                            line,
                        )
                    if op.name not in self.params:
                        self.fail(f"unknown parameter {op.name!r}", line)

    def block(self, stmts, state: _State) -> tuple[_State, bool]:
        """Returns (state after the block, definitely-terminated)."""
        state = _State(dict(state.defined), state.nonempty)
        for i, s in enumerate(stmts):
            line = s.line
            if isinstance(s, LetQuery):
                if s.name in state.defined or s.name in self.params:
                    self.fail(f"name {s.name!r} is already defined", line)
                ast = s.ast
                if isinstance(ast, SourceError):
                    self.fail(f"in query for {s.name!r}: {ast.message}", line)
                expected = max_placeholder(ast.where)
                if expected != len(s.args):
                    self.fail(
                        f"query for {s.name!r} has {expected} placeholder(s) but {len(s.args)} argument(s)",
                        line,
                    )
                for a in s.args:
                    self.check_arg(a, state, line, render=False)
                for t in (*s.args, *iter_terms(ast.where)):
                    if isinstance(t, IntLit):
                        self.literals.add(t.value)
                count = ast.select == (CountStar(),)
                state.defined[s.name] = _BindingInfo(
                    always_nonempty=count, has_fields=not (count or ast.limit_one)
                )
            elif isinstance(s, AbortIfEmpty):
                if s.binding not in state.defined:
                    self.fail(f"unknown binding {s.binding!r}", line)
                state.nonempty = state.nonempty | {s.binding}
            elif isinstance(s, AbortStmt):
                self._no_trailing(stmts, i)
                return state, True
            elif isinstance(s, RenderStmt):
                for a in s.args:
                    self.check_arg(a, state, line, render=True)
                self._no_trailing(stmts, i)
                return state, True
            elif isinstance(s, IfStmt):
                self.check_cond(s.cond, state, line)
                guard = _nonempty_guard(s.cond)
                then_state = _State(dict(state.defined), state.nonempty)
                els_state = _State(dict(state.defined), state.nonempty)
                if guard is not None:
                    binding, polarity = guard
                    if polarity:
                        then_state.nonempty = then_state.nonempty | {binding}
                    else:
                        els_state.nonempty = els_state.nonempty | {binding}
                t_after, t_term = self.block(s.then, then_state)
                e_after, e_term = self.block(s.els, els_state)
                pre_defined = set(state.defined)
                if t_term and e_term:
                    self._no_trailing(stmts, i)
                    return state, True
                if t_term:
                    state.nonempty = frozenset(b for b in e_after.nonempty if b in pre_defined)
                elif e_term:
                    state.nonempty = frozenset(b for b in t_after.nonempty if b in pre_defined)
                else:
                    state.nonempty = frozenset(
                        b for b in (t_after.nonempty & e_after.nonempty) if b in pre_defined
                    )
        return state, False

    def _no_trailing(self, stmts, i):
        if i + 1 < len(stmts):
            self.fail("unreachable statement", stmts[i + 1].line)


def parse_handlers(text: str) -> list[HandlerProgram]:
    """Parse a handler file (one or more handler declarations)."""
    return _Parser(text).parse_handlers()


def parse_handler(text: str) -> HandlerProgram:
    handlers = parse_handlers(text)
    if len(handlers) != 1:
        raise DslError(f"expected exactly one handler, found {len(handlers)}", 1, 1)
    return handlers[0]
