"""Inputs read from a path's chased canonical instance
(`solver.Question.chased_input`), and the chase that builds it one prefix
at a time (`solver.Question._instance`).

A sat path that no known input answers (`solver.Question.known_input`)
gets its input from its chased instance when that instance fits the
bound, satisfies the constraints and replays the path; otherwise the path
goes to the solver.  The instance of each prefix is chased from a copy
of its parent's, matching again only the rows its step added or moved, and
must equal the instance built from all the path's steps and chased once.
A built input must be a function of its path alone, and every verdict must
be the exhaustive oracle's on tiny schemas.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import random
from pathlib import Path

import pytest

from polex import fdsolver, solver
from polex.constraints import validate_instance
from polex.dsl import parse_handlers
from polex.explorer import ExplorationConfig, explore
from polex.interpreter import QueryCatalog
from polex.normal import LeftJoinQuery
from polex.policygen import simplify, to_conditioned_queries

from oracle import enumerate_instances
from test_row_bounds import TINY, _holds, _load, _tiny_path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


@functools.lru_cache(maxsize=1)
def _synth_front_questions() -> tuple:
    """(question, steps, answer) of every path question that explore and
    policy-gen ask of `synth-front` seed 1 at bound 2."""
    import synth

    schema_text, handlers, _ = synth.generate(1)
    s, cons = _load(schema_text)
    asked, ask_path = [], solver.Question.ask_path

    def recorded(self, steps):
        answer = ask_path(self, steps)
        asked.append((self, list(steps), answer))
        return answer

    config = ExplorationConfig(table_bound=2, solver_timeout=None)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver.Question, "ask_path", recorded)
        for name in sorted(handlers):
            for program in parse_handlers(handlers[name]):
                result = explore(program, s, cons, config)
                cqs = to_conditioned_queries(result.transcripts, s)
                simplify(cqs, s, cons, dict(program.request_params), table_bound=2, timeout_s=None)
    return tuple(asked)


@pytest.fixture
def synth_front_questions(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return _synth_front_questions()


# ---------------------------------------------------------------------------
# Each prefix's chase equals one chase of all its steps


def _from_scratch(question: solver.Question, steps, cap: int) -> solver.Growing | None:
    """The canonical instance of `steps` with no prefix chased, chased once
    by the rewriting search's chase (`chase.Body.chase`), spending `cap`."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver.Growing, "chase", lambda self, tgds, egds, cap: None)
        body = dataclasses.replace(question)._instance(steps)  # a trie of its own
    if body is not None:
        super(solver.Growing, body).chase(*question._dependencies[:2], cap)
    return body


def _rows(body: solver.Growing) -> dict:
    return {t: {tuple(map(body.find, r)) for r in rows} for t, rows in body.rows.items() if rows}


def _renamed(a: dict, b: dict) -> bool:
    """Whether a one-to-one renaming of the int classes of the rows `a`
    maps them onto the rows `b`, table for table; other classes are terms
    and stay."""
    if {t: len(rows) for t, rows in a.items()} != {t: len(rows) for t, rows in b.items()}:
        return False
    todo = [(t, row) for t in sorted(a) for row in sorted(a[t], key=repr)]

    def extend(i: int, renaming: dict, used: frozenset) -> bool:
        if i == len(todo):
            return True
        t, row = todo[i]
        for other in b[t]:
            r = dict(renaming)
            if other not in used and all(
                    r.setdefault(x, y) == y if isinstance(x, int) and isinstance(y, int) else x == y
                    for x, y in zip(row, other)) and len(set(r.values())) == len(r):
                if extend(i + 1, r, used | {other}):
                    return True
        return False

    return extend(0, {}, frozenset())


def _check_every_prefix(question: solver.Question, steps) -> int:
    """Compare each prefix's chased instance with `_from_scratch`, where no
    cap cut the chase of all its steps; returns how many were compared."""
    compared = 0
    for k in range(len(steps) + 1):
        body = question._instance(steps[:k])
        witnesses = _from_scratch(question, steps[:k], 0)
        if body is None:
            assert witnesses is None
            continue
        cap = sum(map(len, witnesses.rows.values()))  # one row into a cycle per witness row
        scratch, more = _from_scratch(question, steps[:k], cap), _from_scratch(question, steps[:k], cap + 1)
        if not _renamed(_rows(scratch), _rows(more)):
            continue  # the cap cut the chase: only its refutations count, and they are sound
        assert _renamed(_rows(body), _rows(scratch)), steps[:k]
        assert body.clash == scratch.clash, steps[:k]
        compared += 1
    return compared


def test_each_synth_front_prefix_is_chased_as_from_scratch(synth_front_questions):
    compared = sum(_check_every_prefix(question, steps) for question, steps, _ in synth_front_questions)
    assert compared >= len(synth_front_questions)


@pytest.mark.parametrize("name", sorted(TINY))
def test_each_tiny_prefix_is_chased_as_from_scratch(name):
    s, cons = _load(*TINY[name])
    exe, rng = QueryCatalog(s).executable, random.Random(name)
    question = solver.Question(s, cons, 2, (0, 2), (("P", "int"),), timeout_s=None)
    compared = 0
    for _ in range(40):
        steps = _tiny_path(rng, s, exe)
        question.ask_path(steps)
        compared += _check_every_prefix(question, steps)
    assert compared > 40


# ---------------------------------------------------------------------------
# A built input is a function of its path


def test_a_built_input_depends_only_on_its_path(synth_front_questions):
    # Each answer was built after other questions on the same `Question`;
    # a fresh one, at bound 2 or 4, builds the same input.  A path a known
    # input takes (`Question.known_input`) is answered with that input, and
    # its chased instance builds one all the same.
    built = known = 0
    for question, steps, (status, inputs) in synth_front_questions:
        fresh = question.chased_input(steps)
        if fresh is None:
            continue
        if question.known_input(steps) is None:
            built += 1
            assert (status, inputs) == ("sat", (fresh,))
        else:
            known += 1
            assert (status, inputs) == ("sat", (question.known_input(steps),))
        for bound in (2, 4):
            assert dataclasses.replace(question, bound=bound).chased_input(steps) == fresh, steps
    assert built + known == sum(status == "sat" for _, _, (status, _) in synth_front_questions) == 148
    assert (built, known) == (92, 56)


# ---------------------------------------------------------------------------
# How many sat questions the chase answers


def test_synth_front_and_toys_sat_questions_are_built_but_left_joins(monkeypatch, tmp_path):
    # Every sat question of a synth-front job that no known input answers
    # is built: 56 of its 148 are answered by an input explore ran, and 92
    # built.  Of a toys-b3 job's 30, known inputs answer 6, and all the
    # others are built but the 2 of `item_report`, whose LEFT JOIN has no
    # canonical instance, and those 2 are the only checks.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    counts, fell_back = collections.Counter(), []
    chased_input, check = solver.Question.chased_input, fdsolver.CdclBackend.check
    known_input = solver.Question.known_input

    def counted_known(self, steps):
        ci = known_input(self, steps)
        counts["known"] += ci is not None
        return ci

    def counted(self, steps):
        ci = chased_input(self, steps)
        counts["built"] += ci is not None
        if ci is None:
            fell_back.append(steps)
        return ci

    def counted_check(self, *args, **kwargs):
        counts["checks"] += 1
        return check(self, *args, **kwargs)

    monkeypatch.setattr(solver.Question, "chased_input", counted)
    monkeypatch.setattr(solver.Question, "known_input", counted_known)
    monkeypatch.setattr(fdsolver.CdclBackend, "check", counted_check)
    for name, known, built, checks in (("synth-front", 56, 92, 0), ("toys-b3", 6, 22, 2)):
        counts.clear()
        fell_back.clear()
        wl = workloads.WORKLOADS[name]
        ld = workloads.load(**wl.inputs(ROOT, 1, tmp_path))
        assert wl.check(ld, wl.job(ld, workloads.Ops())) == []
        assert (counts["known"], counts["built"], counts["checks"], len(fell_back)) == (known, built, checks, checks), name
        assert all(any(len(step) == 4 and isinstance(step[1], LeftJoinQuery) for step in steps) for steps in fell_back)


# ---------------------------------------------------------------------------
# Tiny schemas: the exhaustive oracle agrees


def _flipped(step):
    return (step[0], not step[1]) if len(step) == 2 else (*step[:3], not step[3])


@pytest.mark.parametrize("name", sorted(TINY))
def test_built_inputs_replay_and_verdicts_match_the_oracle(name):
    # Random paths, their prefixes before the last step and those with the
    # last step flipped: every built input satisfies the constraints and
    # takes its path, and every answer is sat exactly when some instance
    # of at most 2 rows a table, values 0 to 2, takes the path.
    s, cons = _load(*TINY[name])
    exe, rng = QueryCatalog(s).executable, random.Random(f"{name} inputs")
    instances = enumerate_instances(s, cons, 2, (0, 1, 2))
    question = solver.Question(s, cons, 2, (0, 2), (("P", "int"),), timeout_s=None)
    built = unsat = 0
    for _ in range(30):
        path = _tiny_path(rng, s, exe)
        for steps in (path, path[:-1], path[:-1] + [_flipped(path[-1])]):
            holds = any(_holds(steps, ci, s, {"P": p}) for ci in instances for p in (0, 1, 2))
            ci = question.chased_input(steps)
            if ci is not None:
                assert validate_instance(ci, cons, s)[0] and _holds(steps, ci, s, ci.request), steps
                built += 1
            assert question.ask_path(steps)[0] == ("sat" if holds else "unsat"), steps
            unsat += not holds
    assert built and unsat, (built, unsat)
