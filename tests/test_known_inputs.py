"""Paths answered by a known input (`solver.Question.known_input`).

`policygen.simplify` hands its `Question` the inputs the transcripts ran
on, and a path one of them takes is sat without a chase or a search.  An
input answers only if it could be a model of the question's context: at
most `bound` rows a table, every value in its column's domain, every
session and request parameter present and in range, and the constraints
satisfied.  So every path it answers is sat at the bound, and the
simplified conditioned queries are those of a run with no known inputs.
The input a transcript holds is outside its equality and its JSON form.
"""

from __future__ import annotations

import hashlib
import shutil
from dataclasses import replace
from pathlib import Path

import pytest

from polex import solver
from polex.cli import main
from polex.dsl import parse_handler, parse_handlers
from polex.explorer import ExplorationConfig, PrefixTree, explore
from polex.instance import ConcreteInput
from polex.interpreter import execute
from polex.policygen import simplify, to_conditioned_queries
from polex.transcript import transcript_from_jsonl, transcript_to_jsonl

import full_bound
from test_row_bounds import _load

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
PERFBENCH = ROOT / "perfbench"


def _programs(text: str):
    return [p for path in sorted((CORPUS / text / "handlers").glob("*.hdl")) for p in parse_handlers(path.read_text())]


def _runs(name: str):
    """(schema, constraints, programs) of a bundled corpus, or of the
    `synth-front` corpus at a seed (`synth-front-s<seed>`)."""
    if name.startswith("synth-front"):
        import synth

        schema_text, handlers, _ = synth.generate(int(name.rpartition("-s")[2]))
        return (*_load(schema_text), [p for h in sorted(handlers) for p in parse_handlers(handlers[h])])
    return (*_load((CORPUS / name / "schema.txt").read_text()), _programs(name))


def _simplified(cqs, s, cons, program, bound: int, value_range) -> list:
    out = simplify(cqs, s, cons, dict(program.request_params), table_bound=bound, value_range=value_range,
                   timeout_s=None)
    return [(cq, cq.handler, cq.witness, cq.approx) for cq in out]


def _recording(monkeypatch) -> list:
    """Record `(question, steps, input)` for each path a known input answers."""
    answered, known_input = [], solver.Question.known_input

    def recorded(self, steps):
        ci = known_input(self, steps)
        if ci is not None:
            answered.append((self, list(steps), ci))
        return ci

    monkeypatch.setattr(solver.Question, "known_input", recorded)
    return answered


# ---------------------------------------------------------------------------
# Every path a known input answers is sat at the full bound


# The last column counts the paths known inputs answer; `ranges` asks no
# simplification question.
@pytest.mark.parametrize("name, bound, value_range, known", [
    ("synth-front-s1", 2, (0, 7), 56),
    ("synth-front-s2", 2, (0, 7), 56),
    ("toys", 3, (0, 7), 6),
    ("grade_sheet", 2, (0, 7), 1),
    ("ranges", 2, (0, 15), 0),
    ("replies", 2, (0, 7), 3),
])
def test_known_inputs_answer_only_sat_paths_and_change_no_output(monkeypatch, name, bound, value_range, known):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    s, cons, programs = _runs(name)
    config = ExplorationConfig(bound, value_range, None)
    answered = _recording(monkeypatch)
    for program in programs:
        cqs = to_conditioned_queries(explore(program, s, cons, config).transcripts, s)
        with_examples = _simplified(cqs, s, cons, program, bound, value_range)
        assert with_examples == _simplified([replace(cq, examples=()) for cq in cqs], s, cons, program, bound,
                                            value_range), program.name
    assert len(answered) == known
    for question, steps, ci in answered:
        assert any(ci is example for example in question.examples)
        assert full_bound.ask_path(question, steps, question.bound)[0] == "sat", steps


# ---------------------------------------------------------------------------
# An input that no model of the context could be never answers

FIT_SCHEMA = """
table users {
  id int unique
  role int
}

table notes {
  id int unique
  body int
}
"""

# The one simplification question is whether `u.role = MyUserId` is
# vacuous: the path of `u` returning a row and the branch false.
FIT_HANDLER = """
handler fit(P: int, Q: int) {
  let u = query("SELECT * FROM users WHERE id = ?", P);
  abort_if_empty(u, 404);
  if (u.role = MyUserId) {
    let n = query("SELECT * FROM notes WHERE id = ?", Q);
    render(u, n);
  }
}
"""


def _planted(users, notes=(), request=None) -> ConcreteInput:
    return ConcreteInput("planted", "fit", {"users": users, "notes": notes}, {"MyUserId": 0, "Now": 0},
                         {"P": 0, "Q": 0} if request is None else request)


# Each takes that path and is no input of a bound-2, 0:7 context for one
# reason alone.
PLANTED = {
    "three rows": _planted(((0, 1),), ((0, 0), (1, 0), (2, 0))),
    "a value of 9": _planted(((0, 9),)),
    "a broken unique key": _planted(((0, 1),), ((0, 0), (0, 1))),
    "a missing request parameter": _planted(((0, 1),), request={"P": 0}),
}


def test_planted_inputs_that_do_not_fit_never_answer(monkeypatch):
    # Explored at bound 3 and range 0:15, simplified at bound 2 and range
    # 0:7, with the planted inputs tried before the explored ones.
    s, cons = _load(FIT_SCHEMA)
    program = parse_handler(FIT_HANDLER)
    cqs = to_conditioned_queries(explore(program, s, cons, ExplorationConfig(3, (0, 15), None)).transcripts, s)
    planted = tuple(PLANTED.values())
    answered = _recording(monkeypatch)
    got = _simplified([replace(cq, examples=planted + cq.examples) for cq in cqs], s, cons, program, 2, (0, 7))
    assert got == _simplified([replace(cq, examples=()) for cq in cqs], s, cons, program, 2, (0, 7))
    assert answered
    for name, ci in PLANTED.items():
        assert all(ci is not answer for _, _, answer in answered), name
        assert any(solver._follows(steps, ci, s) for _, steps, _ in answered), name
    assert {len(q.examples) - len(q._known) for q, _, _ in answered} == {len(PLANTED)}


@pytest.mark.parametrize("name", ["toys", "synth-front-s1"])
def test_inputs_explored_at_a_larger_bound_and_range_change_no_output(monkeypatch, name):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    s, cons, programs = _runs(name)
    answered = _recording(monkeypatch)
    for program in programs:
        cqs = to_conditioned_queries(explore(program, s, cons, ExplorationConfig(3, (0, 15), None)).transcripts, s)
        got = _simplified(cqs, s, cons, program, 2, (0, 7))
        assert got == _simplified([replace(cq, examples=()) for cq in cqs], s, cons, program, 2, (0, 7))
    assert answered
    for question, steps, _ in answered:
        assert full_bound.ask_path(question, steps, question.bound)[0] == "sat", steps


# ---------------------------------------------------------------------------
# A transcript's input is outside its identity


def test_a_transcripts_input_is_outside_its_equality_json_and_tree(toys_schema):
    (program,) = [p for p in _programs("toys") if p.name == "show_item"]
    ci = ConcreteInput("show_item-0001", "show_item", {"users": ((0,),), "items": ((0, 0, 0, 1),), "details": ()},
                       {"MyUserId": 1, "Now": 0}, {"ItemId": 0})
    t, _ = execute(program, ci, toys_schema)
    assert t.input is ci
    other = replace(ci, session={"MyUserId": 0, "Now": 0})
    for u in (replace(t, input=None), replace(t, input=other)):
        assert u == t and hash(u) == hash(t)
        assert transcript_to_jsonl(u, {"config": {}}) == transcript_to_jsonl(t, {"config": {}})
        trees = PrefixTree(), PrefixTree()
        assert trees[0].extend(t, t.records[:1]) == trees[1].extend(u, u.records[:1])
        assert trees[0].counts() == trees[1].counts()
    meta, read = transcript_from_jsonl(transcript_to_jsonl(t, {}))
    assert read == t and read.input is None and "input" not in meta


# The SHA-256 of the policy files `explore` then `policy-gen` write for
# every handler of a corpus, as written before known inputs answered any
# question.  `policy-gen` reads each transcript's input from `inputs/`.
PARENT_POLICIES = {
    "toys": "5471e384c4ca91661c1f2202b3bebbef601ec6c5b162e1ced4ea449b9c5caf96",
    "grade_sheet": "0f4424784b07aaa2c22ba74ced734fa3df3630a579bc43aad18bd13c2afa2078",
}


@pytest.mark.parametrize("corpus", sorted(PARENT_POLICIES))
def test_policy_gen_writes_the_same_policies(monkeypatch, tmp_path, capsys, corpus):
    answered = _recording(monkeypatch)
    run = tmp_path / "run"
    run.mkdir()
    shutil.copy(CORPUS / corpus / "schema.txt", run / "schema.txt")
    shutil.copytree(CORPUS / corpus / "handlers", run / "handlers")
    assert main(["constraints-gen", str(run / "schema.txt"), "-o", str(run / "constraints.txt")]) == 0
    digest = hashlib.sha256()
    for program in _programs(corpus):
        assert main(["explore", str(run), program.name]) == 0
        assert main(["policy-gen", str(run), program.name]) == 0
        digest.update((run / "policies" / f"{program.name}.sql").read_bytes())
    assert digest.hexdigest() == PARENT_POLICIES[corpus]
    assert answered
