from __future__ import annotations

from pathlib import Path

import pytest

from polex.constraints import expand_all, generate_constraints
from polex.dsl import parse_handler
from polex.policygen import Simplifier
from polex.pruner import ContainmentVerdict, counterexample, is_allowed
from polex.schema import parse_schema
from polex.solver import Question

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

_ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    _ACCEPTANCE_LINES.append(line)


def determinacy(schema, constraints, bound=2, value_range=(0, 7), timeout_s=5.0) -> Question:
    """A `Question` for `pruner.counterexample` at the CLI's defaults."""
    return Question(schema, constraints, bound, value_range, timeout_s=timeout_s)


def decide(q, views, question: Question) -> ContainmentVerdict:
    """The `is-allowed` command's verdict: Allowed by a rewriting, else
    `pruner.counterexample`'s on `question`."""
    verdict = is_allowed(q, views, question.schema, question.constraints)
    return verdict if verdict.allowed else counterexample(q, views, question)


def simplifier(schema, constraints, param_types=None, bound=2, timeout_s=5.0) -> Simplifier:
    """A `Simplifier` on the question `policygen.simplify` builds."""
    params = tuple((param_types or {}).items())
    return Simplifier(Question(schema, constraints, bound, (0, 7), params, timeout_s=timeout_s))


def pytest_terminal_summary(terminalreporter):
    if _ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def grade_schema():
    return parse_schema((CORPUS / "grade_sheet" / "schema.txt").read_text())


@pytest.fixture(scope="session")
def grade_constraints(grade_schema):
    return expand_all(generate_constraints(grade_schema), grade_schema)


@pytest.fixture(scope="session")
def grade_program():
    text = (CORPUS / "grade_sheet" / "handlers" / "view_grade_sheet.hdl").read_text()
    return parse_handler(text)


@pytest.fixture(scope="session")
def toys_schema():
    return parse_schema((CORPUS / "toys" / "schema.txt").read_text())


@pytest.fixture(scope="session")
def toys_constraints(toys_schema):
    return expand_all(generate_constraints(toys_schema), toys_schema)
