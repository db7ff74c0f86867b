"""Every name imported by the program, its tests and its scripts is used,
every name the program defines is used, and the program imports at module
level only.

AST checks, so they need no linter: a module fails when it imports a
name that no expression or annotation (quoted ones included) of the same
module mentions, and a program module fails when a function body holds an
import.  A module-level function, class or assigned name of the program
fails when nothing but its own definition mentions it.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src/polex", "tests", "scripts") for p in (ROOT / d).rglob("*.py"))
PROGRAM = [p for p in FILES if p.is_relative_to(ROOT / "src")]


def _imported(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                yield node.lineno, a.asname or a.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                if a.name != "*":
                    yield node.lineno, a.asname or a.name


def _names(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _used(tree: ast.Module) -> set[str]:
    used = _names(tree)
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotation = node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotation = node.returns
        else:
            continue
        for c in ast.walk(annotation) if annotation else ():
            if isinstance(c, ast.Constant) and isinstance(c.value, str):
                used |= _names(ast.parse(c.value, mode="eval"))
    return used


def test_sources_found():
    assert any(p.name == "policygen.py" for p in FILES)
    assert any(p.name == "output_digest.py" for p in FILES)


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path: Path):
    tree = ast.parse(path.read_text(), str(path))
    used = _used(tree)
    unused = [f"line {line}: {name}" for line, name in _imported(tree) if name not in used]
    assert not unused, f"{path.relative_to(ROOT)} imports names it never uses: {unused}"


@pytest.mark.parametrize("path", PROGRAM, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_function_level_imports(path: Path):
    tree = ast.parse(path.read_text(), str(path))
    inner = [
        f"line {node.lineno} in {fn.name}"
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert not inner, f"{path.relative_to(ROOT)} imports inside a function: {inner}"


def _defined(tree: ast.Module):
    """(name, definition node) for each module-level function, class and
    assigned name, dunders aside."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if not name.startswith("__"):
                yield name, node


def _mentions(tree: ast.Module):
    """(name, node) for each name read, attribute read, name imported and
    string constant."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id, node
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            yield node.attr, node
        elif isinstance(node, ast.ImportFrom):
            for a in node.names:
                yield a.name, node
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node


def test_every_program_definition_is_used():
    trees = {p: ast.parse(p.read_text(), str(p)) for p in FILES + sorted((ROOT / "perfbench").rglob("*.py"))}
    mentions: dict[str, list[tuple[Path, ast.AST]]] = {}
    for path, tree in trees.items():
        for name, node in _mentions(tree):
            mentions.setdefault(name, []).append((path, node))
    unused = []
    for path in PROGRAM:
        for name, definition in _defined(trees[path]):
            own = {id(n) for n in ast.walk(definition)}
            if all(p == path and id(n) in own for p, n in mentions.get(name, [])):
                unused.append(f"{path.relative_to(ROOT)}:{definition.lineno} {name}")
    assert not unused, f"defined but never used: {unused}"


# The stages reach the solver through `Question` only (explore and
# policy-gen, one per stage call; `is-allowed`, one per query): they state
# a path or a determinacy pair, and `solver` alone builds its formulas.
STAGE_IMPORTS = {
    "solver": {"Question"},
    "fdsolver": set(),
}


@pytest.mark.parametrize("stage", ["explorer", "policygen", "pruner"])
def test_stages_import_only_the_narrow_solver_interface(stage: str):
    tree = ast.parse((ROOT / "src" / "polex" / f"{stage}.py").read_text())
    extra = [
        f"{node.module}.{a.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module in STAGE_IMPORTS
        for a in node.names
        if a.name not in STAGE_IMPORTS[node.module]
    ]
    assert not extra, f"{stage} imports solver internals: {extra}"


def _imports_chase(tree: ast.Module) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(a.name == "polex.chase" for a in node.names):
            return True
        if isinstance(node, ast.ImportFrom) and (node.module in ("chase", "polex.chase") or (
                node.module in (None, "polex") and any(a.name == "chase" for a in node.names))):
            return True
    return False


def test_only_the_solver_and_the_pruner_import_the_chase():
    # One chase serves path questions (`solver`) and rewritings (`pruner`);
    # nothing else may grow a second use of its bodies.
    files = FILES + sorted((ROOT / "perfbench").rglob("*.py"))
    importers = [str(p.relative_to(ROOT)) for p in files if _imports_chase(ast.parse(p.read_text(), str(p)))]
    assert importers == ["src/polex/pruner.py", "src/polex/solver.py"]
