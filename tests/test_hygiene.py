"""Static hygiene of the package source: every imported or private name is used.

No linter ships with the project, so this ast pass stands in for one. It
reads src/privamp/*.py and fails on any name bound by an import that the
module never references (__init__.py is skipped: its imports are the public
re-exports), and on any module-level private name (a function, class or
assigned constant starting with _) that no module of the package references.
"""

from __future__ import annotations

import ast
import functools
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "privamp"
PACKAGE = sorted(SRC.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]


def _imported_names(tree: ast.Module) -> dict[str, int]:
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names[bound] = node.lineno
    return names


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _referenced_names(tree: ast.AST) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    # quoted annotations such as -> "HermitianOperator" name a type only inside the string
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _referenced_names(tree)
    unused = sorted((line, name) for name, line in _imported_names(tree).items() if name not in used)
    assert not unused, f"{path.name}: unused imports " + ", ".join(f"{n} (line {l})" for l, n in unused)


def _private_definitions(tree: ast.Module):
    """(name, line) of each module-level function, class or assigned constant starting with _."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                yield name, node.lineno


@functools.cache
def _package_references() -> frozenset[str]:
    """Names loaded, accessed as attributes or imported by name in the package, outside their own definition."""
    used = set()
    for path in PACKAGE:
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            refs = _referenced_names(stmt)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Attribute):
                    refs.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    refs.update(alias.name for alias in node.names)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                refs.discard(stmt.name)  # a recursive helper does not keep itself alive
            used |= refs
    return frozenset(used)


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_unreferenced_private_names(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _package_references()
    dead = sorted((line, name) for name, line in _private_definitions(tree) if name not in used)
    assert not dead, f"{path.name}: private names never referenced " + ", ".join(f"{n} (line {l})" for l, n in dead)
