"""Static hygiene of the package source: every imported or private name is used.

No linter ships with the project, so this ast pass stands in for one. It
reads src/privamp/*.py and fails on any name bound by an import that the
module never references (__init__.py is skipped: its imports are the public
re-exports), on any private name (a module-level function, class or
assigned constant, or a method of a module-level class, starting with _)
that no module of the package references, and on any module-level
UPPER_CASE constant, public or private, that the package never reads.
"""

from __future__ import annotations

import ast
import copy
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
    """(name, line) of each module-level function, class, assigned constant or class method starting with _."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and _is_private(item.name):
                    yield item.name, item.lineno
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        else:
            names = _assigned_names(node)
        for name in names:
            if _is_private(name):
                yield name, node.lineno


def _assigned_names(node: ast.stmt) -> list[str]:
    """Names bound by a module-level assignment; none for any other statement."""
    if not isinstance(node, (ast.Assign, ast.AnnAssign)):
        return []
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _pieces(stmt: ast.stmt):
    """(node, the names it defines) for one module-level statement; each method of a class is a piece of its own."""
    if not isinstance(stmt, ast.ClassDef):
        return [(stmt, {stmt.name} if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) else set())]
    methods = [n for n in stmt.body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    rest = copy.copy(stmt)
    rest.body = [n for n in stmt.body if n not in methods]
    return [(rest, {stmt.name})] + [(m, {stmt.name, m.name}) for m in methods]


@functools.cache
def _package_references() -> frozenset[str]:
    """Names loaded, accessed as attributes or imported by name in the package, outside their own definition."""
    used = set()
    for path in PACKAGE:
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            for node, own in _pieces(stmt):
                refs = _referenced_names(node)
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Attribute):
                        refs.add(sub.attr)
                    elif isinstance(sub, ast.ImportFrom):
                        refs.update(alias.name for alias in sub.names)
                used |= refs - own  # a recursive helper does not keep itself alive
    return frozenset(used)


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_unreferenced_private_names(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _package_references()
    dead = sorted((line, name) for name, line in _private_definitions(tree) if name not in used)
    assert not dead, f"{path.name}: private names never referenced " + ", ".join(f"{n} (line {l})" for l, n in dead)


def _constant_definitions(tree: ast.Module):
    """(name, line) of each module-level assigned name in UPPER_CASE."""
    for node in tree.body:
        for name in _assigned_names(node):
            if name.isupper():
                yield name, node.lineno


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_unreferenced_constants(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _package_references()
    dead = sorted((line, name) for name, line in _constant_definitions(tree) if name not in used)
    assert not dead, f"{path.name}: constants never referenced " + ", ".join(f"{n} (line {l})" for l, n in dead)
