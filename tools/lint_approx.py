"""An offline approximation of the ``ruff check .`` rules this repository
keeps clean, for machines without ruff.

Checks, with the ruff / pyflakes code each approximates:

* F401  an import whose name is never used (``__init__.py`` files and
        names listed in ``__all__`` count as re-exports);
* F811  the same name imported twice in one block;
* F841  a local variable assigned and never read (plain names only:
        tuple unpacking and names starting with ``_`` are exempt, as in
        ruff);
* E722  a bare ``except:``;
* E711  a comparison to ``None`` with ``==`` or ``!=``.

A line ending in a ``# noqa`` comment is skipped. Usage::

    python tools/lint_approx.py [PATH ...]     # default: the repository

Exits 1 when it finds anything. ``ruff check .`` (the CI ``lint`` job)
stays the authoritative check: this script knows no other rule.
"""

from __future__ import annotations

import ast
import os
import sys
from typing import Iterable, Iterator, List, Set, Tuple

EXCLUDED_DIRS = {".git", "__pycache__", "build", "dist", "results", "out"}

Finding = Tuple[int, int, str, str]


def python_files(paths: Iterable[str]) -> Iterator[str]:
    for path in paths:
        if os.path.isfile(path):
            yield path
            continue
        for root, dirs, files in os.walk(path):
            dirs[:] = sorted(
                d for d in dirs
                if d not in EXCLUDED_DIRS and not d.startswith(".")
                and not d.endswith(".egg-info")
            )
            for name in sorted(files):
                if name.endswith(".py"):
                    yield os.path.join(root, name)


def _loaded_names(tree: ast.AST) -> Set[str]:
    """Every name read anywhere below ``tree``: plain loads, augmented
    assignments, and names inside string annotations."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
        for annotation in _annotations(node):
            for part in ast.walk(annotation):
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    try:
                        parsed = ast.parse(part.value, mode="eval")
                    except SyntaxError:
                        continue
                    names |= _loaded_names(parsed)
    return names


def _annotations(node: ast.AST) -> List[ast.AST]:
    if isinstance(node, ast.arg) and node.annotation is not None:
        return [node.annotation]
    if isinstance(node, ast.AnnAssign):
        return [node.annotation]
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
        return [node.returns]
    return []


def _exported(tree: ast.Module) -> Set[str]:
    """Names listed in a module-level ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ) and isinstance(node.value, (ast.List, ast.Tuple)):
            return {
                e.value for e in node.value.elts
                if isinstance(e, ast.Constant) and isinstance(e.value, str)
            }
    return set()


def _bound_name(alias: ast.alias) -> str:
    return alias.asname or alias.name.split(".")[0]


def _imports(tree: ast.AST) -> Iterator[Tuple[ast.AST, ast.alias]]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                if alias.name != "*":
                    yield node, alias


def check_imports(tree: ast.Module, path: str) -> List[Finding]:
    findings: List[Finding] = []
    if os.path.basename(path) != "__init__.py":
        used = _loaded_names(tree) | _exported(tree)
        for node, alias in _imports(tree):
            name = _bound_name(alias)
            if name not in used:
                findings.append((
                    node.lineno, node.col_offset + 1, "F401",
                    f"`{alias.name}` imported but unused",
                ))
    for body in _blocks(tree):
        seen: Set[str] = set()
        for statement in body:
            if not isinstance(statement, (ast.Import, ast.ImportFrom)):
                continue
            for alias in statement.names:
                # ``import a.b`` and ``import a.c`` both bind ``a``, and
                # are no redefinition
                name = alias.asname or alias.name
                if name in seen:
                    findings.append((
                        statement.lineno, statement.col_offset + 1, "F811",
                        f"redefinition of unused `{name}`",
                    ))
                seen.add(name)
    return findings


def _blocks(tree: ast.AST) -> Iterator[List[ast.stmt]]:
    """Every statement list: a module, function or class body, and the
    branches of compound statements."""
    for node in ast.walk(tree):
        for field in ("body", "orelse", "finalbody"):
            body = getattr(node, field, None)
            if isinstance(body, list) and body and isinstance(body[0], ast.stmt):
                yield body


def _own_scope(function: ast.AST) -> Iterator[ast.AST]:
    """Nodes of ``function``'s own scope, not of nested functions,
    lambdas, classes or comprehensions."""
    stack = list(ast.iter_child_nodes(function))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (
            ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef,
            ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp,
        )):
            continue
        stack.extend(ast.iter_child_nodes(node))


def check_locals(tree: ast.Module) -> List[Finding]:
    findings: List[Finding] = []
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stored: List[Tuple[str, ast.AST]] = []
        declared: Set[str] = set()
        for node in _own_scope(function):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                declared.update(node.names)
            elif isinstance(node, ast.Assign):
                stored += [(t.id, t) for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                if isinstance(node.target, ast.Name):
                    stored.append((node.target.id, node.target))
            elif isinstance(node, ast.withitem) and isinstance(
                node.optional_vars, ast.Name
            ):
                stored.append((node.optional_vars.id, node.optional_vars))
            elif isinstance(node, ast.ExceptHandler) and node.name:
                stored.append((node.name, node))
        used = _loaded_names(function)
        if "locals" in used:
            continue
        for name, node in stored:
            if name in used or name in declared or name.startswith("_"):
                continue
            findings.append((
                node.lineno, node.col_offset + 1, "F841",
                f"local variable `{name}` is assigned to but never used",
            ))
    return findings


def check_expressions(tree: ast.Module) -> List[Finding]:
    findings: List[Finding] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is None:
            findings.append((node.lineno, node.col_offset + 1, "E722",
                             "do not use bare `except`"))
        elif isinstance(node, ast.Compare):
            operands = [node.left] + node.comparators
            for index, op in enumerate(node.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                pair = operands[index:index + 2]
                if any(isinstance(o, ast.Constant) and o.value is None for o in pair):
                    findings.append((
                        node.lineno, node.col_offset + 1, "E711",
                        "comparison to `None`: use `is` / `is not`",
                    ))
    return findings


def lint_file(path: str) -> List[Finding]:
    with open(path, encoding="utf-8") as handle:
        source = handle.read()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        return [(error.lineno or 0, error.offset or 0, "E999",
                 f"syntax error: {error.msg}")]
    lines = source.splitlines()
    findings = check_imports(tree, path) + check_locals(tree) + check_expressions(tree)
    return sorted(
        finding for finding in set(findings)
        if not (0 < finding[0] <= len(lines) and "# noqa" in lines[finding[0] - 1])
    )


def main(argv: List[str]) -> int:
    paths = argv or [os.path.dirname(os.path.dirname(os.path.abspath(__file__)))]
    count = 0
    for path in python_files(paths):
        for line, column, code, message in lint_file(path):
            print(f"{os.path.relpath(path)}:{line}:{column}: {code} {message}")
            count += 1
    print(f"{count} finding(s)", file=sys.stderr)
    return 1 if count else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
