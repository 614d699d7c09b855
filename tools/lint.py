"""A dependency-free lint: unused imports and unused local assignments.

The CI ``lint`` job runs ``ruff``, which the development sandbox cannot
install; this is the subset of its ``F`` rules that keeps finding real
leftovers after a refactor, on nothing but the standard library, so
tier-1 can run it (``tests/test_lint.py``)::

    python tools/lint.py src tools

* ``F401`` — a name bound by ``import`` that the module never reads and
  does not list in ``__all__``.
* ``F841`` — a local bound by a plain ``name = …``, ``with … as name`` or
  ``except … as name`` that its function never reads.  Names starting
  with ``_`` say "unused on purpose" and are skipped, as are functions
  that call ``locals()``.

A ``# noqa`` comment (bare, or listing the code) on the reported line
suppresses a finding; give the reason next to it.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path
from typing import Iterable, Iterator, List, NamedTuple, Set

_NOQA = re.compile(r"#\s*noqa(?::\s*(?P<codes>[A-Z0-9, ]+))?", re.IGNORECASE)
_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
#: Nodes that open a scope of their own: a function's locals stop there.
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


class Finding(NamedTuple):
    path: str
    line: int
    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.code} {self.message}"


def _suppressed(lines: List[str], line: int, code: str) -> bool:
    match = _NOQA.search(lines[line - 1]) if 0 < line <= len(lines) else None
    if match is None:
        return False
    codes = match.group("codes")
    return codes is None or code in {item.strip().upper() for item in codes.split(",")}


def _names_read(tree: ast.AST) -> Set[str]:
    """Every name the tree reads: loads, the root of ``a.b`` chains, and
    identifiers inside *quoted* annotations (forward references)."""
    read: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        annotations: List[ast.AST] = []
        if isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for annotation in annotations:
            for part in ast.walk(annotation):
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    read.update(_IDENTIFIER.findall(part.value))
    return read


def _exported(tree: ast.Module) -> Set[str]:
    """Strings listed in a module-level ``__all__``."""
    exported: Set[str] = set()
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign)) else []
        )
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            for part in ast.walk(node):
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    exported.add(part.value)
    return exported


def _unused_imports(tree: ast.Module) -> Iterator[tuple]:
    used = _names_read(tree) | _exported(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            if alias.name == "*":
                continue
            bound = alias.asname or alias.name.partition(".")[0]
            if bound not in used:
                # A parenthesised import may carry its noqa on the opening
                # line; aliases have no position of their own before 3.10.
                lines = (getattr(alias, "lineno", node.lineno), node.lineno)
                yield lines, "F401", f"{alias.name!r} imported but unused"


def _own_nodes(function: ast.AST) -> Iterator[ast.AST]:
    """The function's nodes, not descending into nested functions/classes."""
    stack = list(ast.iter_child_nodes(function))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def _unused_locals(tree: ast.Module) -> Iterator[tuple]:
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        bound = {}  # name -> line of its first plain binding
        escaping: Set[str] = set()
        for node in _own_nodes(function):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                escaping.update(node.names)
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    bound.setdefault(target.id, node.lineno)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                if isinstance(node.target, ast.Name):
                    bound.setdefault(node.target.id, node.lineno)
            elif isinstance(node, ast.withitem) and isinstance(node.optional_vars, ast.Name):
                bound.setdefault(node.optional_vars.id, node.optional_vars.lineno)
            elif isinstance(node, ast.ExceptHandler) and node.name:
                bound.setdefault(node.name, node.lineno)
        # Reads anywhere below count: closures read their enclosing locals.
        read = _names_read(function)
        if "locals" in read:
            continue
        for name, line in sorted(bound.items(), key=lambda item: item[1]):
            if name not in read and name not in escaping and not name.startswith("_"):
                yield (line,), "F841", f"local variable {name!r} is assigned to but never used"


def check_source(text: str, path: str = "<string>") -> List[Finding]:
    """Lint one module's source; findings in line order."""
    tree = ast.parse(text, filename=path)
    lines = text.splitlines()
    findings = []
    for check in (_unused_imports, _unused_locals):
        for noqa_lines, code, message in check(tree):
            if not any(_suppressed(lines, line, code) for line in noqa_lines):
                findings.append(Finding(path, noqa_lines[0], code, message))
    return sorted(findings, key=lambda finding: finding.line)


def check_paths(paths: Iterable[str]) -> List[Finding]:
    """Lint every ``*.py`` under the given files and directories."""
    findings: List[Finding] = []
    for root in map(Path, paths):
        files = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        for file in files:
            findings.extend(check_source(file.read_text(encoding="utf-8"), str(file)))
    return findings


def main(argv: List[str]) -> int:
    findings = check_paths(argv or ["src", "tools"])
    for finding in findings:
        print(finding)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
