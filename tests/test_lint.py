"""tier-1 runs the repo's own lint (``tools/lint.py``) over ``src`` and
``tools``, so an import or a local orphaned by a refactor fails here and
not only in CI's ``ruff`` step (which the sandbox cannot install)."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location("repo_lint", ROOT / "tools" / "lint.py")
lint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(lint)


def codes(source):
    return [(f.line, f.code) for f in lint.check_source(source)]


def test_src_and_tools_are_clean():
    findings = lint.check_paths([str(ROOT / "src"), str(ROOT / "tools")])
    assert findings == [], "\n".join(map(str, findings))


def test_unused_imports_are_found_unless_exported_or_excused():
    source = (
        "import os\n"
        "import sys  # noqa: F401 - patched by name\n"
        "from typing import (  # noqa: F401\n"
        "    Any,\n"
        ")\n"
        "from a import b, c, d\n"
        "import e.f\n"
        "__all__ = ['b']\n"
        "def g(x: 'c') -> None: ...\n"
    )
    assert codes(source) == [(1, "F401"), (6, "F401"), (7, "F401")]
    assert "'d'" in lint.check_source(source)[1].message


def test_unused_locals_are_found_but_closures_and_underscores_are_not():
    source = (
        "def f():\n"
        "    dead = 1\n"
        "    kept = 2\n"
        "    _ignored = 3\n"
        "    excused = 4  # noqa\n"
        "    try:\n"
        "        pass\n"
        "    except ValueError as failure:\n"
        "        pass\n"
        "    def g():\n"
        "        return kept\n"
        "    return g\n"
    )
    assert codes(source) == [(2, "F841"), (8, "F841")]
