"""Line coverage of named functions while pytest runs, on the stdlib alone.

``pytest-cov`` is not always installed, and an aggregate percentage would
not notice one untested branch anyway.  This names the functions that
matter and lists every line of them the given tests never execute::

    PYTHONPATH=src python tools/linecov.py \\
        repro.rpc.server:ReplyCache.put repro.trader.offers:OfferStore._filter \\
        -- tests/test_rpc_client_server.py tests/test_trader_index.py -q

Each target is ``module:Qualified.name``.  Everything after ``--`` goes
to ``pytest.main``.  Lines are traced with ``sys.settrace`` and
``threading.settrace`` (handlers run on TCP reader threads too), only
inside the targets' code objects, nested generator expressions and
closures included.  Exit status: pytest's own when it failed, else 1
when any target has an unexecuted line, else 0.
"""

from __future__ import annotations

import dis
import importlib
import inspect
import linecache
import sys
import threading
from types import CodeType
from typing import Dict, List, NamedTuple, Set, Tuple


class Target(NamedTuple):
    spec: str
    codes: Set[CodeType]  # the function's code and every code nested in it
    lines: Set[int]  # its executable lines
    filename: str


def _nested(code: CodeType) -> Set[CodeType]:
    found = {code}
    for const in code.co_consts:
        if isinstance(const, CodeType):
            found |= _nested(const)
    return found


def resolve(spec: str) -> Target:
    """``module:Qual.name`` → the function's code objects and lines."""
    module_name, _, qualname = spec.partition(":")
    obj = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = inspect.getattr_static(obj, part)
    code = inspect.unwrap(getattr(obj, "__func__", obj)).__code__
    codes = _nested(code)
    # A code object's first line is its ``def`` (or the line holding the
    # generator expression, which the enclosing code covers): not a step.
    lines = {
        line
        for nested in codes
        for __, line in dis.findlinestarts(nested)
        if line is not None and line != nested.co_firstlineno
    }
    return Target(spec, codes, lines, code.co_filename)


def run(targets: List[Target], pytest_args: List[str]) -> Tuple[int, Dict[str, Set[int]]]:
    """Run pytest under the tracer: its exit status and, per target, the
    lines never executed."""
    import pytest

    watched = {code: target.spec for target in targets for code in target.codes}
    executed: Dict[str, Set[int]] = {target.spec: set() for target in targets}

    def local(frame, event, arg):
        if event == "line":
            executed[watched[frame.f_code]].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        return local if frame.f_code in watched else None

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = int(pytest.main(pytest_args))
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return status, {t.spec: t.lines - executed[t.spec] for t in targets}


def main(argv: List[str]) -> int:
    if "--" not in argv or argv.index("--") == 0:
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--")
    targets = [resolve(spec) for spec in argv[:split]]
    status, missing = run(targets, argv[split + 1 :])
    for target in targets:
        unexecuted = sorted(missing[target.spec])
        covered = len(target.lines) - len(unexecuted)
        print(f"{target.spec}: {covered}/{len(target.lines)} lines executed")
        for line in unexecuted:
            print(f"  {line}: {linecache.getline(target.filename, line).strip()}")
    if status:
        return status
    return 1 if any(missing.values()) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
