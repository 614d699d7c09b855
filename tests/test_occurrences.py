"""One occurrence, one call site (PROTOCOL §9 "Occurrences").

A stdlib-``ast`` pass over ``src/repro``: every notable occurrence is
recorded by one ``occurred("<counter name>", ...)`` call, so its counter,
its span event and its record cannot drift apart under different names.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HUB = ROOT / "src" / "repro" / "telemetry" / "hub.py"
_TABLE_ROW = re.compile(r"^\| `([a-z_.]+)` \|", re.MULTILINE)


def _trees():
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"))


def _callee(call):
    func = call.func
    if isinstance(func, ast.Name):
        return None, func.id
    if isinstance(func, ast.Attribute):
        receiver = func.value.id if isinstance(func.value, ast.Name) else None
        return receiver, func.attr
    return None, None


def _calls_outside_occurred(path, tree):
    """Every call in ``tree``, skipping the body of ``occurred`` itself."""
    skip = set()
    if path == HUB:
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "occurred":
                skip = {id(inner) for inner in ast.walk(node)}
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and id(node) not in skip
    ]


def _sites():
    """``name -> ["path:line", ...]`` for every ``occurred`` call."""
    sites = {}
    for path, tree in _trees():
        for call in _calls_outside_occurred(path, tree):
            if _callee(call)[1] != "occurred":
                continue
            where = f"{path.relative_to(ROOT)}:{call.lineno}"
            name = call.args[0] if call.args else None
            assert isinstance(name, ast.Constant) and isinstance(name.value, str), (
                f"{where}: occurred() needs a literal name"
            )
            sites.setdefault(name.value, []).append(where)
    return sites


def test_each_occurrence_name_has_one_call_site():
    sites = _sites()
    assert len(sites) >= 9
    shared = {name: where for name, where in sites.items() if len(where) > 1}
    assert not shared, f"occurrence names at several sites: {shared}"


def test_span_events_and_occurrence_counters_go_through_occurred():
    names = set(_sites())
    stray = []
    for path, tree in _trees():
        for call in _calls_outside_occurred(path, tree):
            receiver, callee = _callee(call)
            where = f"{path.relative_to(ROOT)}:{call.lineno}"
            if callee == "add_event":
                stray.append(f"{where}: span event outside occurred()")
            elif (
                receiver == "METRICS"
                and callee == "inc"
                and call.args
                and isinstance(call.args[0], ast.Constant)
                and call.args[0].value in names
            ):
                stray.append(f"{where}: {call.args[0].value} counted outside occurred()")
    assert stray == []


def test_every_occurrence_has_a_protocol_row():
    text = (ROOT / "docs" / "PROTOCOL.md").read_text(encoding="utf-8")
    section = text[text.index("**Occurrences.**"):text.index("**Flush boundaries.**")]
    assert set(_TABLE_ROW.findall(section)) == set(_sites())
