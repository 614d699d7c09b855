"""Surface census (ROADMAP item 6): no public definition without a caller.

A stdlib-``ast`` pass over ``src/repro``: every public function, class
and method must be *mentioned* — as a name, an attribute, an import, a
keyword or inside a string (``handle.call("import_wire", …)``,
``__all__``) — somewhere in non-test code (``src``, ``bench``,
``benchmarks``, ``examples``; the definition itself does not count) or in
the user-facing docs.  Matching is by bare name, so this is a lower bound
on dead surface, not a proof of liveness.

Exempt by rule: private names (leading ``_``), and methods whose name
starts with a capital — SIDL operations such as ``HotelImpl.CancelRoom``
are dispatched by the service runtime from the operation name on the
wire, never called from Python.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

#: Definitions only their own tests reference.  Each needs a production
#: caller (ROADMAP items 1a, 5, the CLI) or goes, tests and all.
#: THIS LIST MAY ONLY SHRINK: new code that nothing calls is deleted, not
#: listed here.
TEST_ONLY = """
CodecRegistry.register_operation
CosmMediator.add_browser
DeltaLog.truncate_to
FaultPlan.heal
FaultPlan.heal_all
JsonlExporter.rotated_paths
MemoryCheckpoints.open_migrations
RedAggregator.event_counts
SimClock.schedule_at
TypeManager.unmask
browser_snapshot
portmap_register
portmap_unregister
restore_browser
shard_snapshot
""".split()


def _public_definitions(path):
    """``Class.method`` / ``function`` / ``Class`` defined at the top of a
    module or directly inside a top-level class."""
    found = []

    def visit(body, owner):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.append((owner, node.name))
            elif isinstance(node, ast.ClassDef) and owner is None:
                found.append((None, node.name))
                visit(node.body, node.name)

    visit(ast.parse(path.read_text(encoding="utf-8")).body, None)
    return [
        f"{owner}.{name}" if owner else name
        for owner, name in found
        if not name.startswith("_") and not (owner and name[0].isupper())
    ]


def _mentions(path):
    text = path.read_text(encoding="utf-8")
    if path.suffix != ".py":
        return set(_IDENTIFIER.findall(text))
    found = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.keyword) and node.arg:
            found.add(node.arg)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.update(_IDENTIFIER.findall(node.value))
    return found


def _unreferenced():
    code = [
        path
        for top in ("src", "bench", "benchmarks", "examples")
        for path in sorted((ROOT / top).rglob("*.py"))
        if "tests" not in path.relative_to(ROOT).parts
    ]
    docs = [ROOT / "README.md", ROOT / "DESIGN.md", ROOT / "EXPERIMENTS.md"]
    docs += sorted((ROOT / "docs").rglob("*.md"))
    mentioned = set()
    for path in code + docs:
        mentioned |= _mentions(path)
    return sorted(
        qualified
        for path in sorted((ROOT / "src" / "repro").rglob("*.py"))
        for qualified in _public_definitions(path)
        if qualified.rpartition(".")[2] not in mentioned
    )


def test_every_public_definition_has_a_caller_outside_its_tests():
    unreferenced = _unreferenced()
    new = sorted(set(unreferenced) - set(TEST_ONLY))
    assert not new, f"public definitions nothing calls — delete them: {new}"
    stale = sorted(set(TEST_ONLY) - set(unreferenced))
    assert not stale, f"now referenced or gone — drop from TEST_ONLY: {stale}"


def test_allow_list_only_shrinks():
    assert len(set(TEST_ONLY)) == len(TEST_ONLY) <= 15
