"""Surface census (ROADMAP items 6, 8 and 15): no public definition and
no knob without a caller.

A stdlib-``ast`` pass over ``src/repro``, checked against non-test code
(``src``, ``bench``, ``benchmarks``, ``examples``; the definition itself
does not count):

* **names** — every public function, class and method must be
  *mentioned*: as a name, an attribute, an import, a keyword or inside a
  string (``handle.call("import_wire", …)``, ``__all__``), or in the
  user-facing docs.  Docstrings are not mentions.
* **knobs** — every defaulted parameter of a public function or method,
  and every field of a ``*Policy`` dataclass, must be passed by some call
  to a callee of that name: by keyword, by position, or through a
  ``*``/``**`` splat (which passes every parameter).  A knob is named
  ``function(param)``, ``Class(param)`` for a constructor or dataclass
  field, and ``Class.method(param)``.

Methods are matched as ``Class.method``: an attribute whose receiver names
a class — ``self.m`` and ``cls.m`` inside it, ``Class.m``, ``Class(…).m``,
``super().m`` — counts for that class's lineage (bases and subclasses)
only; any other receiver (``router.m``) is unknown and counts for every
class.  In the docs a method counts when written as code (in backticks)
or in dotted form (``Class.m``, ``x.m``); a prose word counts for
module-level names only.  Matching stays by name, so this is a lower
bound on dead surface, not a proof of liveness.

Exempt by rule: private names (leading ``_``), and methods whose name
starts with a capital — SIDL operations such as ``HotelImpl.CancelRoom``
are dispatched by the service runtime from the operation name on the
wire, never called from Python.
"""

import ast
import functools
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_DOTTED = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\.([A-Za-z_][A-Za-z0-9_]*)")
_CODE_SPAN = re.compile(r"`+([^`]+)`+")

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
MemoryCheckpoints.open_migrations
SimClock.schedule_at
TypeManager.unmask
browser_snapshot
portmap_register
portmap_unregister
restore_browser
shard_snapshot
""".split()

#: Python lines under ``src/`` may not exceed this.  It only moves up in a
#: diff that says in CHANGES.md why ``src/`` had to grow.
SRC_LINE_CEILING = 20482

_NOW = "item 14: the node's clock replaces every now= and clock="
_CTX = "call context: every operation that may call out takes one (PROTOCOL §4)"
_INPUT = "operation input, not a setting: the caller supplies it per call"
_SEAM = "test seam: a test substitutes a fake"
_FAULTS = "item 8: simulated-fault scaffolding moves under tests/"
_DEPLOY = "deployment setting (addresses, files, collectors)"
_TUNING = "item 15b: tuning only tests vary; a constant once they set the attribute"

#: Definitions whose only mentions were docstrings or prose words, which
#: the census counted as callers until it matched ``Class.method`` and
#: skipped docstrings.  Each names its verdict.  MAY ONLY SHRINK, under
#: TEST_ONLY's rules.
UNCALLED = {
    "FaultPlan.partition": _FAULTS,
    "SimNetwork.addresses": "item 8: simulated-network scaffolding moves under tests/",
    "SimNetwork.hosts": "item 8: simulated-network scaffolding moves under tests/",
    "ServiceDescription.validate": "item 8: a paper component that needs a tour caller or goes",
    "MigrationCoordinator.resume": "item 5: restart = snapshot + replay",
    "load_snapshot": "item 5: restart = snapshot + replay",
    "save_snapshot": "item 5: restart = snapshot + replay",
}

#: Knobs no production caller passes, each with its verdict: the ROADMAP
#: item that claims it, or why it stays a parameter.  THIS LIST MAY ONLY
#: SHRINK, under TEST_ONLY's rules: a new parameter that no production
#: caller passes is a constant, not an entry here.
TEST_ONLY_KNOBS = {
    "ActivityClient.add_step(arguments)": _INPUT,
    "AdmissionPolicy(capacity)": _TUNING,
    "BackoffPolicy(factor)": _TUNING,
    "Binding.fetch_sid(ctx)": _CTX,
    "BroadcastDiscoverer.find_first(ctx)": _CTX,
    "BroadcastDiscoverer.find_first(timeout)": _INPUT,
    "CallContext.with_timeout(hops)": _INPUT,
    "CallContext.with_timeout(retry)": _INPUT,
    "CosmMediator.bind_best(ctx)": _CTX,
    "CosmMediator.bind_best(preference)": _INPUT,
    "CosmMediator.discover(constraint)": _INPUT,
    "CosmMediator.discover(ctx)": _CTX,
    "CosmMediator.discover(preference)": _INPUT,
    "CosmMediator.discover(service_type)": _INPUT,
    "FaultPlan(drop_probability)": _FAULTS,
    "FaultPlan(duplicate_probability)": _FAULTS,
    "JsonlExporter(max_bytes)": _DEPLOY,
    "JsonlExporter(retain)": _DEPLOY,
    "LanWanLatency(overrides)": _TUNING,
    "LocalTrader.select_best(ctx)": _CTX,
    "LocalTrader.select_best(now)": _NOW,
    "MetricsRegistry.histogram(labels)": _INPUT,
    "MigrationCoordinator(checkpoints)": "item 5: checkpoints become log records",
    "MigrationCoordinator.drain(now)": _NOW,
    "NameServerService(registry)": _SEAM,
    "RebindingClient(max_rebinds)": _TUNING,
    "RebindingClient.invoke(constraint)": _INPUT,
    "RebindingClient.invoke(preference)": _INPUT,
    "RebindingClient.refresh(service_type)": _INPUT,
    "RpcClient.call_many(context)": _CTX,
    "RpcClient.call_many(retries)": "item 7e: the timeout=/retries= shim goes",
    "RpcClient.call_many(timeout)": "item 7e: the timeout=/retries= shim goes",
    "ServiceRef.create(vers)": _INPUT,
    "ShardRouter.remove_shard(force)": _INPUT,
    "ShardRouter.select_best(ctx)": _CTX,
    "ShardRouter.select_best(now)": _NOW,
    "SimClock(start)": _TUNING,
    "SimClock.drain(max_events)": "safety bound on a runaway event loop; tests hit it",
    "SimNetwork(faults)": _SEAM,
    "TcpTransport(host)": _DEPLOY,
    "TcpTransport(port)": _DEPLOY,
    "TraderClient.select_best(ctx)": _CTX,
    "UiSession.click_bind(index)": _INPUT,
    "build_router(dynamic_evaluator)": _SEAM,
    "build_router(range_index)": "reference: range_index=False is the tests' oracle",
    "dynamic_property(arguments)": _INPUT,
    "keep_tradable(clock)": _NOW,
    "keep_tradable(now)": _NOW,
    "load_service_description(name)": _INPUT,
    "load_service_description(type_fallback)": "item 6: a SID written against unknown types",
    "make_car_rental_sid(currency)": _INPUT,
    "restore_shard(now)": _NOW,
    "run_cell(seed)": "item 3: the twin replaces the report's own drivers",
    "run_recovery_cell(seed)": "item 3: the twin replaces the report's own drivers",
    "run_wire_cell(seed)": "item 3: the twin replaces the report's own drivers",
    "staggered_providers(first_entry)": _INPUT,
}


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def _code_paths():
    return [
        path
        for top in ("src", "bench", "benchmarks", "examples")
        for path in sorted((ROOT / top).rglob("*.py"))
        if "tests" not in path.relative_to(ROOT).parts
    ]


def _doc_paths():
    docs = [ROOT / "README.md", ROOT / "DESIGN.md", ROOT / "EXPERIMENTS.md"]
    return docs + sorted((ROOT / "docs").rglob("*.md"))


def _src_paths():
    return sorted((ROOT / "src" / "repro").rglob("*.py"))


def _docstrings(tree):
    return {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        )
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
        and isinstance(node.body[0].value.value, str)
    }


@functools.lru_cache(maxsize=None)
def _bases():
    """Class name -> base class names, over every class the census reads."""
    bases = {}
    for path in _src_paths() + _code_paths():
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.ClassDef):
                bases.setdefault(node.name, set()).update(
                    base.id if isinstance(base, ast.Name) else base.attr
                    for base in node.bases
                    if isinstance(base, (ast.Name, ast.Attribute))
                )
    return bases


@functools.lru_cache(maxsize=None)
def _ancestors(name):
    seen, todo = set(), [name]
    while todo:
        current = todo.pop()
        if current not in seen:
            seen.add(current)
            todo.extend(_bases().get(current, ()))
    return seen


@functools.lru_cache(maxsize=None)
def _lineage(name):
    return _ancestors(name) | {
        other for other in _bases() if name in _ancestors(other)
    }


def _receiver(node, owner):
    """The class a method receiver names, or ``None`` when unknown."""
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) and node.func.id == "super":
            return owner
        node = node.func
    if isinstance(node, ast.Name):
        if node.id in ("self", "cls"):
            return owner
        if node.id in _bases():
            return node.id
    return None


class _Uses:
    """What non-test code mentions and passes."""

    def __init__(self):
        self.bare = set()  # names with no known receiver
        self.qualified = set()  # (receiver class, attribute)
        self.words = set()  # doc prose: module-level names only
        self.calls = []  # (callee, receiver class, positional count, keywords, splat)

    def read(self, path):
        text = path.read_text(encoding="utf-8")
        if path.suffix != ".py":
            self.words.update(_IDENTIFIER.findall(text))
            for span in _CODE_SPAN.findall(text):
                self.bare.update(_IDENTIFIER.findall(span))
            for owner, attr in _DOTTED.findall(text):
                if owner in _bases():
                    self.qualified.add((owner, attr))
                else:
                    self.bare.add(attr)
            return
        tree = ast.parse(text)
        self._visit(tree, None, _docstrings(tree))

    def _visit(self, node, owner, docstrings):
        if isinstance(node, ast.ClassDef):
            owner = node.name
        if isinstance(node, ast.Attribute):
            receiver = _receiver(node.value, owner)
            if receiver is None:
                self.bare.add(node.attr)
            else:
                self.qualified.add((receiver, node.attr))
        elif isinstance(node, ast.Name):
            self.bare.add(node.id)
        elif isinstance(node, ast.alias):
            self.bare.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.keyword) and node.arg:
            self.bare.add(node.arg)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if id(node) not in docstrings:
                self.bare.update(_IDENTIFIER.findall(node.value))
        elif isinstance(node, ast.Call):
            self._call(node, owner)
        for child in ast.iter_child_nodes(node):
            self._visit(child, owner, docstrings)

    def _call(self, node, owner):
        func = node.func
        if isinstance(func, ast.Name):
            callee, receiver = func.id, None
        elif isinstance(func, ast.Attribute):
            callee, receiver = func.attr, _receiver(func.value, owner)
        else:
            return
        splat = any(isinstance(arg, ast.Starred) for arg in node.args) or any(
            keyword.arg is None for keyword in node.keywords
        )
        keywords = {keyword.arg for keyword in node.keywords if keyword.arg}
        self.calls.append((callee, receiver, len(node.args), keywords, splat))

    def mentions(self, owner, name):
        if owner is None:
            return (
                name in self.bare
                or name in self.words
                or any(attr == name for __, attr in self.qualified)
            )
        return name in self.bare or any(
            (cls, name) in self.qualified for cls in _lineage(owner)
        )

    def passes(self, owner, callee, param, position):
        """True when a call to ``callee`` passes ``param``.

        ``owner`` is the method's class, or the constructor's class when
        ``callee`` is that class; ``None`` for a module function.
        """
        if owner is not None and callee == owner:
            # A constructor: the class or a subclass called by name, or
            # ``super().__init__`` anywhere in its lineage.
            names = {(name, None) for name in _lineage(owner) if owner in _ancestors(name)}
            names |= {("__init__", cls) for cls in _lineage(owner)}
        elif owner is not None:
            names = {(callee, None)} | {(callee, cls) for cls in _lineage(owner)}
        else:
            names = {(callee, None)}
        return any(
            splat or param in keywords or (position is not None and position < count)
            for name, receiver, count, keywords, splat in self.calls
            if (name, receiver) in names
        )


@functools.lru_cache(maxsize=None)
def _uses():
    uses = _Uses()
    for path in _code_paths() + _doc_paths():
        uses.read(path)
    return uses


def _public_definitions(path):
    """``(owner, name)`` for every function or class defined at the top of
    a module, and every method defined directly inside a top-level class."""
    found = []
    for node in _parse(path).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.append((None, node.name))
        elif isinstance(node, ast.ClassDef):
            found.append((None, node.name))
            found.extend(
                (node.name, sub.name)
                for sub in node.body
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not sub.name[0].isupper()
            )
    return [
        (owner, name)
        for owner, name in found
        if not name.startswith("_") and not (owner or "").startswith("_")
    ]


def _defaulted(function, offset):
    """``(param, position)`` of each defaulted parameter; keyword-only
    parameters have no position."""
    args = function.args
    positional = args.posonlyargs + args.args
    first_default = len(positional) - len(args.defaults)
    found = [
        (arg.arg, index - offset)
        for index, arg in enumerate(positional)
        if index >= first_default
    ]
    found += [
        (arg.arg, None)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    ]
    return found


def _is_dataclass(node):
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _knobs(path):
    """``(knob, owner, callee, param, position)`` for every knob in a module."""
    found = []
    for node in _parse(path).body:
        if getattr(node, "name", "_").startswith("_"):
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found += [
                (f"{node.name}({param})", None, node.name, param, position)
                for param, position in _defaulted(node, 0)
            ]
            continue
        if not isinstance(node, ast.ClassDef):
            continue
        if node.name.endswith("Policy") and _is_dataclass(node):
            fields = [
                item.target.id
                for item in node.body
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
            ]
            found += [
                (f"{node.name}({field})", node.name, node.name, field, index)
                for index, field in enumerate(fields)
            ]
        for sub in node.body:
            if not isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if sub.name != "__init__" and (sub.name.startswith("_") or sub.name[0].isupper()):
                continue
            static = any(
                isinstance(decorator, ast.Name) and decorator.id == "staticmethod"
                for decorator in sub.decorator_list
            )
            callee = node.name if sub.name == "__init__" else sub.name
            label = node.name if sub.name == "__init__" else f"{node.name}.{sub.name}"
            found += [
                (f"{label}({param})", node.name, callee, param, position)
                for param, position in _defaulted(sub, 0 if static else 1)
            ]
    return found


def _unreferenced():
    uses = _uses()
    return sorted(
        f"{owner}.{name}" if owner else name
        for path in _src_paths()
        for owner, name in _public_definitions(path)
        if not uses.mentions(owner, name)
    )


def _unpassed():
    uses = _uses()
    return sorted(
        knob
        for path in _src_paths()
        for knob, owner, callee, param, position in _knobs(path)
        if not uses.passes(owner, callee, param, position)
    )


def test_every_public_definition_has_a_caller_outside_its_tests():
    unreferenced = _unreferenced()
    allowed = set(TEST_ONLY) | set(UNCALLED)
    new = sorted(set(unreferenced) - allowed)
    assert not new, f"public definitions nothing calls — delete them: {new}"
    stale = sorted(allowed - set(unreferenced))
    assert not stale, f"now referenced or gone — drop from the allow-list: {stale}"


def test_every_knob_has_a_caller_outside_its_tests():
    unpassed = _unpassed()
    new = sorted(set(unpassed) - set(TEST_ONLY_KNOBS))
    assert not new, f"knobs no production caller passes — make them constants: {new}"
    stale = sorted(set(TEST_ONLY_KNOBS) - set(unpassed))
    assert not stale, f"now passed or gone — drop from TEST_ONLY_KNOBS: {stale}"


def test_src_line_count_stays_under_its_ceiling():
    """The line ratchet (item 15c): a change that grows ``src/`` raises
    ``SRC_LINE_CEILING`` in the same diff and says why in CHANGES.md."""
    lines = sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in (ROOT / "src").rglob("*.py")
    )
    assert lines <= SRC_LINE_CEILING, (
        f"src/ holds {lines} lines of Python, over its ceiling of "
        f"{SRC_LINE_CEILING}: delete code, or raise the ceiling and say why"
    )


def test_allow_list_only_shrinks():
    assert len(set(TEST_ONLY)) == len(TEST_ONLY) <= 13
    assert len(UNCALLED) <= 7
    assert len(TEST_ONLY_KNOBS) <= 56
    assert all(UNCALLED.values()) and all(TEST_ONLY_KNOBS.values())
