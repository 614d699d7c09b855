"""Property-based equivalence: indexed matching == uncached linear scan.

The constraint-compile cache, the type-match memo, and the equality-index
pre-filter are pure optimisations: for any offer population and any
well-formed constraint, the trader must return exactly the offers a naive
linear scan with a fresh parse would.

The generated matcher itself is pinned to :func:`reference`, a straight
recursive reading of the parsed tree, over the whole language: ``and``,
``or``, ``not``, ``exist``, comparisons, ``in``, ``+ - * /``, unary minus,
bare-value truth and booleans used as values, against tie-heavy values
(``True``/``1``/``1.0``, ``0.0``/``-0.0``, NaN, strings, lists).  So are
``min``/``max`` preference expressions, through ``Preference.apply``.

The second half holds the read path to *one* implementation per decision
(DESIGN.md §6d): every access path and every deployment shape gives the
same ranked answer, and a source guard counts the call sites.
"""

import ast
import operator
from pathlib import Path
from types import MappingProxyType

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.naming.refs import ServiceRef
from repro.net.endpoints import Address
from repro.sidl.types import InterfaceType, LONG, OperationType
from repro.trader.constraints import MISSING, Constraint, parse_constraint, parse_tree
from repro.trader.dynamic import dynamic_property
from repro.trader.offers import ServiceOffer
from repro.trader.policies import parse_preference
from repro.trader.service_types import ServiceType
from repro.trader.sharding import build_local_router
from repro.trader.trader import ImportRequest, LocalTrader

PROPS = ["a", "b", "c"]
VALUES = [0, 1, 2, "x", "y"]


def _literal(value):
    return repr(value) if isinstance(value, str) else str(value)


comparisons = st.one_of(
    st.tuples(
        st.sampled_from(PROPS),
        st.sampled_from(["==", "!=", "<", "<=", ">", ">="]),
        st.sampled_from(VALUES),
    ).map(lambda t: f"{t[0]} {t[1]} {_literal(t[2])}"),
    st.tuples(  # mirrored: the index pre-filter turns these round
        st.sampled_from(VALUES),
        st.sampled_from(["==", "<", "<=", ">", ">="]),
        st.sampled_from(PROPS),
    ).map(lambda t: f"{_literal(t[0])} {t[1]} {t[2]}"),
    st.tuples(
        st.sampled_from(PROPS),
        st.lists(st.sampled_from(VALUES), min_size=1, max_size=3),
    ).map(lambda t: f"{t[0]} in [{', '.join(_literal(v) for v in t[1])}]"),
    st.sampled_from(PROPS).map(lambda p: f"exist {p}"),
)


def _combine(children):
    return st.one_of(
        st.tuples(children, children).map(lambda t: f"({t[0]} and {t[1]})"),
        st.tuples(children, children).map(lambda t: f"({t[0]} or {t[1]})"),
        children.map(lambda c: f"not {c}"),
    )


constraints = st.recursive(comparisons, _combine, max_leaves=6)

# An offer's properties: each prop independently absent or one of VALUES.
offer_properties = st.dictionaries(
    st.sampled_from(PROPS), st.sampled_from(VALUES), max_size=len(PROPS)
)


def fresh_parse(text):
    """A brand-new parse, bypassing the lru_cache entirely."""
    return Constraint(text, parse_tree(text, expression=False))


# -- the reference semantics --------------------------------------------------

_COMPARISONS = {
    "==": operator.eq, "!=": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}
_ARITHMETIC = {
    "+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
}


def truth(value):
    return value is not MISSING and bool(value)


def reference(node, props):
    """The language, read straight off the tree: a missing property is
    MISSING and MISSING propagates through values; a comparison or ``in``
    over MISSING, or one that raises ``TypeError``, is false; arithmetic
    that raises ``TypeError``, a zero divisor and a negated non-number
    are MISSING; a bare value's truth is its own; ``and``/``or``
    short-circuit and yield a bool."""
    kind = node[0]
    if kind == "lit":
        return node[1]
    if kind == "prop":
        return props.get(node[1], MISSING)
    if kind == "exist":
        return node[1] in props
    if kind == "not":
        return not truth(reference(node[1], props))
    if kind == "and":
        return all(truth(reference(child, props)) for child in node[1])
    if kind == "or":
        return any(truth(reference(child, props)) for child in node[1])
    if kind == "list":
        items = [reference(item, props) for item in node[1]]
        return MISSING if any(item is MISSING for item in items) else items
    if kind == "neg":
        value = reference(node[1], props)
        return -value if isinstance(value, (int, float)) else MISSING
    left, right = node[-2], node[-1]
    lhs, rhs = reference(left, props), reference(right, props)
    if kind == "arith":
        if lhs is MISSING or rhs is MISSING:
            return MISSING
        if node[1] == "/" and isinstance(rhs, (int, float)) and rhs == 0:
            return MISSING
        try:
            return _ARITHMETIC[node[1]](lhs, rhs)
        except TypeError:
            return MISSING
    if lhs is MISSING or rhs is MISSING:
        return False
    try:
        return lhs in rhs if node[1] == "in" else _COMPARISONS[node[1]](lhs, rhs)
    except TypeError:
        return False


# Ties across types, signed zeros, NaN (one object, so `in` may find it by
# identity), empty and non-empty strings and lists.
TIE_VALUES = [True, False, 1, 0, 1.0, 0.0, -0.0, 2, float("nan"), "x", "xy", "", [1, "x"], []]
tie_properties = st.dictionaries(st.sampled_from(PROPS), st.sampled_from(TIE_VALUES))

_LITERALS = ["0", "1", "2", "0.0", "1.5", "'x'", "'xy'", "''", "true", "false"]
operands = st.one_of(st.sampled_from(PROPS), st.sampled_from(_LITERALS))


def _values(children):
    return st.one_of(
        st.tuples(children, st.sampled_from("+-*/"), children).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"
        ),
        children.map(lambda c: f"-{c}"),
        st.lists(children, max_size=3).map(lambda items: f"[{', '.join(items)}]"),
    )


values = st.recursive(operands, _values, max_leaves=4)
atoms = st.one_of(
    st.tuples(values, st.sampled_from(sorted(_COMPARISONS)), values).map(" ".join),
    st.tuples(values, values).map(lambda t: f"{t[0]} in {t[1]}"),
    st.sampled_from(PROPS).map(lambda p: f"exist {p}"),
    values,  # a bare value: its own truth
    # a chain compared as a value: and/or yield a bool, not an operand
    st.tuples(
        values, st.sampled_from(["and", "or"]), values, st.sampled_from(sorted(_COMPARISONS)), values
    ).map(lambda t: f"({t[0]} {t[1]} {t[2]}) {t[3]} {t[4]}"),
)


def _booleans(children):
    return st.one_of(
        st.tuples(children, children).map(lambda t: f"({t[0]} and {t[1]})"),
        st.tuples(children, children).map(lambda t: f"({t[0]} or {t[1]})"),
        children.map(lambda c: f"not {c}"),
        # a boolean used as a value: its falseness is a number there
        st.tuples(children, st.sampled_from("+*"), values).map(
            lambda t: f"({t[0]}) {t[1]} {t[2]} > 0"
        ),
    )


full_constraints = st.recursive(atoms, _booleans, max_leaves=5)


@settings(max_examples=400, deadline=None)
@given(text=full_constraints, props=tie_properties)
@example(text="(a and b) == 'x'", props={"a": 1, "b": "x"})  # a chain's value is a bool
@example(text="(a or b) + 1 > 1", props={"a": 0, "b": 2})
@example(text="not (a < 'x') and b", props={"a": 1, "b": [0]})
@example(text="a / 0 == a / 0 or not a / b", props={"a": 1.5, "b": -0.0})
@example(text="-a < 0 or -b in [a]", props={"a": True, "b": "x"})
@example(text="a in b and 'x' in c", props={"a": "x", "b": "xy", "c": [1, "x"]})
@example(text="a != a", props={"a": float("nan")})
def test_compiled_matcher_equals_the_reference_reading(text, props):
    tree = parse_tree(text, expression=False)
    expected = truth(reference(tree, props))
    for compiled in (parse_constraint(text), fresh_parse(text)):
        assert compiled.evaluate(props) is expected, (text, props)
        assert compiled.evaluate(MappingProxyType(props)) is expected, (text, props)


def _same(left, right):
    """Identical values: ``repr`` tells 1 from 1.0 from True, -0.0 from
    0.0, and NaN equals itself."""
    return type(left) is type(right) and repr(left) == repr(right)


@settings(max_examples=200, deadline=None)
@given(
    expression=values,
    kind=st.sampled_from(["min", "max"]),
    population=st.lists(tie_properties, max_size=6),
)
def test_preference_expressions_equal_the_reference_reading(expression, kind, population):
    tree = parse_tree(expression, expression=True)
    preference = parse_preference(f"{kind} {expression}")
    offers = [
        ServiceOffer(f"o{index}", "T", {}, properties)
        for index, properties in enumerate(population)
    ]
    for offer in offers:
        assert _same(preference._score(offer.properties), reference(tree, offer.properties))
    # The reference ranking: defined numbers first (NaN is undefined), by
    # value then position, the rest in candidate order.
    scored = [(reference(tree, offer.properties), index) for index, offer in enumerate(offers)]
    defined = [
        (value, index) for value, index in scored
        if isinstance(value, (int, float)) and value == value
    ]
    defined.sort(key=lambda item: (-item[0] if kind == "max" else item[0], item[1]))
    ranked = [index for _, index in defined]
    ranked += [index for _, index in scored if index not in ranked]
    assert preference.apply(offers) == [offers[index] for index in ranked], expression


def build_trader(property_dicts):
    trader = LocalTrader("eq")
    trader.add_type(
        ServiceType(
            "T", InterfaceType("I", [OperationType("Op", [], LONG)]), []
        )
    )
    for index, properties in enumerate(property_dicts):
        trader.export(
            "T",
            ServiceRef.create(f"o{index}", Address("eq", 1), 4711),
            dict(properties),
        )
    return trader


@settings(max_examples=80, deadline=None)
@given(
    offers=st.lists(offer_properties, max_size=8),
    constraint_text=constraints,
)
@example(offers=[{"a": 0}, {"a": 1}, {"a": 2}], constraint_text="2 > a")
@example(offers=[{"a": 1, "b": "x"}, {"a": 2, "b": "x"}], constraint_text="1 <= a and 'x' == b")
def test_indexed_matching_equals_linear_scan(offers, constraint_text):
    trader = build_trader(offers)
    reference_parse = fresh_parse(constraint_text)
    expected = {
        offer.offer_id
        for offer in trader.offers.all()
        if reference_parse.evaluate(offer.properties)
    }
    actual = {
        offer.offer_id
        for offer in trader.import_(ImportRequest("T", constraint_text))
    }
    assert actual == expected
    tree = parse_tree(constraint_text, expression=False)
    assert expected == {
        offer.offer_id
        for offer in trader.offers.all()
        if truth(reference(tree, offer.properties))
    }


@settings(max_examples=40, deadline=None)
@given(
    offers=st.lists(offer_properties, min_size=1, max_size=6),
    constraint_text=constraints,
    modified=offer_properties,
)
def test_equivalence_survives_modify_and_withdraw(offers, constraint_text, modified):
    trader = build_trader(offers)
    ids = [offer.offer_id for offer in trader.offers.all()]
    trader.modify(ids[0], dict(modified))
    if len(ids) > 1:
        trader.withdraw(ids[1])
    reference_parse = fresh_parse(constraint_text)
    expected = {
        offer.offer_id
        for offer in trader.offers.all()
        if reference_parse.evaluate(offer.properties)
    }
    actual = {
        offer.offer_id
        for offer in trader.import_(ImportRequest("T", constraint_text))
    }
    assert actual == expected


# -- one read path: every access path and deployment shape answers alike ------

LEAVES = ("Base", "LeafA", "LeafB")  # one supertype, two leaves: three shards' worth
NOW = 6.0
PREFERENCES = ("", "min p", "max p", "min p + q", "newest", "oldest")
BOUNDS = (0, 1, 3)

# Tie-heavy on purpose: few distinct numbers (2 == 2.0 across int/float),
# a string the ranking cannot use, and a marker whose import-time value
# re-ranks the offer (which must also keep the sorted-index walk away).
_MARKER_REF = ServiceRef.create("live", Address("eq", 9), 4711)
rank_values = st.one_of(
    st.sampled_from([1, 2, 2, 2.0, 3]),
    st.just("x"),
    st.sampled_from([1, 2, 3]).map(
        lambda value: dynamic_property(_MARKER_REF, "Current", {"value": value})
    ),
)
ranked_offers = st.fixed_dictionaries(
    {
        "leaf": st.sampled_from(LEAVES),
        "properties": st.dictionaries(st.sampled_from(["p", "q"]), rank_values),
        "at": st.sampled_from([0.0, 1.0, 1.0, 2.0]),  # newest/oldest tie too
        "lease": st.sampled_from([None, None, 5.0]),  # lapsed at NOW unless at == 2.0
    }
)


def _marker_value(marker):
    return marker["arguments"]["value"]


def _deployments():
    """The four shapes that must be indistinguishable; the linear-scan
    ``LocalTrader`` is the oracle that defines the right answer."""
    shared = {"offer_prefix": "m", "seed": 0, "dynamic_evaluator": _marker_value}
    return {
        "oracle": LocalTrader("oracle", range_index=False, fanout_workers=1, **shared),
        "indexed": LocalTrader("indexed", fanout_workers=1, **shared),
        "router1": build_local_router(["s0"], router_id="r1", **shared),
        "router3": build_local_router(["s0", "s1", "s2"], router_id="r3", **shared),
    }


def test_three_shard_router_spreads_the_leaves():
    router = _deployments()["router3"]
    assert len({router.map.owner(leaf) for leaf in LEAVES}) > 1


@settings(deadline=None)
@given(
    population=st.lists(ranked_offers, max_size=10),
    constraint_text=st.sampled_from(["", "p >= 2", "q == 1 and p < 3", "exist q"]),
)
def test_every_path_and_shape_ranks_alike(population, constraint_text):
    deployments = _deployments()
    interface = InterfaceType("I", [OperationType("Op", [], LONG)])
    for trader in deployments.values():
        trader.add_type(ServiceType("Base", interface, []))
        for leaf in LEAVES[1:]:
            trader.add_type(ServiceType(leaf, interface, [], super_types=["Base"]))
        for index, offer in enumerate(population):
            trader.export(
                offer["leaf"],
                ServiceRef.create(f"o{index}", Address("eq", 1), 4711),
                dict(offer["properties"]),
                offer["at"],
                offer["lease"],
            )
    for preference in PREFERENCES:
        unbounded = None
        for bound in BOUNDS:
            request = ImportRequest("Base", constraint_text, preference, bound)
            answers = {
                shape: [o.offer_id for o in trader.import_(request, NOW)]
                for shape, trader in deployments.items()
            }
            expected = answers["oracle"]
            assert all(answer == expected for answer in answers.values()), (
                preference, bound, answers,
            )
            if bound == 0:
                unbounded = expected
            else:
                assert expected == unbounded[:bound], (preference, bound)


# -- ... and the source says so ------------------------------------------------

_TRADER_SRC = Path(__file__).resolve().parent.parent / "src" / "repro" / "trader"


def _reads(wanted):
    """``(file, enclosing function)`` of every node under
    ``src/repro/trader`` for which ``wanted(node)`` holds."""
    found = []

    def visit(node, path, scope):
        for child in ast.iter_child_nodes(node):
            if wanted(child):
                found.append((path.name, scope))
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, path, child.name if is_def else scope)

    for path in sorted(_TRADER_SRC.rglob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, None)
    return found


def _method_reads(*attrs):
    return _reads(lambda node: isinstance(node, ast.Attribute) and node.attr in attrs)


def _name_reads(*names):
    """Reads of a module-level name; imports and definitions are not reads."""
    return _reads(
        lambda node: isinstance(node, ast.Name)
        and isinstance(node.ctx, ast.Load)
        and node.id in names
    )


def test_each_read_path_decision_has_one_call_site():
    # the match loop: the only constraint evaluation, the only marker resolution
    assert _method_reads("evaluate") == [("trader.py", "_matching")]
    assert _name_reads("resolve_properties") == [("trader.py", "_matching")]
    # dedup → rank → truncate: the only preference application
    assert _method_reads("apply") == [("trader.py", "rank")]
    # parse + expand: nobody but the planner reads a request's text
    assert _name_reads("parse_constraint") == [("trader.py", "plan_import")]
    assert _name_reads("parse_preference") == [("trader.py", "plan_import")]
    assert _method_reads("matching_types") == [("trader.py", "plan_import")]
    # ... and both read paths go through the planner and the ranker
    assert _name_reads("plan_import") == [("router.py", "import_"), ("trader.py", "import_")]
    assert _name_reads("rank") == [("router.py", "import_"), ("trader.py", "import_")]
