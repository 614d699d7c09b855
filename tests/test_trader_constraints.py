"""Tests for the importer constraint language."""

import ast

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gen import MAX_INDENT
from repro.trader.constraints import MAX_DEPTH, MAX_NODES, _Writer, parse_constraint, parse_tree
from repro.trader.errors import ConstraintSyntaxError

OFFER = {
    "ChargePerDay": 80.0,
    "ChargeCurrency": "USD",
    "CarModel": "FIAT-Uno",
    "AverageMilage": 12000,
    "Airconditioned": True,
}


def holds(text, properties=OFFER):
    return parse_constraint(text).evaluate(properties)


# -- comparisons --------------------------------------------------------------------


def test_numeric_comparisons():
    assert holds("ChargePerDay < 90")
    assert holds("ChargePerDay <= 80")
    assert holds("ChargePerDay >= 80")
    assert not holds("ChargePerDay > 80")
    assert holds("ChargePerDay == 80")
    assert holds("ChargePerDay != 81")


def test_string_equality():
    assert holds("ChargeCurrency == 'USD'")
    assert holds('ChargeCurrency != "DEM"')


def test_boolean_property_direct():
    assert holds("Airconditioned")
    assert not holds("not Airconditioned")


def test_boolean_literals():
    assert holds("true")
    assert not holds("false")
    assert holds("Airconditioned == true")


# -- arithmetic -----------------------------------------------------------------------


def test_arithmetic_in_comparisons():
    assert holds("ChargePerDay * 7 == 560")
    assert holds("ChargePerDay + 20 <= 100")
    assert holds("AverageMilage / 1000 == 12")
    assert holds("ChargePerDay - 80 == 0")


def test_precedence_multiplication_first():
    assert holds("2 + 3 * 4 == 14")
    assert holds("(2 + 3) * 4 == 20")


def test_unary_minus():
    assert holds("-ChargePerDay == 0 - 80")


def test_division_by_zero_never_matches():
    assert not holds("ChargePerDay / 0 == 1")
    assert not holds("ChargePerDay / 0 != 1")  # undefined, not unequal


# -- boolean structure ----------------------------------------------------------------


def test_and_or_not():
    assert holds("ChargePerDay < 90 and ChargeCurrency == 'USD'")
    assert not holds("ChargePerDay < 90 and ChargeCurrency == 'DEM'")
    assert holds("ChargePerDay > 100 or ChargeCurrency == 'USD'")
    assert holds("not (ChargePerDay > 100)")


def test_precedence_and_binds_tighter_than_or():
    assert holds("false and false or true")
    assert not holds("false and (false or true)")


# -- membership & existence --------------------------------------------------------------


def test_in_list():
    assert holds("CarModel in ['AUDI', 'FIAT-Uno']")
    assert not holds("CarModel in ['AUDI', 'VW-Golf']")


def test_in_string_substring():
    assert holds("'FIAT' in CarModel")
    assert not holds("'BMW' in CarModel")


def test_exist():
    assert holds("exist ChargePerDay")
    assert not holds("exist Discount")
    assert holds("not exist Discount")


def test_exist_requires_property_name():
    with pytest.raises(ConstraintSyntaxError):
        parse_constraint("exist 42")


# -- missing-property semantics (never an error) ------------------------------------------


def test_missing_property_comparison_is_false():
    assert not holds("Discount > 0")
    assert not holds("Discount == 0")
    assert not holds("Discount != 0")  # undefined, not unequal


def test_missing_in_arithmetic_propagates():
    assert not holds("Discount + 5 > 0")


def test_missing_in_list_fails_quietly():
    assert not holds("Discount in [1, 2]")
    assert not holds("1 in MissingList")


def test_type_mismatch_is_false_not_error():
    assert not holds("CarModel < 5")
    assert not holds("ChargePerDay in 5")


# -- parsing --------------------------------------------------------------------------------


def test_empty_constraint_matches_everything():
    assert holds("")
    assert holds(None)
    assert holds("   ")


def test_syntax_errors_raise():
    for bad in ("==", "a ==", "(a", "a in", "a b", "[1,", "a !! b"):
        with pytest.raises(ConstraintSyntaxError):
            parse_constraint(bad)


def test_pinned_conjuncts_are_read_off_the_tree():
    constraint = parse_constraint(
        "30 > ChargePerDay and City == 'C1' and ('M3' == Model and 2 <= Seats)"
        " and Doors != 4 and Doors == Seats and not Fuel == 'D' and -1 < Rating"
    )
    assert constraint.equality_conjuncts == (("City", "C1"), ("Model", "M3"))
    assert constraint.range_conjuncts == (("ChargePerDay", "<", 30), ("Seats", ">=", 2))
    either = parse_constraint("City == 'C1' or ChargePerDay < 30")
    assert either.equality_conjuncts == either.range_conjuncts == ()


def test_constraints_are_reusable():
    constraint = parse_constraint("ChargePerDay < 100")
    assert constraint.evaluate({"ChargePerDay": 50})
    assert not constraint.evaluate({"ChargePerDay": 500})
    assert constraint.source == "ChargePerDay < 100"


# -- properties -------------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False, width=32), st.floats(allow_nan=False, allow_infinity=False, width=32))
def test_threshold_agrees_with_python(value, threshold):
    constraint = parse_constraint("x < t")
    assert constraint.evaluate({"x": value, "t": threshold}) == (value < threshold)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.sampled_from(["a", "b", "c"]), st.integers(-5, 5)))
def test_exist_matches_membership(properties):
    for key in ("a", "b", "c"):
        assert parse_constraint(f"exist {key}").evaluate(properties) == (
            key in properties
        )


@settings(max_examples=100, deadline=None)
@given(
    st.text(alphabet="ab ()", max_size=12)
)
def test_parser_never_crashes_unexpectedly(text):
    """Any input either parses or raises ConstraintSyntaxError."""
    try:
        parse_constraint(text)
    except ConstraintSyntaxError:
        pass


# -- hostile input: typed errors, never RecursionError ---------------------------------------


@pytest.mark.parametrize(
    "text",
    [
        "(" * 200 + "a == 1" + ")" * 200,  # the parser's own recursion
        "not " * 200 + "a",
        "-" * 200 + "a == 1",
        "a in " + "[" * 200 + "]" * 200,
        " and ".join(["a == 1"] * 3000),  # node count
        "a" + " + 1" * (MAX_DEPTH + 1) + " > 0",  # a left-deep tree, however flat the text
    ],
    ids=["parens", "not", "minus", "brackets", "and-chain", "sum-chain"],
)
def test_hostile_constraints_are_a_syntax_error(text):
    with pytest.raises(ConstraintSyntaxError, match="nested deeper|more than"):
        parse_constraint(text)


def test_nesting_up_to_the_bound_compiles():
    nested = "(" * (MAX_DEPTH - 1) + "a == 1" + ")" * (MAX_DEPTH - 1)
    assert parse_constraint(nested).evaluate({"a": 1})
    assert parse_constraint("not " * (MAX_DEPTH - 1) + "a").evaluate({"a": 0}) is (
        (MAX_DEPTH - 1) % 2 == 1
    )


def _blocks(node, depth=0):
    """How deep ``node``'s blocks nest, as Python's compiler counts them."""
    inner = depth + isinstance(node, (ast.For, ast.While, ast.Try, ast.With))
    return max([inner] + [_blocks(child, inner) for child in ast.iter_child_nodes(node)])


def test_the_deepest_constraint_nests_under_the_generators_bound():
    """Chains of alternating kinds nested to the bound are the deepest
    source the writer emits: an ``if`` per level, but a ``try`` only at
    each leaf, so its blocks stay under :data:`repro.gen.MAX_INDENT`."""
    deepest = "a == 1"
    for level in range(MAX_DEPTH - 2):
        deepest = f"b{level} == 1 {'and' if level % 2 else 'or'} ({deepest})"
    writer = _Writer()
    with writer.function("generated(p)"):
        writer.test(parse_tree(deepest, expression=False), "r", 1, 1)
    source = writer.text()
    assert max(len(line) - len(line.lstrip()) for line in source.splitlines()) // 4 > MAX_INDENT
    assert _blocks(ast.parse(source)) <= MAX_INDENT
    every = {"a": 1, **{f"b{level}": 1 for level in range(MAX_DEPTH - 2)}}
    assert parse_constraint(deepest).evaluate(every)
    assert not parse_constraint(deepest).evaluate({})
    with pytest.raises(ConstraintSyntaxError, match="nested deeper"):
        parse_constraint(f"b == 1 or ({deepest})")


def test_long_chains_generate_flat_code():
    """An ``and``/``or`` chain is one nesting level however long: 300
    terms stay far inside Python's 100 indentation levels."""
    terms = [f"p{index} == {index}" for index in range(300)]
    every = {f"p{index}": index for index in range(300)}
    conjunction = parse_constraint(" and ".join(terms))
    disjunction = parse_constraint(" or ".join(terms))
    assert len(terms) * 3 <= MAX_NODES
    assert conjunction.evaluate(every)
    assert not conjunction.evaluate(dict(every, p299=0))
    assert len(conjunction.equality_conjuncts) == 300
    assert disjunction.evaluate({"p299": 299})
    assert not disjunction.evaluate({})


def test_one_code_object_per_shape():
    first = parse_constraint("City == 'C1' and ChargePerDay < 10")
    second = parse_constraint("City == 'C2' and ChargePerDay < 20.5")
    assert first._holds.__code__ is second._holds.__code__
    assert first.evaluate({"City": "C1", "ChargePerDay": 9})
    assert not second.evaluate({"City": "C1", "ChargePerDay": 9})
    assert second.evaluate({"City": "C2", "ChargePerDay": 20})


SOURCE_TEXT = [
    "'); __import__('os').system('exit 1') #",
    "\n    return True\n",
    '""" + r + """',
    "s0",
    "\\' or True or \\'",
]


@pytest.mark.parametrize("literal", SOURCE_TEXT)
def test_string_literals_are_plain_data(literal):
    quote = '"' if "'" in literal else "'"
    constraint = parse_constraint(f"name == {quote}{literal}{quote} or {quote}{literal}{quote} in tags")
    assert constraint.evaluate({"name": literal})
    assert constraint.evaluate({"tags": [literal]})
    assert not constraint.evaluate({"name": literal + " ", "tags": []})
    assert not constraint.evaluate({})


def test_property_names_are_plain_data():
    """Names that mean something to the generated function or to Python
    (its own parameters, builtins, dunders) are only dictionary keys."""
    names = ["p", "r", "E", "M", "neg", "s0", "t0", "True", "__import__", "__builtins__", "exec"]
    text = " and ".join(f"{name} == {index}" for index, name in enumerate(names))
    properties = {name: index for index, name in enumerate(names)}
    assert parse_constraint(text).evaluate(properties)
    assert not parse_constraint(text).evaluate(dict(properties, exec=-1))
    assert parse_constraint("exist __import__ and not exist eval").evaluate(properties)
