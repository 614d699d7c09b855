"""Tests for the SIDL type system: value checking and defaults."""

import pytest

from repro.net.endpoints import Address
from repro.sidl.errors import SidlTypeError
from repro.sidl.types import (
    ANY,
    BOOLEAN,
    DOUBLE,
    EnumType,
    FLOAT,
    InterfaceType,
    LONG,
    LONG_LONG,
    OCTET,
    OCTETS,
    OperationType,
    SHORT,
    STRING,
    SequenceType,
    SERVICE_REFERENCE,
    SID_VALUE,
    StringType,
    StructType,
    UnionType,
    VOID,
)


# -- primitives ---------------------------------------------------------------------


def test_void_accepts_only_none():
    assert VOID.check(None) is None
    with pytest.raises(SidlTypeError):
        VOID.check(0)


def test_boolean_rejects_ints():
    assert BOOLEAN.check(True) is True
    with pytest.raises(SidlTypeError):
        BOOLEAN.check(1)


def test_integer_ranges():
    assert SHORT.check(32767) == 32767
    with pytest.raises(SidlTypeError):
        SHORT.check(32768)
    assert LONG.check(-(2**31)) == -(2**31)
    with pytest.raises(SidlTypeError):
        LONG.check(2**31)
    assert LONG_LONG.check(2**62)
    assert OCTET.check(255) == 255
    with pytest.raises(SidlTypeError):
        OCTET.check(-1)


def test_integer_rejects_bool_and_float():
    with pytest.raises(SidlTypeError):
        LONG.check(True)
    with pytest.raises(SidlTypeError):
        LONG.check(1.5)


def test_float_widens_ints():
    assert FLOAT.check(80) == 80.0
    assert isinstance(DOUBLE.check(1), float)
    with pytest.raises(SidlTypeError):
        FLOAT.check(True)
    with pytest.raises(SidlTypeError):
        FLOAT.check("1.0")


def test_string_bound_enforced():
    assert STRING.check("anything at all")
    bounded = StringType(bound=3)
    assert bounded.check("abc") == "abc"
    with pytest.raises(SidlTypeError):
        bounded.check("abcd")


def test_octets_coerce_bytearray():
    assert OCTETS.check(bytearray(b"xy")) == b"xy"
    with pytest.raises(SidlTypeError):
        OCTETS.check("not-bytes")


# -- enums -----------------------------------------------------------------------------


def test_enum_labels_validated():
    colors = EnumType("Color", ["RED", "GREEN"])
    assert colors.check("RED") == "RED"
    with pytest.raises(SidlTypeError):
        colors.check("BLUE")
    with pytest.raises(SidlTypeError):
        colors.check(0)


def test_enum_requires_labels_and_uniqueness():
    with pytest.raises(SidlTypeError):
        EnumType("Empty", [])
    with pytest.raises(SidlTypeError):
        EnumType("Dup", ["A", "A"])


def test_enum_default_is_first_label():
    assert EnumType("C", ["X", "Y"]).default() == "X"


# -- structs -----------------------------------------------------------------------------


@pytest.fixture
def point():
    return StructType("Point", [("x", LONG), ("y", LONG)])


def test_struct_checks_fields(point):
    assert point.check({"x": 1, "y": 2}) == {"x": 1, "y": 2}


def test_struct_missing_field_named_in_error(point):
    with pytest.raises(SidlTypeError) as excinfo:
        point.check({"x": 1})
    assert "y" in str(excinfo.value)


def test_struct_nested_error_path(point):
    with pytest.raises(SidlTypeError) as excinfo:
        point.check({"x": 1, "y": "nope"})
    assert "Point.y" in str(excinfo.value)


def test_struct_preserves_extension_fields(point):
    """Width-subtyped values survive base-typed checking (§3.1)."""
    checked = point.check({"x": 1, "y": 2, "z": 3, "label": "extended"})
    assert checked["z"] == 3
    assert checked["label"] == "extended"


def test_struct_duplicate_fields_rejected():
    with pytest.raises(SidlTypeError):
        StructType("Bad", [("a", LONG), ("a", LONG)])


def test_struct_default(point):
    assert point.default() == {"x": 0, "y": 0}


# -- sequences ------------------------------------------------------------------------------


def test_sequence_checks_elements():
    seq = SequenceType(LONG)
    assert seq.check([1, 2]) == [1, 2]
    assert seq.check(()) == []
    with pytest.raises(SidlTypeError):
        seq.check([1, "two"])
    with pytest.raises(SidlTypeError):
        seq.check("not-a-list")


def test_sequence_bound():
    seq = SequenceType(LONG, bound=2)
    assert seq.check([1, 2]) == [1, 2]
    with pytest.raises(SidlTypeError):
        seq.check([1, 2, 3])


# -- unions ---------------------------------------------------------------------------------


@pytest.fixture
def shape():
    kind = EnumType("Kind", ["CIRCLE", "SQUARE", "OTHER"])
    return UnionType(
        "Shape",
        kind,
        [
            ("CIRCLE", "radius", DOUBLE),
            ("SQUARE", "side", LONG),
            (None, "description", STRING),
        ],
    )


def test_union_checks_active_arm(shape):
    assert shape.check({"tag": "CIRCLE", "value": 2.0}) == {
        "tag": "CIRCLE",
        "value": 2.0,
    }
    with pytest.raises(SidlTypeError):
        shape.check({"tag": "CIRCLE", "value": "big"})


def test_union_default_arm_used_for_other_labels(shape):
    assert shape.check({"tag": "OTHER", "value": "blob"})["value"] == "blob"


def test_union_bad_tag_rejected(shape):
    with pytest.raises(SidlTypeError):
        shape.check({"tag": "TRIANGLE", "value": 1})


def test_union_requires_tag_key(shape):
    with pytest.raises(SidlTypeError):
        shape.check({"value": 1})


def test_union_default_value(shape):
    assert shape.default() == {"tag": "CIRCLE", "value": 0.0}


def test_union_case_label_must_belong_to_discriminator():
    kind = EnumType("K", ["A"])
    with pytest.raises(SidlTypeError):
        UnionType("U", kind, [("B", "arm", LONG)])


# -- references, SIDs, any ----------------------------------------------------------------------


def test_any_accepts_everything():
    for value in (None, 1, "x", [1], {"a": 1}):
        assert ANY.check(value) == value


def test_service_reference_accepts_wire_and_live():
    from repro.naming.refs import ServiceRef

    ref = ServiceRef.create("S", Address("h", 1), 99)
    wire = SERVICE_REFERENCE.check(ref)
    assert wire["__cosm__"] == "service_reference"
    assert SERVICE_REFERENCE.check(wire) == wire
    with pytest.raises(SidlTypeError):
        SERVICE_REFERENCE.check({"random": "dict"})


def test_sid_value_accepts_wire_form(car_sid):
    wire = SID_VALUE.check(car_sid)
    assert wire["__cosm__"] == "sid"
    assert SID_VALUE.check(wire) == wire
    with pytest.raises(SidlTypeError):
        SID_VALUE.check(42)


# -- operations & interfaces -----------------------------------------------------------------------


@pytest.fixture
def add_op():
    return OperationType("Add", [("a", "in", LONG), ("b", "in", LONG)], LONG)


def test_operation_check_arguments(add_op):
    assert add_op.check_arguments({"a": 1, "b": 2}) == {"a": 1, "b": 2}


def test_operation_missing_argument(add_op):
    with pytest.raises(SidlTypeError) as excinfo:
        add_op.check_arguments({"a": 1})
    assert "b" in str(excinfo.value)


def test_operation_unknown_argument(add_op):
    with pytest.raises(SidlTypeError) as excinfo:
        add_op.check_arguments({"a": 1, "b": 2, "c": 3})
    assert "c" in str(excinfo.value)


def test_operation_out_params_not_required():
    op = OperationType(
        "Get", [("key", "in", STRING), ("found", "out", BOOLEAN)], STRING
    )
    assert op.check_arguments({"key": "k"}) == {"key": "k"}


def test_inout_param_is_both(add_op):
    op = OperationType("Bump", [("counter", "inout", LONG)], VOID)
    assert ("counter", LONG) in op.in_params()


def test_interface_duplicate_operation_rejected(add_op):
    with pytest.raises(SidlTypeError):
        InterfaceType("I", [add_op, add_op])


def test_interface_unknown_operation(add_op):
    interface = InterfaceType("I", [add_op])
    with pytest.raises(SidlTypeError):
        interface.operation("Sub")
    assert interface.operation_names() == ["Add"]


def test_describe_strings_are_informative(add_op, shape):
    assert "Add" in add_op.describe()
    assert "in long a" in add_op.describe()
    assert "Shape" in shape.name
    assert "enum" in EnumType("E", ["A"]).describe()
