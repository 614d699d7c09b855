"""Tests for XDR primitives and the tagged value codec."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.endpoints import Address
from repro.rpc.errors import XdrError, XdrTruncated
from repro.rpc.xdr import (
    decode_value,
    encode_value,
    get_bool,
    get_fixed,
    get_opaque,
    get_string,
    get_u32,
    put_opaque,
    put_string,
    put_u32,
)


def _wire(put, *values) -> memoryview:
    out = []
    for value in values:
        put(out, value)
    return memoryview(b"".join(out))


# -- primitives -----------------------------------------------------------------


def test_u32_roundtrip():
    view = _wire(put_u32, 0, 2**32 - 1)
    first, offset = get_u32(view, 0)
    second, offset = get_u32(view, offset)
    assert (first, second) == (0, 2**32 - 1)
    assert offset == len(view)


def test_u32_range_checked():
    with pytest.raises(XdrError):
        put_u32([], -1)
    with pytest.raises(XdrError):
        put_u32([], 2**32)


def test_i64_range_checked():
    with pytest.raises(XdrError):
        encode_value(2**63)
    with pytest.raises(XdrError):
        encode_value(-(2**63) - 1)


def test_opaque_padding_to_four_bytes():
    view = _wire(put_opaque, b"abcde")  # 5 bytes -> 3 bytes padding
    assert len(view) == 4 + 5 + 3
    assert get_opaque(view, 0) == (b"abcde", len(view))


def test_nonzero_padding_rejected():
    corrupted = bytearray(_wire(put_opaque, b"abcde"))
    corrupted[-1] = 0xFF
    with pytest.raises(XdrError):
        get_opaque(memoryview(corrupted), 0)


def test_string_utf8_roundtrip():
    view = _wire(put_string, "grüße aus Hamburg")
    assert get_string(view, 0) == ("grüße aus Hamburg", len(view))


def test_bool_strictness():
    with pytest.raises(XdrError):
        get_bool(_wire(put_u32, 2), 0)


def test_truncated_data_detected():
    view = _wire(put_u32, 4)  # claims 4 bytes follow, none do
    with pytest.raises(XdrError):
        get_opaque(view, 0)


# -- tagged values -----------------------------------------------------------------


@pytest.mark.parametrize(
    "value",
    [
        None,
        True,
        False,
        0,
        -1,
        2**62,
        -(2**62),
        0.0,
        3.14159,
        -1e300,
        "",
        "hello",
        "ünïcode",
        b"",
        b"\x00\x01\xff",
        [],
        [1, 2, 3],
        ["mixed", 1, None, True],
        {},
        {"a": 1, "b": [2, {"c": "d"}]},
        Address("sparc1", 111),
        {"ref": Address("h", 1), "more": [Address("g", 2)]},
    ],
)
def test_value_roundtrip(value):
    assert decode_value(encode_value(value)) == value


def test_tuple_decodes_as_list():
    assert decode_value(encode_value((1, 2))) == [1, 2]


def test_address_is_not_confused_with_tuple():
    decoded = decode_value(encode_value(Address("h", 9)))
    assert isinstance(decoded, Address)


def test_dict_key_order_preserved():
    value = {"z": 1, "a": 2, "m": 3}
    assert list(decode_value(encode_value(value))) == ["z", "a", "m"]


def test_non_string_dict_keys_rejected():
    with pytest.raises(XdrError):
        encode_value({1: "x"})


def test_unencodable_type_rejected():
    with pytest.raises(XdrError):
        encode_value(object())


def test_oversized_int_rejected():
    with pytest.raises(XdrError):
        encode_value(2**63)


def test_trailing_bytes_rejected():
    data = encode_value(1) + b"\x00"
    with pytest.raises(XdrError):
        decode_value(data)


def test_unknown_tag_rejected():
    with pytest.raises(XdrError):
        decode_value(_wire(put_u32, 99))


# -- property-based ---------------------------------------------------------------

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.floats(allow_nan=False),
    st.text(max_size=40),
    st.binary(max_size=40),
    st.builds(
        Address,
        st.text(min_size=1, max_size=10),
        st.integers(min_value=0, max_value=65535),
    ),
)

_values = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.dictionaries(st.text(max_size=8), inner, max_size=5),
    ),
    max_leaves=25,
)


@settings(max_examples=200, deadline=None)
@given(_values)
def test_value_roundtrip_property(value):
    assert decode_value(encode_value(value)) == value


@settings(max_examples=100, deadline=None)
@given(_values)
def test_encoding_is_deterministic(value):
    assert encode_value(value) == encode_value(value)


# -- truncation context, depth guard, bulk u32 reads -------------------------


def test_truncation_names_the_offending_offset():
    view = memoryview(b"\x00\x00\x00\x01\x00\x00")  # one u32, then 2 bytes
    value, offset = get_u32(view, 0)
    assert value == 1
    with pytest.raises(XdrTruncated) as excinfo:
        get_u32(view, offset)
    assert "offset 4" in str(excinfo.value)
    assert "wanted 4 bytes, have 2" in str(excinfo.value)


def test_truncated_opaque_reports_offset():
    view = _wire(put_opaque, b"0123456789")[:8]  # length says 10, only 4 payload bytes left
    with pytest.raises(XdrTruncated) as excinfo:
        get_opaque(view, 0)
    assert "offset 4" in str(excinfo.value)
    assert "wanted 12 bytes, have 4" in str(excinfo.value)


def test_truncated_is_an_xdr_error():
    """Callers that only catch XdrError still see truncation."""
    assert issubclass(XdrTruncated, XdrError)


def test_depth_guard_rejects_adversarial_nesting():
    from repro.rpc.xdr import MAX_VALUE_DEPTH

    value = "leaf"
    for __ in range(MAX_VALUE_DEPTH + 1):
        value = [value]
    with pytest.raises(XdrError, match="MAX_VALUE_DEPTH"):
        decode_value(encode_value(value))


def test_depth_guard_admits_reasonable_nesting():
    from repro.rpc.xdr import MAX_VALUE_DEPTH

    value = "leaf"
    for __ in range(MAX_VALUE_DEPTH - 1):
        value = [value]
    assert decode_value(encode_value(value)) == value


def test_unpack_u32s_matches_single_reads():
    """``get_fixed`` with a multi-word struct: one unpack for a fixed header."""
    numbers = (0, 1, 2**32 - 1, 7, 42, 99)
    view = _wire(put_u32, *numbers)
    assert get_fixed(struct.Struct(">6I"), view, 0) == (numbers, len(view))
    offset, single = 0, []
    for __ in numbers:
        value, offset = get_u32(view, offset)
        single.append(value)
    assert tuple(single) == numbers


def test_unpack_u32s_truncation():
    view = memoryview(b"\x00" * 7)  # not even two words
    with pytest.raises(XdrTruncated, match="offset 0: wanted 8 bytes, have 7"):
        get_fixed(struct.Struct(">2I"), view, 0)
