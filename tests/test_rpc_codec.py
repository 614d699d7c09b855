"""Compiled SIDL codecs: roundtrips, fallback triggers, negotiation.

The compiled lane must be *invisible* at the semantic level: every value
either rides the precomputed-struct encoding or transparently falls back
to the tagged codec, and both peers always agree on which happened
(compiled bodies are self-announcing via the magic + fingerprint
header).  These tests pin the three contracts the wire fast lane rests
on: byte-level roundtrip fidelity, every documented fallback trigger,
and the registry's negotiation rules.
"""

import pytest

from repro.errors import ConfigurationError
from repro.rpc.codec import (
    CODECS,
    CodecFallback,
    CodecRegistry,
    CompiledCodec,
    MAGIC,
    fingerprint_of,
    is_compiled,
)
from repro.rpc.errors import XdrError, XdrTruncated
from repro.rpc.xdr import decode_value, encode_value
from repro.sidl import layout
from repro.sidl.types import (
    AnyType,
    IntegerType,
    OperationType,
    StringType,
    VoidType,
)
from repro.telemetry.metrics import METRICS

WIDE_SPEC = layout.struct(
    offer_id=layout.string(),
    price=layout.f64(),
    seats=layout.i64(),
    automatic=layout.boolean(),
    fuel=layout.enum("petrol", "diesel", "electric"),
    notes=layout.optional(layout.string()),
    tags=layout.seq(layout.string()),
    blob=layout.octets(),
)

WIDE_VALUE = {
    "offer_id": "offer-0042",
    "price": 129.5,
    "seats": 4,
    "automatic": True,
    "fuel": "electric",
    "notes": None,
    "tags": ["economy", "city"],
    "blob": b"\x00\x01\x02",
}


# -- roundtrips --------------------------------------------------------------


@pytest.mark.parametrize(
    "spec,value",
    [
        (layout.i64(), -(2**40)),
        (layout.f64(), 3.25),
        (layout.boolean(), False),
        (layout.enum("a", "b"), "b"),
        (layout.string(), "héllo wörld"),
        (layout.string(), ""),
        (layout.octets(), b"\x00\xff" * 7),
        (layout.void(), None),
        (layout.optional(layout.i64()), None),
        (layout.optional(layout.i64()), 9),
        (layout.seq(layout.i64()), []),
        (layout.seq(layout.string()), ["x", "yy", "zzz"]),
        (WIDE_SPEC, WIDE_VALUE),
        (
            layout.seq(layout.struct(name=layout.string(), rank=layout.i64())),
            [{"name": "a", "rank": 1}, {"name": "b", "rank": 2}],
        ),
    ],
)
def test_compiled_roundtrip(spec, value):
    codec = CompiledCodec(spec)
    body = codec.encode(value)
    assert is_compiled(body)
    assert codec.decode(body) == value


def test_compiled_body_never_looks_tagged():
    """The magic word sits outside the tagged codec's tag range, so any
    decode point can classify a body from its first four bytes."""
    body = CompiledCodec(layout.i64()).encode(5)
    assert is_compiled(body)
    assert not is_compiled(encode_value(5))
    assert not is_compiled(b"")  # shorter than a header
    with pytest.raises(XdrError):
        decode_value(body)  # tagged decoder rejects the magic as a tag


def test_compiled_encoding_is_smaller_for_records():
    compiled = CompiledCodec(WIDE_SPEC).encode(WIDE_VALUE)
    tagged = encode_value(WIDE_VALUE)
    assert len(compiled) < len(tagged)


# -- encode fallback triggers ------------------------------------------------


@pytest.mark.parametrize(
    "spec,value",
    [
        (layout.i64(), 1.5),  # float where int pinned
        (layout.i64(), True),  # bool is not an int on the wire
        (layout.i64(), 2**63),  # out of range for the hyper
        (layout.f64(), 3),  # int where float pinned
        (layout.boolean(), 1),
        (layout.enum("a", "b"), "c"),  # unknown label
        (layout.enum("a", "b"), 7),  # not a label at all
        (layout.string(), b"bytes"),
        (layout.octets(), "text"),
        (layout.seq(layout.i64()), 5),
        (layout.void(), 0),
        (layout.struct(a=layout.i64()), {"a": 1, "b": 2}),  # extended value
        (layout.struct(a=layout.i64()), {"b": 1}),  # missing field
        (layout.struct(a=layout.i64()), ["not", "a", "dict"]),
    ],
)
def test_encode_fallback_triggers(spec, value):
    with pytest.raises(CodecFallback):
        CompiledCodec(spec).encode(value)


def test_registry_encode_falls_back_to_tagged(wire_registry):
    """A value the layout cannot carry still crosses the wire — tagged."""
    registry, prog = wire_registry
    extended = dict(WIDE_VALUE, extra="subtype field")
    body = registry.encode_args(prog, 1, 1, extended)
    assert not is_compiled(body)
    assert registry.decode_args(prog, 1, 1, body) == extended


# -- decode errors -----------------------------------------------------------


def test_truncated_compiled_body_raises_truncated():
    codec = CompiledCodec(WIDE_SPEC)
    body = codec.encode(WIDE_VALUE)
    with pytest.raises(XdrTruncated):
        codec.decode(body[: len(body) - 3])


def test_trailing_bytes_after_compiled_value():
    codec = CompiledCodec(layout.i64())
    with pytest.raises(XdrError, match="trailing"):
        codec.decode(codec.encode(1) + b"\x00\x00\x00\x00")


def test_corrupt_leaves_raise_xdr_error():
    bool_codec = CompiledCodec(layout.boolean())
    bad_bool = bool_codec.encode(True)[:-4] + b"\x00\x00\x00\x07"
    with pytest.raises(XdrError, match="bool"):
        bool_codec.decode(bad_bool)

    enum_codec = CompiledCodec(layout.enum("a", "b"))
    bad_enum = enum_codec.encode("a")[:-4] + b"\x00\x00\x00\x09"
    with pytest.raises(XdrError, match="enum"):
        enum_codec.decode(bad_enum)

    opt_codec = CompiledCodec(layout.optional(layout.i64()))
    bad_flag = opt_codec.encode(None)[:-4] + b"\x00\x00\x00\x02"
    with pytest.raises(XdrError, match="bool must be 0 or 1"):
        opt_codec.decode(bad_flag)

    seq_codec = CompiledCodec(layout.seq(layout.i64()))
    absurd = seq_codec.encode([])[:-4] + b"\xff\xff\xff\xff"
    with pytest.raises(XdrTruncated, match="element count"):
        seq_codec.decode(absurd)


# -- registry negotiation ----------------------------------------------------


@pytest.fixture
def wire_registry():
    """A private registry with one negotiated echo procedure."""
    registry = CodecRegistry()
    prog = 940100
    registry.register(prog, 1, 1, args=WIDE_SPEC, result=WIDE_SPEC)
    return registry, prog


def test_reregistration_identical_spec_is_idempotent(wire_registry):
    registry, prog = wire_registry
    registry.register(prog, 1, 1, args=WIDE_SPEC, result=WIDE_SPEC)
    assert registry.negotiated(prog, 1, 1)


def test_redefinition_refused(wire_registry):
    registry, prog = wire_registry
    with pytest.raises(ConfigurationError, match="different layout"):
        registry.register(prog, 1, 1, args=layout.string())


def test_unnegotiated_compiled_body_rejected(wire_registry):
    """A compiled body for a procedure we never negotiated is a protocol
    error, not silently misread: the header cannot be tagged data."""
    registry, prog = wire_registry
    body = CompiledCodec(WIDE_SPEC).encode(WIDE_VALUE)
    with pytest.raises(XdrError, match="unnegotiated"):
        registry.decode_args(prog + 1, 1, 1, body)


def test_fingerprint_mismatch_rejected(wire_registry):
    registry, prog = wire_registry
    other = CompiledCodec(layout.struct(x=layout.i64()))
    body = other.encode({"x": 3})
    with pytest.raises(XdrError, match="fingerprint"):
        registry.decode_args(prog, 1, 1, body)


def test_tagged_body_for_negotiated_signature_decodes(wire_registry):
    """Mixed-version interop: an old peer sends tagged; we decode it."""
    registry, prog = wire_registry
    fallback_before = METRICS.counter("rpc.codec.fallback", ("args", "decode"))
    value = registry.decode_args(prog, 1, 1, encode_value(WIDE_VALUE))
    assert value == WIDE_VALUE
    assert (
        METRICS.counter("rpc.codec.fallback", ("args", "decode"))
        == fallback_before + 1
    )


def test_hit_counters_track_compiled_traffic(wire_registry):
    registry, prog = wire_registry
    enc_before = METRICS.counter("rpc.codec.compiled_hits", ("result", "encode"))
    dec_before = METRICS.counter("rpc.codec.compiled_hits", ("result", "decode"))
    body = registry.encode_result(prog, 1, 1, WIDE_VALUE)
    assert is_compiled(body)
    assert registry.decode_result(prog, 1, 1, body) == WIDE_VALUE
    assert (
        METRICS.counter("rpc.codec.compiled_hits", ("result", "encode"))
        == enc_before + 1
    )
    assert (
        METRICS.counter("rpc.codec.compiled_hits", ("result", "decode"))
        == dec_before + 1
    )


def test_fingerprint_is_stable_and_spec_sensitive():
    assert fingerprint_of(WIDE_SPEC) == fingerprint_of(WIDE_SPEC)
    assert fingerprint_of(WIDE_SPEC) != fingerprint_of(layout.i64())
    codec = CompiledCodec(WIDE_SPEC)
    assert codec.encode(WIDE_VALUE)[:4] == MAGIC.to_bytes(4, "big")


# -- SIDL-driven negotiation -------------------------------------------------


def test_register_operation_derives_layouts():
    registry = CodecRegistry()
    operation = OperationType(
        "Renew",
        [
            ("offer_id", "in", StringType()),
            ("extra_hours", "in", IntegerType("long", 32)),
        ],
        StringType(),
    )
    assert registry.register_operation(940200, 1, 3, operation)
    body = registry.encode_args(
        940200, 1, 3, {"offer_id": "o-1", "extra_hours": 2}
    )
    assert is_compiled(body)
    assert registry.decode_args(940200, 1, 3, body) == {
        "offer_id": "o-1",
        "extra_hours": 2,
    }


def test_register_operation_skips_dynamic_signatures():
    registry = CodecRegistry()
    operation = OperationType("Poke", [("payload", "in", AnyType())], VoidType())
    assert not registry.register_operation(940201, 1, 4, operation)
    assert not registry.negotiated(940201, 1, 4)


def test_global_registry_serves_trader_procedures():
    """Importing the trader negotiates its hot procedures process-wide."""
    from repro.trader.trader import TRADER_PROGRAM, _PROC_RENEW

    assert CODECS.negotiated(TRADER_PROGRAM, 1, _PROC_RENEW)


# -- the generated source: depth, hostile names, no builtins ----------------

HOSTILE = ["a'b", 'a"b', "a\\b", "a\nb", "{x}", "}{", "__import__('os')", "x)\n", "'''"]


def _seq_deep(levels: int):
    spec, value = layout.string(), "leaf"
    for __ in range(levels):
        spec, value = layout.seq(spec), [value]
    return spec, value


def _mixed_deep(levels: int):
    """``levels`` of struct/seq/optional, innermost an i64, and a value."""
    spec, value = layout.i64(), 7
    for level in range(levels):
        kind = level % 3
        if kind == 0:
            spec, value = layout.seq(spec), [value, value]
        elif kind == 1:
            spec, value = layout.optional(spec), value
        else:
            spec, value = layout.struct(a=layout.string(), b=spec), {"a": "x", "b": value}
    return spec, value


@pytest.mark.parametrize(
    "spec,value",
    [
        _mixed_deep(40),
        _mixed_deep(41),
        _mixed_deep(42),
        _seq_deep(25),
        (layout.seq(layout.seq(layout.seq(layout.any_value()))), [[[{"k": 1.5}]]]),
    ],
    ids=["mixed40", "mixed41", "mixed42", "seq25", "seq-any"],
)
def test_deep_specs_compile_and_round_trip(spec, value):
    """Past a fixed depth the generator moves a value into a helper
    function: Python refuses code nested more than 20 blocks deep."""
    codec = CompiledCodec(spec)
    assert codec.decode(codec.encode(value)) == value


def test_hostile_names_and_labels_round_trip_and_stay_out_of_the_source():
    from repro.rpc.codec import _Source

    spec = layout.struct(**{
        name: layout.struct(**{label: layout.enum(*HOSTILE) for label in HOSTILE})
        for name in HOSTILE
    })
    value = {name: {label: label for label in HOSTILE} for name in HOSTILE}
    codec = CompiledCodec(spec)
    assert codec.decode(codec.encode(value)) == value
    text = _Source().module(spec)
    for hostile in HOSTILE:
        assert hostile not in text


def test_one_code_object_per_shape():
    """Field names are constants, so layouts of one shape share their code."""
    first = CompiledCodec(layout.struct(x=layout.i64(), y=layout.string()))
    second = CompiledCodec(layout.struct(u=layout.i64(), v=layout.string()))
    assert first._enc.__code__ is second._enc.__code__
    assert first._dec.__code__ is second._dec.__code__
    assert first.decode(first.encode({"x": 1, "y": "a"})) == {"x": 1, "y": "a"}
    assert second.decode(second.encode({"u": -2, "v": "b"})) == {"u": -2, "v": "b"}
