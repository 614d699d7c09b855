"""Substrate microbenchmarks: XDR codec, compiled codecs, raw dispatch.

Everything above (SIDs, trading, mediation) rides on these costs; the
series here make the higher-level numbers interpretable.  The
``codec_*`` series compare the tagged dynamic-marshalling path against
the compiled per-signature path on the same values — the per-call floor
the wire fast lane lowers.  ``offers200`` is the IMPORT reply of the
end-to-end bench's ``bulk`` read: 200 offer records of its population.
"""

import pytest

from bench import config
from benchmarks.conftest import Stack
from repro.rpc.codec import CompiledCodec
from repro.rpc.server import RpcProgram
from repro.rpc.xdr import decode_value, encode_value
from repro.sidl import layout
from repro.trader.offers import OFFER_LAYOUT, ServiceOffer

PROG = 910000

#: A trader-RENEW-shaped record: the hot heartbeat signature.
SMALL_SPEC = layout.struct(offer_id=layout.string())
SMALL_VALUE = {"offer_id": "offer-0042"}

#: A wider record mixing every fixed-width leaf with string tails.
WIDE_SPEC = layout.struct(
    sequence=layout.i64(),
    price=layout.f64(),
    available=layout.boolean(),
    tier=layout.enum("gold", "silver", "bronze"),
    name=layout.string(),
    site=layout.string(),
    matches=layout.seq(layout.struct(rank=layout.i64(), score=layout.f64())),
)
WIDE_VALUE = {
    "sequence": 123456789,
    "price": 19.94,
    "available": True,
    "tier": "silver",
    "name": "CarRentalService",
    "site": "site-b.example",
    "matches": [{"rank": rank, "score": rank * 0.5} for rank in range(8)],
}

#: 200 offer records as a trader's IMPORT reply carries them (``bulk``).
OFFERS_SPEC = layout.seq(OFFER_LAYOUT)
OFFERS_VALUE = [
    ServiceOffer(
        f"offer-{index}", leaf, ref, properties,
        exported_at=1000.0 + index, expires_at=1300.0 + index, lease_seconds=300.0,
    ).to_wire()
    for index, (leaf, ref, properties) in enumerate(config.preload(200))
]
COMPILED_SHAPES = [
    ("small", SMALL_SPEC, SMALL_VALUE),
    ("wide", WIDE_SPEC, WIDE_VALUE),
    ("offers200", OFFERS_SPEC, OFFERS_VALUE),
]


def nested_value(depth: int, width: int):
    value = {"leaf": 1}
    for level in range(depth):
        value = {
            f"k{index}": dict(value) for index in range(width)
        }
    return value


@pytest.mark.parametrize("size", [10, 100, 1000])
def test_xdr_encode_flat_dict(benchmark, size):
    value = {f"key{i}": i for i in range(size)}
    payload = benchmark(lambda: encode_value(value))
    assert len(payload) > size


@pytest.mark.parametrize("size", [10, 100, 1000])
def test_xdr_decode_flat_dict(benchmark, size):
    payload = encode_value({f"key{i}": i for i in range(size)})
    value = benchmark(lambda: decode_value(payload))
    assert len(value) == size


@pytest.mark.parametrize("depth", [2, 4])
def test_xdr_nested_roundtrip(benchmark, depth):
    value = nested_value(depth, width=3)

    def roundtrip():
        return decode_value(encode_value(value))

    assert benchmark(roundtrip) == value


def test_xdr_bytes_payload(benchmark):
    value = {"blob": b"\x00" * 65536}
    payload = benchmark(lambda: encode_value(value))
    assert len(payload) > 65536


@pytest.mark.parametrize(
    "shape,spec,value", COMPILED_SHAPES, ids=[shape for shape, *__ in COMPILED_SHAPES]
)
def test_codec_compiled_encode(benchmark, shape, spec, value):
    codec = CompiledCodec(spec)
    payload = benchmark(lambda: codec.encode(value))
    assert len(payload) < len(encode_value(value))


@pytest.mark.parametrize(
    "shape,spec,value", COMPILED_SHAPES, ids=[shape for shape, *__ in COMPILED_SHAPES]
)
def test_codec_compiled_decode(benchmark, shape, spec, value):
    codec = CompiledCodec(spec)
    payload = codec.encode(value)
    assert benchmark(lambda: codec.decode(payload)) == value


@pytest.mark.parametrize(
    "shape,value",
    [("small", SMALL_VALUE), ("wide", WIDE_VALUE)],
    ids=["small", "wide"],
)
def test_codec_tagged_decode(benchmark, shape, value):
    payload = encode_value(value)
    assert benchmark(lambda: decode_value(payload)) == value


@pytest.mark.parametrize("payload_size", [16, 4096])
def test_rpc_roundtrip_by_payload(benchmark, payload_size):
    stack = Stack()
    server = stack.server("srv")
    program = RpcProgram(PROG, 1)
    program.register(1, lambda args: len(args))
    server.serve(program)
    client = stack.client()
    argument = "x" * payload_size

    size = benchmark(lambda: client.call(server.address, PROG, 1, 1, argument))
    assert size == payload_size


def test_rpc_null_procedure(benchmark):
    stack = Stack()
    server = stack.server("srv")
    server.serve(RpcProgram(PROG, 1))
    client = stack.client()

    benchmark(lambda: client.call(server.address, PROG, 1, 0))
