"""Drift guard: one definition of "malformed" for all three decoders.

The tagged codec, the compiled layouts and the CALL/REPLY framer read
the wire through the same primitives of :mod:`repro.rpc.xdr`, so for
each rule of docs/PROTOCOL.md §2 the same kind of damage must raise the
same exception class from each of them — ``XdrTruncated`` where the
data ends early, plain ``XdrError`` where it is wrong.  A row that
starts failing means a decoder grew a private copy of a rule again.
"""

import pathlib
import re
import struct

import pytest

import repro
from repro.net.endpoints import Address
from repro.rpc.codec import CodecRegistry, CompiledCodec, Encoded
from repro.rpc.errors import XdrError, XdrTruncated
from repro.rpc.message import ReplyStatus, RpcCall, RpcReply, decode_message, decode_messages
from repro.rpc.xdr import MAX_VALUE_DEPTH, decode_value, encode_value
from repro.sidl import layout

BAD_UTF8 = b"\xff\xfe"
HEADER = 8  # compiled bodies open with magic + fingerprint


def _compiled(spec, value):
    """``(decode, well-formed body)`` of one compiled layout."""
    codec = CompiledCodec(spec)
    return codec.decode, codec.encode(value)


def _poke(data: bytes, index: int, value: int) -> bytes:
    damaged = bytearray(data)
    damaged[index] = value
    return bytes(damaged)


def _word(data: bytes, offset: int, value: int) -> bytes:
    return data[:offset] + struct.pack(">I", value) + data[offset + 4 :]


RECORD = layout.struct(n=layout.i64(), flag=layout.boolean(), name=layout.string())
RECORD_VALUE = {"n": 7, "flag": True, "name": "abcde"}
CALL = RpcCall(9, 100400, 1, 3, b"xyz", deadline=2.5, trace_id="abcde", hops=2, sampled=True)
CALL_BYTES = CALL.encode()
TRACE_AT = 24 + 8  # fixed header, deadline
REPLY_BYTES = RpcReply(9, ReplyStatus.SUCCESS, b"xyz").encode()

# (rule, decoder, damaged payload, exception class) — "abcde" occupies
# length word + 5 bytes + 3 bytes of padding wherever it is encoded.
ROWS = []


def row(rule, decoder, payload, expected):
    ROWS.append(pytest.param(decoder, payload, expected, id=f"{rule}-{len(ROWS)}"))


# -- read past the end ------------------------------------------------------
for value in ("abcde", b"abcde", 7, 2.5, True, [1, 2], {"k": 1}, Address("h", 1)):
    row("truncated:tagged", decode_value, encode_value(value)[:-1], XdrTruncated)
row("truncated:tagged", decode_value, b"\x00\x00", XdrTruncated)
for spec, value in (
    (layout.string(), "abcde"),
    (layout.octets(), b"abcde"),
    (layout.optional(layout.i64()), 7),
    (layout.optional(layout.i64()), None),
    (layout.seq(layout.i64()), [1, 2]),
    (layout.i64(), 7),
    (RECORD, RECORD_VALUE),
):
    decode, body = _compiled(spec, value)
    row("truncated:compiled", decode, body[:-1], XdrTruncated)
decode, body = _compiled(RECORD, RECORD_VALUE)
row("truncated:compiled", decode, body[: HEADER + 10], XdrTruncated)  # inside the run
for cut in (5, 30, TRACE_AT + 6, len(CALL_BYTES) - 1):
    row("truncated:framer", decode_messages, CALL_BYTES[:cut], XdrTruncated)
row("truncated:framer", decode_messages, REPLY_BYTES[:-1], XdrTruncated)
row("truncated:framer", decode_messages, REPLY_BYTES + CALL_BYTES[:9], XdrTruncated)

# -- non-zero opaque / string padding ---------------------------------------
for value in ("abcde", b"abcde", {"abcde": None}):
    damaged = _poke(encode_value(value), 4 + (4 if isinstance(value, dict) else 0) + 4 + 5, 1)
    row("padding:tagged", decode_value, damaged, XdrError)
damaged = _poke(encode_value(Address("abcde", 1)), 4 + 4 + 7, 1)
row("padding:tagged", decode_value, damaged, XdrError)
for spec, value in ((layout.string(), "abcde"), (layout.octets(), b"abcde")):
    decode, body = _compiled(spec, value)
    row("padding:compiled", decode, _poke(body, len(body) - 1, 1), XdrError)
decode, body = _compiled(RECORD, RECORD_VALUE)
row("padding:compiled", decode, _poke(body, len(body) - 2, 1), XdrError)
row("padding:framer", decode_messages, _poke(CALL_BYTES, TRACE_AT + 4 + 5, 1), XdrError)
row("padding:framer", decode_messages, _poke(CALL_BYTES, len(CALL_BYTES) - 1, 1), XdrError)
row("padding:framer", decode_messages, _poke(REPLY_BYTES, len(REPLY_BYTES) - 1, 1), XdrError)

# -- invalid UTF-8 ----------------------------------------------------------
for value in ("ab", {"ab": 1}, Address("ab", 1), ["x", "ab"]):
    row("utf8:tagged", decode_value, encode_value(value).replace(b"ab", BAD_UTF8), XdrError)
for spec, value in (
    (layout.string(), "ab"),
    (layout.optional(layout.string()), "ab"),
    (layout.seq(layout.string()), ["x", "ab"]),
    (RECORD, dict(RECORD_VALUE, name="ab")),
):
    decode, body = _compiled(spec, value)
    row("utf8:compiled", decode, body[:HEADER] + body[HEADER:].replace(b"ab", BAD_UTF8), XdrError)
row(
    "utf8:framer", decode_messages,
    RpcCall(9, 1, 1, 1, b"", trace_id="ab").encode().replace(b"ab", BAD_UTF8), XdrError,
)

# -- bool / optional flag outside {0, 1} ------------------------------------
row("bool:tagged", decode_value, _word(encode_value(True), 4, 2), XdrError)
row("bool:tagged", decode_value, _word(encode_value([False]), 12, 0xFFFFFFFF), XdrError)
decode, body = _compiled(layout.boolean(), True)
row("bool:compiled", decode, _word(body, HEADER, 2), XdrError)
decode, body = _compiled(RECORD, RECORD_VALUE)
row("bool:compiled", decode, _word(body, HEADER + 8, 2), XdrError)  # inside the run
decode, body = _compiled(layout.optional(layout.i64()), 7)
row("bool:compiled", decode, _word(body, HEADER, 2), XdrError)  # the presence flag

# -- element count larger than the payload ----------------------------------
for value in ([1, 2], {"k": 1}, []):
    row("count:tagged", decode_value, _word(encode_value(value), 4, 0xFFFFFFFF), XdrTruncated)
row("count:tagged", decode_value, _word(encode_value([[1]]), 12, 1000), XdrTruncated)
decode, body = _compiled(layout.seq(layout.i64()), [1, 2])
row("count:compiled", decode, _word(body, HEADER, 0xFFFFFFFF), XdrTruncated)
row("count:compiled", decode, _word(body, HEADER, len(body) + 1), XdrTruncated)

# -- nesting, trailing bytes, unknown tag / status / kind --------------------
deep = "leaf"
for __ in range(MAX_VALUE_DEPTH + 1):
    deep = [deep]
row("nesting:tagged", decode_value, encode_value(deep), XdrError)
row("trailing:tagged", decode_value, encode_value(7) + b"\x00\x00\x00\x00", XdrError)
decode, body = _compiled(RECORD, RECORD_VALUE)
row("trailing:compiled", decode, body + b"\x00\x00\x00\x00", XdrError)
row("trailing:framer", decode_message, CALL_BYTES + REPLY_BYTES, XdrError)
row("unknown:tagged", decode_value, _word(encode_value(7), 0, 9), XdrError)
row("unknown:tagged", decode_value, _word(encode_value(7), 0, 0x53494443), XdrError)
row("unknown:framer", decode_messages, _word(CALL_BYTES, 4, 2), XdrError)
row("unknown:framer", decode_messages, _word(REPLY_BYTES, 8, 7), XdrError)
row("unknown:framer", decode_messages, b"", XdrError)

# -- the same rules inside an ``any`` leaf: a tagged value in a compiled body -
# (appended, so the ids above keep their numbers).  In ANY_RECORD's body
# the name's length word sits at 8, the dict's tag word at 16 and its
# count at 20, "abcde" at 28..33 (padding to 36), the list's count at 40,
# the int's tag at 44, and "ab" at 64..66 (padding to 68).
ANY_RECORD = layout.struct(name=layout.string(), props=layout.any_value())
ANY_VALUE = {"name": "x", "props": {"abcde": [7, "ab"]}}
decode, body = _compiled(ANY_RECORD, ANY_VALUE)
for cut in (10, 18, 30, 50, len(body) - 1):
    row("truncated:compiled", decode, body[:cut], XdrTruncated)
row("padding:compiled", decode, _poke(body, 34, 1), XdrError)  # after a dict key
row("padding:compiled", decode, _poke(body, len(body) - 1, 1), XdrError)  # after a string
row("count:compiled", decode, _word(body, 20, 0xFFFFFFFF), XdrTruncated)  # the dict's
row("count:compiled", decode, _word(body, 40, 1000), XdrTruncated)  # the list's
row("unknown:compiled", decode, _word(body, 16, 9), XdrError)  # the any leaf's tag
row("unknown:compiled", decode, _word(body, 44, 0x53494443), XdrError)  # a nested tag
for props in ({"k": ["ab"]}, {"ab": 1}):
    decode, body = _compiled(ANY_RECORD, dict(ANY_VALUE, props=props))
    row("utf8:compiled", decode, body[:HEADER] + body[HEADER:].replace(b"ab", BAD_UTF8), XdrError)
# Nesting counts from the compiled body: one level less than ``deep``
# fits a tagged body, but not an ``any`` leaf, which sits one level down.
decode, body = _compiled(layout.any_value(), deep[0])
row("nesting:compiled", decode, body, XdrError)
decode, body = _compiled(layout.seq(ANY_RECORD), [dict(ANY_VALUE, props=deep[0])])
row("nesting:compiled", decode, body, XdrError)


@pytest.mark.parametrize("decoder, payload, expected", ROWS)
def test_damage_raises_the_same_class_from_every_decoder(decoder, payload, expected):
    with pytest.raises(XdrError) as excinfo:
        decoder(payload)
    assert type(excinfo.value) is expected, excinfo.value
    if expected is XdrTruncated:
        assert re.search(r"offset \d+", str(excinfo.value))


def test_every_rule_is_checked_against_every_decoder_that_has_it():
    covered = {param.id.rsplit("-", 1)[0] for param in ROWS}
    assert covered == {
        f"{rule}:{decoder}"
        for rule, decoders in {
            "truncated": ("tagged", "compiled", "framer"),
            "padding": ("tagged", "compiled", "framer"),
            "utf8": ("tagged", "compiled", "framer"),
            "bool": ("tagged", "compiled"),  # the framer's is below
            "count": ("tagged", "compiled"),  # the framer has no counts
            "nesting": ("tagged", "compiled"),  # compiled: inside an any leaf
            "trailing": ("tagged", "compiled", "framer"),
            "unknown": ("tagged", "compiled", "framer"),  # compiled: ditto
        }.items()
        for decoder in decoders
    }


def test_a_tagged_body_one_level_shallower_still_decodes():
    """The nesting rows fail for depth, not for damage."""
    assert decode_value(encode_value(deep[0])) == deep[0]
    decode, body = _compiled(ANY_RECORD, dict(ANY_VALUE, props=deep[0][0]))
    assert decode(body)["props"] == deep[0][0]


def test_truncation_text_names_offset_wanted_and_have():
    with pytest.raises(XdrTruncated, match="offset 8: wanted 8 bytes, have 4"):
        decode_value(encode_value("abcde")[:-4])
    decode, body = _compiled(layout.string(), "abcde")
    with pytest.raises(XdrTruncated, match="offset 12: wanted 8 bytes, have 4"):
        decode(body[:-4])
    with pytest.raises(XdrTruncated, match="offset 24: wanted 8 bytes, have 3"):
        decode_messages(CALL_BYTES[:27])


def test_sampled_stays_lenient_for_mixed_version_peers():
    """The one word that is not a strict bool: any non-zero is "sampled"."""
    sampled_at = TRACE_AT + 12 + 4
    assert decode_messages(_word(CALL_BYTES, sampled_at, 7)) == [CALL]


def test_zero_width_seq_elements_stay_decodable():
    """Why the count bound is the payload length, not the remainder."""
    decode, body = _compiled(layout.seq(layout.struct()), [{}, {}, {}])
    assert decode(body) == [{}, {}, {}]


BAD_HELLOS = {
    "letters": b"abc", "empty": b"", "mixed": b"12a", "negative": b"-1", "space": b" 80",
    "plus": b"+80", "underscore": b"8_0", "too-big": b"65536", "six-digits": b"000080",
    "digit-bomb": b"9" * 5000, "fullwidth": "８０".encode(),
}


@pytest.mark.parametrize("payload", list(BAD_HELLOS.values()), ids=list(BAD_HELLOS))
def test_hello_is_ascii_decimal_port_or_malformed(payload):
    from repro.rpc.xdr import parse_hello

    with pytest.raises(XdrError, match="hello"):
        parse_hello(payload)
    assert parse_hello(b"0") == 0 and parse_hello(b"65535") == 65535


def test_only_three_modules_know_struct():
    """``struct`` marks a module that lays bytes out by hand."""
    root = pathlib.Path(repro.__file__).parent
    users = {
        str(path.relative_to(root))
        for path in root.rglob("*.py")
        if re.search(r"^\s*(import struct|from struct import)", path.read_text(), re.M)
    }
    assert users == {"rpc/xdr.py", "rpc/codec.py", "rpc/message.py"}


# -- a relayed body (``Encoded``): forwarded only under its own fingerprint ---
# A router that relays one shard's IMPORT reply hands the server the bytes
# the shard sent.  ``encode_result`` may write them verbatim only where
# the importer's decoder will check them against the layout it negotiated.
RELAY_PROG = 940300
OTHER = layout.struct(x=layout.i64())
RELAY = CodecRegistry()
RELAY.register(RELAY_PROG, 1, 1, result=RECORD)  # the answering procedure
RELAY.register(RELAY_PROG, 1, 2, result=RECORD)  # a shard's: same layout
RELAY.register(RELAY_PROG, 1, 3, result=OTHER)  # a shard's: another layout
ORIGIN_BODIES = {
    "tagged": (2, encode_value(RECORD_VALUE)),
    "fingerprint": (2, CompiledCodec(RECORD).encode(RECORD_VALUE)),
    "foreign": (3, CompiledCodec(OTHER).encode({"x": 7})),
    "foreign-to-both": (2, CompiledCodec(OTHER).encode({"x": 7})),
}


@pytest.mark.parametrize("kind", list(ORIGIN_BODIES))
def test_a_relayed_body_passes_through_only_where_the_importer_checks_it(kind):
    origin, body = ORIGIN_BODIES[kind]
    relayed = Encoded(body, RELAY_PROG, 1, origin)
    if kind == "foreign-to-both":
        with pytest.raises(XdrError, match="fingerprint") as excinfo:
            RELAY.encode_result(RELAY_PROG, 1, 1, relayed)
        assert type(excinfo.value) is XdrError
        return
    written = RELAY.encode_result(RELAY_PROG, 1, 1, relayed)
    if kind == "foreign":
        # decoded under the origin's layout, encoded afresh under ours
        assert written != body
        assert RELAY.decode_result(RELAY_PROG, 1, 1, written) == {"x": 7}
    else:
        assert written is body
        assert RELAY.decode_result(RELAY_PROG, 1, 1, written) == RECORD_VALUE


def test_a_truncated_single_owner_reply_reaches_the_importer_as_xdr_truncated(
    monkeypatch,
):
    """The router relays a single owner's reply undecoded, so damage is
    found where it is decoded — at the importer, as the same class the
    decoder raises on the bytes themselves — in one attempt, with the
    shard's breaker untouched."""
    from repro.naming.refs import ServiceRef
    from repro.net import SimNetwork
    from repro.rpc.client import RpcClient
    from repro.rpc.codec import CODECS, is_compiled
    from repro.rpc.server import RpcServer
    from repro.rpc.transport import SimTransport
    from repro.sidl.types import DOUBLE, InterfaceType, LONG, OperationType
    from repro.trader.service_types import ServiceType
    from repro.trader.sharding import TraderShard, build_router
    from repro.trader.trader import (
        _PROC_IMPORT, TRADER_PROGRAM, ImportRequest, TraderClient, TraderService,
    )

    net = SimNetwork(seed=7)
    router = build_router(
        ["s0"], clock=lambda: net.clock.now, router_id="r", offer_prefix="m",
        node=lambda name: SimTransport(net, name),
    )
    front = TraderService(RpcServer(SimTransport(net, "front")), trader=router)
    importer = RpcClient(SimTransport(net, "cli"), timeout=0.5, retries=2)
    stub = TraderClient(importer, front.address)
    stub.add_type(ServiceType(
        "Bike", InterfaceType("I", [OperationType("Ride", [], LONG)]),
        [("ChargePerDay", DOUBLE)],
    ))
    stub.export(
        "Bike", ServiceRef.create("bike", Address("h", 1), 1), {"ChargePerDay": 5.0}
    )

    key = (TRADER_PROGRAM, 1, _PROC_IMPORT)
    answer = TraderShard.import_wire
    damaged = []

    def truncated(shard, request_wire, now=0.0, ctx=None):
        body = CODECS.encode_result(*key, answer(shard, request_wire, now, ctx))
        damaged.append(body[:-1])
        return Encoded(damaged[-1], *key)

    monkeypatch.setattr(TraderShard, "import_wire", truncated)
    with pytest.raises(XdrError) as at_importer:
        stub.import_(ImportRequest("Bike", "", "min ChargePerDay", 1))
    assert len(damaged) == 1 and is_compiled(damaged[0])
    with pytest.raises(XdrError) as decoded_here:
        CODECS.decode_result(*key, damaged[0])
    assert type(at_importer.value) is type(decoded_here.value) is XdrTruncated
    assert importer.retransmissions == 0
    assert router.handle("s0").breaker.state_name == "closed"
