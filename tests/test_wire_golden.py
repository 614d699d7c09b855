"""Golden bytes: the wire format is pinned, byte for byte.

The digest and the hex strings below were produced by the code *before*
the XDR primitives were pulled into one module; they must never change
in a refactor.  A deliberate format change updates them in the same
commit and says so in docs/PROTOCOL.md.

The value generator uses only ``randrange``/``random``/``getrandbits``
of a seeded ``random.Random``, whose sequences are stable across the
supported interpreters (3.9–3.12).
"""

import hashlib
import random

from repro.net.endpoints import Address
from repro.rpc.codec import CompiledCodec
from repro.rpc.codec import CODECS
from repro.rpc.message import ReplyStatus, RpcCall, RpcReply, decode_messages
from repro.rpc.xdr import decode_value, encode_value
from repro.sidl import layout
from repro.trader.offers import ServiceOffer
from repro.trader.trader import TRADER_PROGRAM, _PROC_IMPORT

VALUE_COUNT = 3000
MAX_NESTING = 5

_INT_EDGES = (-(2**63), -(2**63) + 1, -(2**31), -1, 0, 1, 2**31, 2**32, 2**63 - 1)
_ALPHABETS = (
    "abcdefghijklmnopqrstuvwxyz0123456789 _-",
    "äöüßéèñçøåÆŁ",
    "日本語中文한국어",
    "αβγδεζηθ→∑√",
    "\U0001f600\U0001f680\U0001f9ea",
)


def _text(rng: random.Random) -> str:
    alphabet = _ALPHABETS[rng.randrange(len(_ALPHABETS))]
    return "".join(
        alphabet[rng.randrange(len(alphabet))] for __ in range(rng.randrange(12))
    )


def _value(rng: random.Random, depth: int):
    kinds = 9 if depth < MAX_NESTING else 7  # no containers at the floor
    kind = rng.randrange(kinds)
    if kind == 0:
        return None
    if kind == 1:
        return rng.randrange(2) == 1
    if kind == 2:
        if rng.randrange(4) == 0:
            return _INT_EDGES[rng.randrange(len(_INT_EDGES))]
        return rng.getrandbits(64) - 2**63
    if kind == 3:
        return (rng.random() - 0.5) * 10.0 ** rng.randrange(-30, 30)
    if kind == 4:
        return _text(rng)
    if kind == 5:
        return bytes(rng.getrandbits(8) for __ in range(rng.randrange(10)))
    if kind == 6:
        return Address(_text(rng) or "h", rng.randrange(2**32))
    if kind == 7:
        return [_value(rng, depth + 1) for __ in range(rng.randrange(5))]
    return {_text(rng): _value(rng, depth + 1) for __ in range(rng.randrange(5))}


def _tags(value, seen):
    seen.add(type(value).__name__)
    if isinstance(value, (list, tuple)) and not isinstance(value, Address):
        for item in value:
            _tags(item, seen)
    elif isinstance(value, dict):
        for item in value.values():
            _tags(item, seen)


def test_tagged_values_digest():
    rng = random.Random(1994)
    digest = hashlib.sha256()
    seen = set()
    for __ in range(VALUE_COUNT):
        value = _value(rng, 0)
        _tags(value, seen)
        encoded = encode_value(value)
        # canonical: what decodes re-encodes to the same bytes
        assert encode_value(decode_value(encoded)) == encoded
        digest.update(encoded)
    assert seen == {
        "NoneType", "bool", "int", "float", "str", "bytes", "Address", "list", "dict",
    }
    assert digest.hexdigest() == TAGGED_DIGEST


def test_call_with_every_ctx_flag():
    call = RpcCall(
        xid=0x01020304, prog=100400, vers=2, proc=7, body=b"body!",
        deadline=1234.5, trace_id="trace-ü", hops=3, sampled=True,
    )
    assert call.encode().hex() == CALL_HEX
    assert decode_messages(bytes.fromhex(CALL_HEX)) == [call]
    bare = RpcCall(xid=1, prog=2, vers=3, proc=4)
    assert bare.encode().hex() == BARE_CALL_HEX


def test_one_reply_per_status():
    for status in ReplyStatus:
        reply = RpcReply(xid=0xA0 + int(status), status=status, body=b"r" * int(status))
        assert reply.encode().hex() == REPLY_HEX[status.name]
        assert decode_messages(bytes.fromhex(REPLY_HEX[status.name])) == [reply]


COMPILED_CASES = {
    "void": (layout.void(), None),
    "i64": (layout.i64(), -(2**63)),
    "f64": (layout.f64(), 129.5),
    "bool": (layout.boolean(), True),
    "enum": (layout.enum("petrol", "diesel", "electric"), "electric"),
    "string": (layout.string(), "grüße"),
    "bytes": (layout.octets(), b"\x00\x01\x02\x03\x04"),
    "optional": (layout.optional(layout.string()), "x"),
    "seq": (layout.seq(layout.i64()), [1, 2, 3]),
    "struct": (
        layout.struct(
            offer_id=layout.string(),
            price=layout.f64(),
            seats=layout.i64(),
            automatic=layout.boolean(),
            notes=layout.optional(layout.string()),
            tags=layout.seq(layout.string()),
        ),
        {
            "offer_id": "t:Rental:42",
            "price": 49.0,
            "seats": 4,
            "automatic": False,
            "notes": None,
            "tags": ["economy", "city"],
        },
    ),
}


def test_one_compiled_body_per_layout_kind():
    for kind, (spec, value) in COMPILED_CASES.items():
        codec = CompiledCodec(spec)
        assert codec.encode(value).hex() == COMPILED_HEX[kind], kind
        assert codec.decode(bytes.fromhex(COMPILED_HEX[kind])) == value


TAGGED_DIGEST = "aed182bd855562c280271a092b3f68c3591b3bc3a34d33c0f5f39de369633c12"  # 92 564 bytes
CALL_HEX = (
    "01020304000000000001883000000002000000070000000f"  # fixed header, flags 0xF
    "40934a0000000000"  # deadline
    "0000000874726163652dc3bc"  # trace id
    "00000003"  # hops
    "00000001"  # sampled
    "00000005626f647921000000"  # body
)
BARE_CALL_HEX = "00000001000000000000000200000003000000040000000000000000"
REPLY_HEX = {
    "SUCCESS": "000000a0000000010000000000000000",
    "PROG_UNAVAIL": "000000a100000001000000010000000172000000",
    "PROC_UNAVAIL": "000000a200000001000000020000000272720000",
    "GARBAGE_ARGS": "000000a300000001000000030000000372727200",
    "REMOTE_FAULT": "000000a400000001000000040000000472727272",
    "DEADLINE_EXCEEDED": "000000a50000000100000005000000057272727272000000",
    "SHED": "000000a60000000100000006000000067272727272720000",
}
COMPILED_HEX = {
    "void": "534944433c6ed10b",
    "i64": "534944437df97e7d8000000000000000",
    "f64": "534944438cafcca84060300000000000",
    "bool": "53494443e50bb49900000001",
    "enum": "53494443616e9d4a00000002",
    "string": "5349444389139d0c000000076772c3bcc39f6500",
    "bytes": "534944434cc4ed39000000050001020304000000",
    "optional": "53494443d405258e000000010000000178000000",
    "seq": "5349444364a5404600000003000000000000000100000000000000020000000000000003",
    "struct": (
        "53494443e29d4406"
        "0000000b743a52656e74616c3a343200"  # offer_id
        "4048800000000000000000000000000400000000"  # price, seats, automatic: one run
        "00000000"  # notes absent
        "000000020000000765636f6e6f6d79000000000463697479"  # tags
    ),
}


def _ref(name: str, port: int) -> dict:
    return {
        "__cosm__": "service_reference", "service_id": f"cosm:{name}", "name": name,
        "host": "h", "port": port, "prog": 4711, "vers": 1,
    }


def test_compiled_import_reply_of_two_offers():
    """IMPORT answers with compiled offer records."""
    offers = [
        ServiceOffer(
            "t:Rental:1", "Rental", _ref("avis", 2),
            {"ChargePerDay": 49.5, "City": "Hamburg"}, 10.0, 3610.0, 3600.0,
        ),
        ServiceOffer(
            "t:Rental:2", "Rental", _ref("hertz", 3),
            {"ChargePerDay": 80.0, "City": "Bremen"}, 12.5,
        ),
    ]
    wire = [offer.to_wire() for offer in offers]
    body = CODECS.encode_result(TRADER_PROGRAM, 1, _PROC_IMPORT, wire)
    assert body.hex() == IMPORT_REPLY_HEX
    decoded = CODECS.decode_result(TRADER_PROGRAM, 1, _PROC_IMPORT, body)
    assert decoded == wire


_OFFER_PROPERTIES = (
    "00000007" "00000002"  # any: a dict of two entries
    "0000000c436861726765506572446179" "00000003"  # "ChargePerDay": float
)
IMPORT_REPLY_HEX = (
    "53494443ae4a3ed8" "00000002"  # header, two records
    "0000000a743a52656e74616c3a310000" "0000000652656e74616c0000"  # offer_id, type
    "00000011736572766963655f7265666572656e6365000000"  # ref: __cosm__
    "00000009636f736d3a6176697300000000000004617669730000000168000000"  # id, name, host
    "000000000000000200000000000012670000000000000001"  # port, prog, vers: one run
    + _OFFER_PROPERTIES + "4048c00000000000"
    + "0000000443697479" "00000004" "0000000748616d6275726700"  # "City": "Hamburg"
    "4024000000000000"  # exported_at
    "0000000140ac340000000000" "0000000140ac200000000000"  # leased: expires_at, lease
    "0000000a743a52656e74616c3a320000" "0000000652656e74616c0000"
    "00000011736572766963655f7265666572656e6365000000"
    "0000000a636f736d3a686572747a0000" "00000005686572747a000000" "0000000168000000"
    "000000000000000300000000000012670000000000000001"
    + _OFFER_PROPERTIES + "4054000000000000"
    + "0000000443697479" "00000004" "000000064272656d656e0000"  # "City": "Bremen"
    "4029000000000000"  # exported_at
    "00000000" "00000000"  # not leased: both stamps absent
)
