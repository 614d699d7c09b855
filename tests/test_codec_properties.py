"""Property-based tests for the wire fast lane.

Three generators, three invariants:

* **Codec equivalence** — for any layout spec and any value that fits
  it, the compiled encoding decodes back to exactly the value the
  tagged codec round-trips, and the two encodings never get confused
  for one another (the compiled header cannot be a tagged tag word).
* **Offer records** — any IMPORT reply, its memoised records spliced
  in, decodes to exactly what the tagged path and ``to_wire`` give; an
  offer that misfits the record layout sends the whole reply tagged.
* **Batch grammar** — any sequence of RPC messages, concatenated into
  one BATCH payload, decodes back to exactly those messages.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rpc.codec import CODECS, CompiledCodec, is_compiled
from repro.rpc.message import (
    ReplyStatus,
    RpcCall,
    RpcReply,
    decode_messages,
    encode_batch,
)
from repro.rpc.xdr import decode_value, encode_value
from repro.sidl import layout
from repro.telemetry.metrics import METRICS
from repro.trader.dynamic import dynamic_property
from repro.trader.offers import ServiceOffer
from repro.trader.trader import TRADER_PROGRAM, _PROC_IMPORT
from tests.test_rpc_xdr import _values

# -- spec/value pair generation ---------------------------------------------
#
# A strategy that draws a layout spec *together with* a strategy for
# values fitting that spec, so every example is an (encodeable) pair.

_ENUM_LABELS = ("alpha", "beta", "gamma")

_FINITE_F64 = st.floats(allow_nan=False, allow_infinity=False, width=64)
_I64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
_TEXT = st.text(max_size=24)
_BLOB = st.binary(max_size=24)


def _leaf_pairs():
    return st.sampled_from(
        [
            (layout.i64(), _I64),
            (layout.f64(), _FINITE_F64),
            (layout.boolean(), st.booleans()),
            (layout.enum(*_ENUM_LABELS), st.sampled_from(_ENUM_LABELS)),
            (layout.string(), _TEXT),
            (layout.octets(), _BLOB),
            (layout.any_value(), _values),
        ]
    )


def _extend(pair_strategy):
    def compose(pair):
        spec, values = pair
        return st.one_of(
            st.just((layout.optional(spec), st.one_of(st.none(), values))),
            st.just((layout.seq(spec), st.lists(values, max_size=4))),
        )

    return pair_strategy.flatmap(compose)


def _struct_pairs(pair_strategy):
    field_names = st.lists(
        st.sampled_from(["a", "b", "c", "d", "e"]),
        min_size=1,
        max_size=4,
        unique=True,
    )

    def compose(args):
        names, pairs = args
        fields = dict(zip(names, (spec for spec, __ in pairs)))
        value_strategy = st.fixed_dictionaries(
            {name: values for name, (__, values) in zip(names, pairs)}
        )
        return st.just((layout.struct(**fields), value_strategy))

    return st.tuples(
        field_names, st.lists(pair_strategy, min_size=4, max_size=4)
    ).flatmap(compose)


_pairs = st.recursive(
    _leaf_pairs(),
    lambda inner: st.one_of(_extend(inner), _struct_pairs(inner)),
    max_leaves=6,
)

_spec_values = _pairs.flatmap(
    lambda pair: st.tuples(st.just(pair[0]), pair[1])
)


@given(_spec_values)
@settings(max_examples=150, deadline=None)
def test_compiled_and_tagged_agree(spec_value):
    spec, value = spec_value
    codec = CompiledCodec(spec)
    compiled = codec.encode(value)
    tagged = encode_value(value)
    assert is_compiled(compiled)
    assert not is_compiled(tagged)
    via_compiled = codec.decode(compiled)
    via_tagged = decode_value(tagged)
    assert _same(via_compiled, via_tagged)
    assert _same(via_compiled, value)


def _same(left, right):
    """Equality that distinguishes 0.0 from -0.0 only by math.isnan-free
    float identity rules (wire codecs preserve the bit pattern)."""
    if isinstance(left, float) and isinstance(right, float):
        return (
            math.copysign(1.0, left) == math.copysign(1.0, right)
            and left == right
        )
    if isinstance(left, list) and isinstance(right, list):
        return len(left) == len(right) and all(
            _same(a, b) for a, b in zip(left, right)
        )
    if isinstance(left, dict) and isinstance(right, dict):
        return left.keys() == right.keys() and all(
            _same(left[key], right[key]) for key in left
        )
    return left == right


# -- offer records in an IMPORT reply ---------------------------------------

_ID = st.text(max_size=16)  # any unicode the wire can carry
_REFS = st.fixed_dictionaries(
    {
        "__cosm__": st.just("service_reference"),
        "service_id": _ID,
        "name": _ID,
        "host": _ID,
        "port": _I64,
        "prog": _I64,
        "vers": _I64,
    }
)
_STAMP = st.floats(allow_nan=False, width=64)
_MARKERS = st.builds(
    dynamic_property, _REFS, _ID, st.dictionaries(_ID, _values, max_size=2)
)
# What the record layout cannot carry: the whole reply must go tagged.
_MISFITS = {
    "ref": lambda offer: offer.ref.update(zone="eu"),
    "exported_at": lambda offer: setattr(offer, "exported_at", 7),
    "expires_at": lambda offer: setattr(offer, "expires_at", -1),
    "lease_seconds": lambda offer: setattr(offer, "lease_seconds", 30),
}


@st.composite
def _offer(draw):
    offer = ServiceOffer(
        offer_id=draw(_ID),
        service_type=draw(_ID),
        ref=draw(_REFS),
        properties=draw(st.dictionaries(_ID, st.one_of(_values, _MARKERS), max_size=4)),
        exported_at=draw(_STAMP),
        expires_at=draw(st.one_of(st.none(), _STAMP)),
        lease_seconds=draw(st.one_of(st.none(), _STAMP)),
    )
    misfit = draw(st.one_of(st.none(), st.sampled_from(sorted(_MISFITS))))
    if misfit is not None:
        _MISFITS[misfit](offer)
    return offer, misfit is not None


@given(st.lists(_offer(), max_size=4))
@settings(max_examples=150, deadline=None)
def test_import_reply_records_round_trip_like_the_tagged_path(drawn):
    offers = [offer for offer, __ in drawn]
    misfits = sum(misfit for __, misfit in drawn)
    wire = [offer.to_wire() for offer in offers]
    fallbacks = METRICS.counter("rpc.codec.fallback", ("result", "encode"))
    body = CODECS.encode_result(TRADER_PROGRAM, 1, _PROC_IMPORT, wire)
    assert is_compiled(body) is not bool(misfits)
    assert METRICS.counter("rpc.codec.fallback", ("result", "encode")) == (
        fallbacks + bool(misfits)
    )
    decoded = CODECS.decode_result(TRADER_PROGRAM, 1, _PROC_IMPORT, body)
    assert _same(decoded, decode_value(encode_value(wire)))
    assert _same(decoded, wire)


# -- the BATCH envelope -----------------------------------------------------

_calls = st.builds(
    RpcCall,
    xid=st.integers(min_value=0, max_value=2**32 - 1),
    prog=st.integers(min_value=0, max_value=2**32 - 1),
    vers=st.integers(min_value=0, max_value=2**32 - 1),
    proc=st.integers(min_value=0, max_value=2**32 - 1),
    body=st.binary(max_size=48),
    deadline=st.one_of(
        st.none(), st.floats(min_value=0.0, max_value=1e9, allow_nan=False)
    ),
    trace_id=st.text(max_size=12),
    hops=st.one_of(st.none(), st.integers(min_value=0, max_value=255)),
)

_replies = st.builds(
    RpcReply,
    xid=st.integers(min_value=0, max_value=2**32 - 1),
    status=st.sampled_from(list(ReplyStatus)),
    body=st.binary(max_size=48),
)

_messages = st.lists(st.one_of(_calls, _replies), min_size=1, max_size=6)


@given(_messages)
@settings(max_examples=150, deadline=None)
def test_batch_decodes_to_the_messages_encoded(messages):
    assert decode_messages(encode_batch(messages)) == messages
