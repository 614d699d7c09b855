"""Property-based tests for the wire fast lane.

Two generators, two invariants:

* **Codec equivalence** — for any layout spec and any value that fits
  it, the compiled encoding decodes back to exactly the value the
  tagged codec round-trips, and the two encodings never get confused
  for one another (the compiled header cannot be a tagged tag word).
* **Batch grammar** — any sequence of RPC messages, concatenated into
  one BATCH payload, decodes back to exactly those messages.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rpc.codec import CompiledCodec, is_compiled
from repro.rpc.message import (
    ReplyStatus,
    RpcCall,
    RpcReply,
    decode_messages,
    encode_batch,
)
from repro.rpc.xdr import decode_value, encode_value
from repro.sidl import layout

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
