"""Mutation fuzz of the decode surface (ROADMAP item 5d, first slice).

Start from a *valid* payload — a tagged value, a compiled body, a
compiled IMPORT reply of offer records, a CALL/REPLY/BATCH payload —
and damage it the ways a broken or hostile peer does: cut it at every
offset, flip bytes, splice it onto another payload.  Two things must
hold for whatever comes out: nothing but
:class:`~repro.rpc.errors.XdrError` escapes a decoder (so every
``except XdrError`` boundary in the stack is airtight), and a payload
that does decode never yields a list or dict with more elements than
the payload has bytes (a count word cannot make a decoder allocate).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rpc.codec import CODECS, CodecRegistry, is_compiled
from repro.rpc.errors import XdrError
from repro.rpc.message import decode_messages, encode_batch
from repro.rpc.xdr import decode_value, encode_value
from repro.trader.trader import TRADER_PROGRAM, _PROC_IMPORT
from tests.test_codec_properties import _messages, _offer, _spec_values
from tests.test_rpc_xdr import _values

_flips = st.lists(
    st.tuples(st.integers(min_value=0), st.integers(min_value=1, max_value=255)),
    min_size=1,
    max_size=3,
)
_splice = st.tuples(st.integers(min_value=0), st.integers(min_value=0))


def _bounded(value, limit):
    if isinstance(value, dict):
        assert len(value) <= limit
        for item in value.values():
            _bounded(item, limit)
    elif isinstance(value, list):
        assert len(value) <= limit
        for item in value:
            _bounded(item, limit)


def _survives(decode, payload):
    try:
        value = decode(payload)
    except XdrError:
        return
    _bounded(value, len(payload))


def _torture(decode, payload, others, flips, splice):
    for cut in range(len(payload) + 1):
        _survives(decode, payload[:cut])
    damaged = bytearray(payload)
    for index, mask in flips:
        damaged[index % len(damaged)] ^= mask
    _survives(decode, bytes(damaged))
    head, tail = splice
    for other in others:
        _survives(decode, payload[: head % (len(payload) + 1)] + other[tail % (len(other) + 1) :])


@settings(deadline=None)
@given(_values, _values, _flips, _splice)
def test_tagged_values(value, other, flips, splice):
    _torture(decode_value, encode_value(value), [encode_value(other)], flips, splice)


@settings(deadline=None)
@given(_spec_values, _values, _flips, _splice)
def test_compiled_bodies(spec_value, other, flips, splice):
    spec, value = spec_value
    registry = CodecRegistry()
    registry.register(1, 1, 1, args=spec)
    body = registry.encode_args(1, 1, 1, value)

    def decode(payload):
        return registry.decode_args(1, 1, 1, payload)

    assert decode(body) == value
    # spliced onto a tagged body (the fallback) and onto itself
    _torture(decode, body, [encode_value(other), body], flips, splice)


_fitting_offers = _offer().filter(lambda drawn: not drawn[1]).map(lambda drawn: drawn[0])


@settings(deadline=None)
@given(st.lists(_fitting_offers, min_size=1, max_size=3), _values, _flips, _splice)
def test_compiled_import_replies(offers, other, flips, splice):
    """A reply of compiled offer records, then damaged."""
    body = CODECS.encode_result(
        TRADER_PROGRAM, 1, _PROC_IMPORT, [offer.to_wire() for offer in offers]
    )

    def decode(payload):
        return CODECS.decode_result(TRADER_PROGRAM, 1, _PROC_IMPORT, payload)

    assert is_compiled(body)
    assert decode(body) == [offer.to_wire() for offer in offers]
    _torture(decode, body, [encode_value(other), body], flips, splice)


@settings(deadline=None)
@given(_messages, _messages, _flips, _splice)
def test_call_reply_and_batch_payloads(messages, others, flips, splice):
    _torture(decode_messages, encode_batch(messages), [encode_batch(others)], flips, splice)
