"""Property-based equivalence: the generated codec == the closures it replaced.

:func:`_compile` below is the compiled codec as it stood before
``repro.rpc.codec.generate`` (kept verbatim): each layout spec became a
pair of closures that walked a tuple of steps on every value.  The
generated ``enc``/``dec`` pair must be indistinguishable from it: for
any spec and any value, fitting or not, the same bytes or the same
:class:`CodecFallback` decision (or the same other exception); the same
decoded value; and on a damaged body, every truncation and any
single-byte flip, the same exception class with the same message.
"""

import struct
from typing import Any, Callable, Dict, List, Tuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.net.endpoints import Address
from repro.rpc.codec import CodecFallback, CompiledCodec
from repro.rpc.errors import XdrError
from repro.rpc.xdr import (
    get_bool,
    get_count,
    get_fixed,
    get_opaque,
    get_string,
    get_value,
    put_bool,
    put_opaque,
    put_string,
    put_u32,
    put_value,
    to_bool,
)
from repro.sidl import layout
from repro.trader.offers import OFFER_LAYOUT
from tests.test_codec_properties import _same, _spec_values
from tests.test_rpc_xdr import _values

#: Stands in for the magic and fingerprint, which ``CompiledCodec.decode``
#: leaves to the registry to check.
HEADER = b"\x00" * 8


# -- the reference: the closure codec, verbatim ------------------------------

# A compiled spec is a pair of closures:
#   enc(value, out)            append wire chunks for ``value`` to ``out``
#   dec(view, offset) -> (value, offset)
_Encoder = Callable[[Any, List[bytes]], None]
_Decoder = Callable[[memoryview, int], Tuple[Any, int]]

# Packable leaves: (struct format char, to-wire converter, from-wire
# converter).  Converters raise CodecFallback on values that belong to
# the dynamic path so the whole encode can restart as tagged.


def _conv_i64(value: Any) -> int:
    if type(value) is not int:
        raise CodecFallback("not an int")
    return value


def _conv_f64(value: Any) -> float:
    if type(value) is not float:
        raise CodecFallback("not a float")
    return value


def _conv_bool(value: Any) -> int:
    if value is True:
        return 1
    if value is False:
        return 0
    raise CodecFallback("not a bool")


def _compile(spec: tuple) -> Tuple[_Encoder, _Decoder]:
    kind = spec[0]
    if kind == "struct":
        return _compile_struct(spec)
    if kind in ("i64", "f64", "bool", "enum"):
        return _compile_leaf(spec)
    if kind == "string":
        return _compile_string()
    if kind == "bytes":
        return _compile_bytes()
    if kind == "optional":
        return _compile_optional(spec[1])
    if kind == "seq":
        return _compile_seq(spec[1])
    if kind == "void":
        return _compile_void()
    if kind == "any":
        return _compile_any()
    raise ConfigurationError(f"unknown layout spec kind {kind!r}")


def _packable(spec: tuple):
    """``(fmt_char, to_wire, from_wire)`` for a fixed-width leaf, or None."""
    kind = spec[0]
    if kind == "i64":
        return ("q", _conv_i64, None)
    if kind == "f64":
        return ("d", _conv_f64, None)
    if kind == "bool":
        return ("I", _conv_bool, to_bool)
    if kind == "enum":
        labels = spec[1]
        index = {label: position for position, label in enumerate(labels)}

        def to_wire(value: Any, _index=index) -> int:
            try:
                return _index[value]
            except (KeyError, TypeError):
                raise CodecFallback("not an enum label")

        def from_wire(raw: int, _labels=labels) -> str:
            if raw >= len(_labels):
                raise XdrError(f"enum index {raw} out of range")
            return _labels[raw]

        return ("I", to_wire, from_wire)
    return None


def _compile_leaf(spec: tuple) -> Tuple[_Encoder, _Decoder]:
    """A lone fixed-width leaf (inside optional/seq, or at the root)."""
    fmt, to_wire, from_wire = _packable(spec)
    packer = struct.Struct(">" + fmt)

    def enc(value: Any, out: List[bytes]) -> None:
        try:
            out.append(packer.pack(to_wire(value)))
        except struct.error:
            raise CodecFallback("value out of range for the compiled layout")

    def dec(view: memoryview, offset: int) -> Tuple[Any, int]:
        (raw,), offset = get_fixed(packer, view, offset)
        return (raw if from_wire is None else from_wire(raw)), offset

    return enc, dec


def _compile_struct(spec: tuple) -> Tuple[_Encoder, _Decoder]:
    """Compile a record: consecutive fixed-width fields share one Struct."""
    fields = spec[1]
    field_count = len(fields)
    # steps: ("run", Struct, [(name, to_wire)], [(name, from_wire)])
    #      | ("field", name, enc, dec)
    steps: List[tuple] = []
    run: List[Tuple[str, tuple]] = []

    def close_run() -> None:
        if not run:
            return
        fmt = ">" + "".join(packable[0] for __, packable in run)
        packer = struct.Struct(fmt)
        encoders = [(name, packable[1]) for name, packable in run]
        decoders = [(name, packable[2]) for name, packable in run]
        steps.append(("run", packer, encoders, decoders))
        run.clear()

    for name, sub in fields:
        packable = _packable(sub)
        if packable is not None:
            run.append((name, packable))
        else:
            close_run()
            sub_enc, sub_dec = _compile(sub)
            steps.append(("field", name, sub_enc, sub_dec))
    close_run()
    frozen = tuple(steps)

    def enc(value: Any, out: List[bytes]) -> None:
        if type(value) is not dict or len(value) != field_count:
            # Extended values (extra keys from a subtype) and anything
            # that is not a plain record belong to dynamic marshalling.
            raise CodecFallback("value does not match the record layout")
        try:
            for step in frozen:
                if step[0] == "run":
                    __, packer, encoders, __ = step
                    out.append(
                        packer.pack(
                            *[to_wire(value[name]) for name, to_wire in encoders]
                        )
                    )
                else:
                    __, name, sub_enc, __ = step
                    sub_enc(value[name], out)
        except KeyError:
            raise CodecFallback("missing record field")
        except struct.error:
            raise CodecFallback("value out of range for the compiled layout")

    def dec(view: memoryview, offset: int) -> Tuple[Any, int]:
        result: Dict[str, Any] = {}
        for step in frozen:
            if step[0] == "run":
                __, packer, __, decoders = step
                raws, offset = get_fixed(packer, view, offset)
                for (name, from_wire), raw in zip(decoders, raws):
                    result[name] = raw if from_wire is None else from_wire(raw)
            else:
                __, name, __, sub_dec = step
                result[name], offset = sub_dec(view, offset)
        return result, offset

    return enc, dec


def _compile_string() -> Tuple[_Encoder, _Decoder]:
    def enc(value: Any, out: List[bytes]) -> None:
        if type(value) is not str:
            raise CodecFallback("not a string")
        put_string(out, value)

    return enc, get_string


def _compile_bytes() -> Tuple[_Encoder, _Decoder]:
    def enc(value: Any, out: List[bytes]) -> None:
        if not isinstance(value, (bytes, bytearray)):
            raise CodecFallback("not bytes")
        put_opaque(out, bytes(value))

    return enc, get_opaque


def _compile_optional(element: tuple) -> Tuple[_Encoder, _Decoder]:
    sub_enc, sub_dec = _compile(element)

    def enc(value: Any, out: List[bytes]) -> None:
        put_bool(out, value is not None)
        if value is not None:
            sub_enc(value, out)

    def dec(view: memoryview, offset: int) -> Tuple[Any, int]:
        present, offset = get_bool(view, offset)
        return sub_dec(view, offset) if present else (None, offset)

    return enc, dec


def _compile_seq(element: tuple) -> Tuple[_Encoder, _Decoder]:
    sub_enc, sub_dec = _compile(element)

    def enc(value: Any, out: List[bytes]) -> None:
        if not isinstance(value, (list, tuple)):
            raise CodecFallback("not a sequence")
        put_u32(out, len(value))
        for item in value:
            sub_enc(item, out)

    def dec(view: memoryview, offset: int) -> Tuple[Any, int]:
        count, offset = get_count(view, offset)
        items = []
        for __ in range(count):
            item, offset = sub_dec(view, offset)
            items.append(item)
        return items, offset

    return enc, dec


def _compile_any() -> Tuple[_Encoder, _Decoder]:
    """A tagged value inside a compiled body: its nesting is counted from
    the body, so ``MAX_VALUE_DEPTH`` bounds the whole message."""

    def enc(value: Any, out: List[bytes]) -> None:
        put_value(out, value)

    def dec(view: memoryview, offset: int) -> Tuple[Any, int]:
        return get_value(view, offset, 1)

    return enc, dec


def _compile_void() -> Tuple[_Encoder, _Decoder]:
    def enc(value: Any, out: List[bytes]) -> None:
        if value is not None:
            raise CodecFallback("void must be None")

    def dec(view: memoryview, offset: int) -> Tuple[Any, int]:
        return None, offset

    return enc, dec


# -- running both -------------------------------------------------------------


def _outcome(action: Callable[[], Any]):
    """What an action gave: ``("ok", value)`` or ``("raised", class, message)``.
    Every fallback is one decision, whatever its message."""
    try:
        return ("ok", action())
    except CodecFallback:
        return ("fallback",)
    except Exception as exc:  # any other error is compared by class and message
        return ("raised", type(exc), str(exc))


def _encodings(spec, value):
    enc, __ = _compile(spec)

    def reference():
        out: List[bytes] = [HEADER]
        enc(value, out)
        return b"".join(out)

    def generated():
        return HEADER + CompiledCodec(spec).encode(value)[len(HEADER):]

    return _outcome(reference), _outcome(generated)


def _decodings(spec, body):
    __, dec = _compile(spec)
    codec = CompiledCodec(spec)

    def reference():
        view = memoryview(body)
        value, offset = dec(view, len(HEADER))
        if offset != len(view):
            raise XdrError(f"{len(view) - offset} trailing bytes after compiled value")
        return value

    return _outcome(reference), _outcome(lambda: codec.decode(body))


def _agree(left, right):
    if left[0] == right[0] == "ok":
        return _same(left[1], right[1])
    return left == right


def _fitting_body(spec, value):
    reference, generated = _encodings(spec, value)
    assert reference[0] == "ok" and _agree(reference, generated), (reference, generated)
    return generated[1]


# -- values that fit, values that nearly fit, and damaged bodies -------------

OUT_OF_RANGE = 2**63


@st.composite
def _perturbed(draw, spec, value):
    """``value`` with a few of its parts swapped for arbitrary values, a
    key dropped or added, or an int pushed out of range."""
    kind = spec[0]
    choice = draw(st.integers(min_value=0, max_value=9))
    if choice == 0:
        return draw(_values)
    if choice == 1 and kind in ("i64", "any"):
        return OUT_OF_RANGE
    if kind == "struct" and isinstance(value, dict):
        fields = dict(spec[1])
        result = {name: draw(_perturbed(fields[name], item)) for name, item in value.items()}
        if choice == 2 and result:
            result.pop(draw(st.sampled_from(sorted(result))))
        elif choice == 3:
            result[draw(st.text(max_size=3))] = draw(_values)
        return result
    if kind == "seq" and isinstance(value, list):
        return [draw(_perturbed(spec[1], item)) for item in value]
    if kind == "optional" and value is not None:
        return draw(_perturbed(spec[1], value))
    if kind == "any" and choice == 4:
        return {"n": OUT_OF_RANGE}
    return value


@settings(max_examples=300, deadline=None)
@given(_spec_values, st.data())
@example((layout.any_value(), {"k": 1}), None)
@example((layout.struct(a=layout.any_value(), b=layout.i64()), {"a": {1: 2}, "b": 1.5}), None)
@example((layout.struct(a=layout.i64(), b=layout.any_value()), {"a": 1.5, "b": {1: 2}}), None)
@example((layout.seq(layout.any_value()), [{"k": 2**64}, object()]), None)
@example((layout.any_value(), {"k": Address("h", 2**33)}), None)
@example((layout.string(), "\ud800"), None)
@example((layout.seq(layout.enum("a")), ["a", ["a"]]), None)
@example((layout.struct(a=layout.boolean(), b=layout.f64()), {"a": 1, "b": 2.0}), None)
@example((layout.optional(layout.seq(layout.i64())), (1, 2)), None)
@example((layout.octets(), bytearray(b"abcde")), None)
@example((layout.void(), None), None)
@example((OFFER_LAYOUT, {"ref": {}}), None)
def test_generated_encoder_equals_the_closure_encoder(spec_value, data):
    spec, value = spec_value
    if data is not None and data.draw(st.booleans()):
        value = data.draw(_perturbed(spec, value))
    reference, generated = _encodings(spec, value)
    assert _agree(reference, generated), (reference, generated)


@settings(max_examples=200, deadline=None)
@given(_spec_values, st.lists(st.tuples(st.integers(min_value=0), st.integers(1, 255)), max_size=3))
def test_generated_decoder_equals_the_closure_decoder_on_any_damage(spec_value, flips):
    spec, value = spec_value
    body = _fitting_body(spec, value)
    reference, generated = _decodings(spec, body)
    assert reference[0] == "ok" and _agree(reference, generated)
    assert _same(generated[1], value)
    damaged = [body[:cut] for cut in range(len(HEADER), len(body))]
    damaged.append(body + b"\x00" * 4)
    for index, mask in flips if len(body) > len(HEADER) else ():
        flipped = bytearray(body)
        flipped[len(HEADER) + index % (len(body) - len(HEADER))] ^= mask
        damaged.append(bytes(flipped))
    for payload in damaged:
        reference, generated = _decodings(spec, payload)
        assert _agree(reference, generated), (payload, reference, generated)


@pytest.mark.parametrize("compile_", [_compile, CompiledCodec])
def test_an_unknown_spec_kind_is_refused_alike(compile_):
    with pytest.raises(ConfigurationError, match="unknown layout spec kind 'tuple'"):
        compile_(layout.struct(a=layout.seq(("tuple", ()))))
