"""Compiled wire codecs: precomputed ``struct`` formats per signature.

The tagged codec (:func:`repro.rpc.xdr.encode_value`) pays for dynamic
marshalling on every call: each leaf carries a tag word, each dict entry
carries its key string, and decoding walks the structure one tagged
primitive at a time.  When the SID pins a signature down statically,
none of that is needed — this module compiles a layout spec
(:mod:`repro.sidl.layout`) into a :class:`CompiledCodec` whose
fixed-layout runs collapse into a single ``Struct.pack`` /
``unpack_from`` and whose string/opaque tails are handled generically.

Negotiation is per ``(prog, vers, proc)`` through the process-global
:data:`CODECS` registry: both peers derive the same layout from the
same SID, so a registered signature means both ends speak it.  Compiled
bodies are self-announcing — an 8-byte header (magic word + layout
fingerprint) that can never collide with a tagged body, whose first
word is a value tag < 16 — so every decode point accepts either form
and the tagged path remains the transparent fallback:

* encode falls back when the value does not fit the static layout
  (extended struct values, out-of-range ints, dynamic content) — this
  is exactly the paper's dynamic-marshalling escape hatch;
* decode falls back whenever the body is tagged, so compiled-codec
  peers interoperate with peers that never negotiated.

A relay answering with another procedure's reply returns it as an
:class:`Encoded` body, which ``encode_result`` writes verbatim only when
it is tagged or carries this procedure's own fingerprint (else it is
decoded under the origin's checks and encoded afresh): the importer's
decoder checks every relayed byte against the layout it negotiated.

Hits and fallbacks are counted per direction in the metrics registry
(``rpc.codec.compiled_hits`` / ``rpc.codec.fallback``); the telemetry
report surfaces them in the wire-path table.
"""

from __future__ import annotations

import struct
import threading
import zlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.rpc.errors import XdrError
from repro.rpc.xdr import (
    decode_value,
    encode_value,
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
from repro.telemetry.metrics import METRICS

__all__ = [
    "CODECS",
    "CodecFallback",
    "CodecRegistry",
    "CompiledCodec",
    "Encoded",
    "MAGIC",
]

#: First word of every compiled body.  Tagged bodies start with a value
#: tag (0..8), so this word is unambiguous at any decode point.
MAGIC = 0x53494443  # "SIDC"

_HEADER = struct.Struct(">II")  # magic, layout fingerprint


class CodecFallback(Exception):
    """The value does not fit the compiled layout; use the tagged path."""


def fingerprint_of(spec: tuple) -> int:
    """Stable 32-bit fingerprint of a layout spec.

    Both peers derive the spec from the same SID; the fingerprint rides
    in the body header so a decoder can prove it holds the *same*
    layout before trusting a single offset.
    """
    return zlib.crc32(repr(spec).encode("utf-8")) & 0xFFFFFFFF


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


class CompiledCodec:
    """One layout spec compiled to pack/unpack closures plus its header."""

    def __init__(self, spec: tuple) -> None:
        self._enc, self._dec = _compile(spec)
        self.spec = spec
        self.fingerprint = fingerprint_of(spec)
        self._header = _HEADER.pack(MAGIC, self.fingerprint)

    def encode(self, value: Any) -> bytes:
        """Compiled wire bytes, or :class:`CodecFallback` if unfit."""
        out: List[bytes] = [self._header]
        self._enc(value, out)
        return b"".join(out)

    def decode(self, data) -> Any:
        """Decode a compiled body (header verified by the registry)."""
        view = memoryview(data)
        value, offset = self._dec(view, _HEADER.size)
        if offset != len(view):
            raise XdrError(
                f"{len(view) - offset} trailing bytes after compiled value"
            )
        return value


@dataclass(frozen=True)
class Encoded:
    """A SUCCESS result body kept as the peer's procedure encoded it: a
    relay returns this from a handler in place of the decoded value."""

    body: bytes
    prog: int
    vers: int
    proc: int

    def decode(self) -> Any:
        return CODECS.decode_result(self.prog, self.vers, self.proc, self.body)


def is_compiled(body) -> bool:
    """True when ``body`` carries the compiled-codec header."""
    return len(body) >= _HEADER.size and _HEADER.unpack_from(body, 0)[0] == MAGIC


class CodecRegistry:
    """Per-``(prog, vers, proc)`` codec negotiation with tagged fallback.

    ``encode_args``/``decode_args`` cover CALL bodies and
    ``encode_result``/``decode_result`` cover SUCCESS reply bodies; all
    four degrade to the tagged codec when no signature is registered,
    when the value needs dynamic marshalling, or when the peer sent a
    tagged body.  Registration is idempotent for an identical spec and
    refuses silent redefinition otherwise.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._codecs: Dict[Tuple[int, int, int, str], CompiledCodec] = {}

    def register(
        self,
        prog: int,
        vers: int,
        proc: int,
        args: Optional[tuple] = None,
        result: Optional[tuple] = None,
    ) -> None:
        """Negotiate compiled layouts for one procedure.

        ``args`` describes the CALL body, ``result`` the SUCCESS reply
        body; either may be ``None`` to keep that direction tagged.
        """
        with self._lock:
            for direction, spec in (("args", args), ("result", result)):
                if spec is None:
                    continue
                key = (prog, vers, proc, direction)
                existing = self._codecs.get(key)
                if existing is not None:
                    if existing.spec == spec:
                        continue
                    raise ConfigurationError(
                        f"codec for prog={prog} vers={vers} proc={proc} "
                        f"{direction} already registered with a different layout"
                    )
                self._codecs[key] = CompiledCodec(spec)

    def register_operation(self, prog: int, vers: int, proc: int, operation) -> bool:
        """Derive and register layouts from a SIDL operation signature.

        Returns ``False`` (registering nothing) when the signature has
        no static layout — the tagged path simply continues to serve it.
        """
        from repro.sidl.layout import SidlLayoutError, operation_layouts

        try:
            args, result = operation_layouts(operation)
        except SidlLayoutError:
            return False
        self.register(prog, vers, proc, args=args, result=result)
        return True

    def lookup(self, prog: int, vers: int, proc: int, direction: str):
        return self._codecs.get((prog, vers, proc, direction))

    def negotiated(self, prog: int, vers: int, proc: int) -> bool:
        """True when either direction of the procedure is compiled."""
        return (
            self.lookup(prog, vers, proc, "args") is not None
            or self.lookup(prog, vers, proc, "result") is not None
        )

    def clear(self) -> None:
        with self._lock:
            self._codecs.clear()

    # -- encode/decode boundaries -----------------------------------------

    def _encode(self, codec: Optional[CompiledCodec], value: Any, direction: str) -> bytes:
        if codec is not None:
            try:
                body = codec.encode(value)
            except CodecFallback:
                METRICS.inc("rpc.codec.fallback", (direction, "encode"))
            else:
                METRICS.inc("rpc.codec.compiled_hits", (direction, "encode"))
                return body
        return encode_value(value)

    def _decode(self, codec: Optional[CompiledCodec], body, direction: str) -> Any:
        if is_compiled(body):
            (__, fingerprint) = _HEADER.unpack_from(body, 0)
            if codec is None:
                raise XdrError(
                    f"compiled {direction} body for an unnegotiated signature "
                    f"(fingerprint {fingerprint:#010x})"
                )
            if fingerprint != codec.fingerprint:
                raise XdrError(
                    f"compiled {direction} body fingerprint {fingerprint:#010x} "
                    f"does not match the negotiated layout "
                    f"{codec.fingerprint:#010x}"
                )
            value = codec.decode(body)
            METRICS.inc("rpc.codec.compiled_hits", (direction, "decode"))
            return value
        if codec is not None:
            # Negotiated signature, tagged body: the peer fell back to
            # dynamic marshalling (or never negotiated) — interop intact.
            METRICS.inc("rpc.codec.fallback", (direction, "decode"))
        return decode_value(body)

    def encode_args(self, prog: int, vers: int, proc: int, value: Any) -> bytes:
        return self._encode(self.lookup(prog, vers, proc, "args"), value, "args")

    def decode_args(self, prog: int, vers: int, proc: int, body) -> Any:
        return self._decode(self.lookup(prog, vers, proc, "args"), body, "args")

    def encode_result(self, prog: int, vers: int, proc: int, value: Any) -> bytes:
        codec = self.lookup(prog, vers, proc, "result")
        if type(value) is Encoded:
            body = value.body
            if not is_compiled(body) or (
                codec is not None
                and _HEADER.unpack_from(body, 0)[1] == codec.fingerprint
            ):
                return body
            value = self.decode_result(value.prog, value.vers, value.proc, body)
        return self._encode(codec, value, "result")

    def decode_result(self, prog: int, vers: int, proc: int, body) -> Any:
        return self._decode(self.lookup(prog, vers, proc, "result"), body, "result")


#: The process-global registry every client and server consults.  Both
#: sides of a connection derive signatures from the same SID, so a
#: registration here is the negotiation.
CODECS = CodecRegistry()
