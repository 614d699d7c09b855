"""Compiled wire codecs: one generated encoder and decoder per signature.

The tagged codec (:func:`repro.rpc.xdr.encode_value`) pays for dynamic
marshalling on every call: each leaf carries a tag word, each dict entry
carries its key string, and decoding walks the structure one tagged
primitive at a time.  When the SID pins a signature down statically,
none of that is needed — :func:`generate` turns a layout spec
(:mod:`repro.sidl.layout`) into the Python source of two straight-line
functions, ``enc(value, out)`` and ``dec(view, offset)``, and
:class:`CompiledCodec` runs them.  Every field, string, flag and
fixed-width run (consecutive fixed-width struct fields share one
``Struct`` call) is inlined in spec order, each ``seq`` is a plain loop,
and an ``any`` leaf holding a dict of ``str``/``float``/``int`` values
is read and written in place.  The source holds no text of the spec:
field names, label tables and packers are constants ``kN``, and
:func:`repro.gen.build` runs the source without builtins beyond
``_RUNTIME``, one code object per layout shape.  The
decoder reads a ``bytes`` body; wherever it meets damage it re-reads
that offset through the primitive of :mod:`repro.rpc.xdr`, which raises
the rule's own error (docs/PROTOCOL.md §2).

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
from repro.gen import MAX_INDENT, Source, build
from repro.rpc.errors import XdrError
from repro.rpc.xdr import (
    _HYPER,
    _PADDING,
    _TAG_DICT,
    _TAG_FLOAT,
    _TAG_INT,
    _TAG_STRING,
    _TAGGED_DOUBLE,
    _TAGGED_HYPER,
    DOUBLE,
    decode_value,
    encode_value,
    get_count,
    get_fixed,
    get_opaque,
    get_string,
    get_u32,
    get_value,
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


# -- the code generator -----------------------------------------------------

#: Struct format of each fixed-width leaf kind.
_FIXED = {"i64": "q", "f64": "d", "bool": "I", "enum": "I"}
_U32 = struct.Struct(">I")
_PAIR = struct.Struct(">II")  # a tag word and a length or count
#: All that generated code reads besides its constants ``kN``.
_RUNTIME = {
    "type": type, "len": len, "range": range, "isinstance": isinstance,
    "bytes": bytes, "dict": dict, "str": str, "int": int, "float": float,
    "SEQUENCE": (list, tuple), "OPAQUE": (bytes, bytearray), "KeyError": KeyError,
    "TypeError": TypeError, "UnicodeDecodeError": UnicodeDecodeError, "SE": struct.error,
    "Fallback": CodecFallback, "XdrError": XdrError, "PAD": _PADDING,
    "TRUE": _U32.pack(1), "FALSE": _U32.pack(0), "u32": _U32.pack, "pair": _PAIR.pack,
    "tagged_int": _TAGGED_HYPER.pack, "tagged_float": _TAGGED_DOUBLE.pack,
    "read_u32": _U32.unpack_from, "read_pair": _PAIR.unpack_from,
    "read_int": _HYPER.unpack_from, "read_float": DOUBLE.unpack_from,
    "put_u32": put_u32, "put_value": put_value, "get_value": get_value, "get_u32": get_u32,
    "get_count": get_count, "get_fixed": get_fixed, "get_string": get_string,
    "get_opaque": get_opaque, "to_bool": to_bool,
}


def generate(spec: tuple) -> Tuple[Callable, Callable]:
    """``spec``'s generated ``enc(value, out)`` and ``dec(view, offset)``;
    a :class:`ConfigurationError` for a spec kind it does not know."""
    source = _Source()
    namespace = build(source.module(spec), _RUNTIME, source.constants)
    return namespace["enc"], namespace["dec"]


class _Source(Source):
    """The grammar of one layout's ``enc`` and ``dec``, helpers first."""

    def module(self, spec: tuple) -> str:
        self.coder("enc", spec, encoding=True)
        self.coder("dec", spec, encoding=False)
        return self.text()

    def coder(self, name: str, spec: tuple, encoding: bool) -> str:
        """Write the function ``name``, ``spec``'s encoder or decoder."""
        line = self.line
        if encoding:  # a misfit anywhere below becomes one fallback
            with self.function(f"{name}(v, out)"):
                line(1, "w = out.append")
                line(1, "try:")
                self.encode(spec, "v", 2)
                line(1, "except KeyError:")
                line(2, 'raise Fallback("missing record field") from None')
                line(1, "except SE:")
                line(2, 'raise Fallback("value out of range for the compiled layout") from None')
        else:
            value = self.temp()
            with self.function(f"{name}(view, o)"):
                line(1, "L = len(view)")
                self.decode(spec, value, 1)
                line(1, f"return {value}, o")
        return name

    def helper(self, spec: tuple, encoding: bool) -> str:
        return self.coder(self.temp().replace("x", "enc" if encoding else "dec"), spec, encoding)

    # -- encoding: statements appending the wire form of local ``value`` ----

    def encode(self, spec: tuple, value: str, indent: int) -> None:
        kind, line = spec[0], self.line
        if kind in ("struct", "seq", "optional") and indent > MAX_INDENT:
            line(indent, f"{self.helper(spec, True)}({value}, out)")
        elif kind == "struct":
            line(indent, f"if type({value}) is not dict or len({value}) != {len(spec[1])}:")
            # Extended values (extra keys from a subtype) and anything
            # that is not a plain record belong to dynamic marshalling.
            line(indent + 1, 'raise Fallback("value does not match the record layout")')
            run: List[Tuple[tuple, str]] = []
            for name, sub in spec[1]:
                if sub[0] not in _FIXED:
                    self.pack(run, indent)
                field = self.temp()
                line(indent, f"{field} = {value}[{self.bind(name)}]")
                if sub[0] in _FIXED:
                    self.to_wire(sub, field, indent)
                    run.append((sub, field))
                else:
                    self.encode(sub, field, indent)
            self.pack(run, indent)
        elif kind in _FIXED:
            self.to_wire(spec, value, indent)
            self.pack([(spec, value)], indent)
        elif kind in ("string", "bytes"):
            test = f"type({value}) is not str" if kind == "string" else (
                f"not isinstance({value}, OPAQUE)")
            line(indent, f"if {test}:")
            line(indent + 1, f'raise Fallback("not {"a string" if kind == "string" else kind}")')
            data = f'{value}.encode("utf-8")' if kind == "string" else f"bytes({value})"
            self.opaque(data, "u32(n)", indent)
        elif kind == "optional":
            line(indent, f"if {value} is None:")
            line(indent + 1, "w(FALSE)")
            line(indent, "else:")
            line(indent + 1, "w(TRUE)")
            self.encode(spec[1], value, indent + 1)
        elif kind == "seq":
            line(indent, f"if not isinstance({value}, SEQUENCE):")
            line(indent + 1, 'raise Fallback("not a sequence")')
            line(indent, f"put_u32(out, len({value}))")
            item = self.temp()
            line(indent, f"for {item} in {value}:")
            self.encode(spec[1], item, indent + 1)
        elif kind == "void":
            line(indent, f"if {value} is not None:")
            line(indent + 1, 'raise Fallback("void must be None")')
        elif kind == "any":
            self.encode_any(value, indent)
        else:
            raise ConfigurationError(f"unknown layout spec kind {kind!r}")

    def to_wire(self, spec: tuple, value: str, indent: int) -> None:
        """Check a fixed-width leaf, leaving the number it packs as."""
        kind, line = spec[0], self.line
        if kind in ("i64", "f64"):
            python = "int" if kind == "i64" else "float"
            line(indent, f"if type({value}) is not {python}:")
            line(indent + 1, f'raise Fallback("not a{"n" if kind == "i64" else ""} {python}")')
        elif kind == "bool":
            line(indent, f"if {value} is True:")
            line(indent + 1, f"{value} = 1")
            line(indent, f"elif {value} is False:")
            line(indent + 1, f"{value} = 0")
            line(indent, "else:")
            line(indent + 1, 'raise Fallback("not a bool")')
        else:
            index = self.bind({label: position for position, label in enumerate(spec[1])})
            self.attempt(indent, f"{value} = {index}[{value}]", "(KeyError, TypeError)",
                         'raise Fallback("not an enum label") from None')

    def pack(self, run: List[Tuple[tuple, str]], indent: int) -> None:
        if run:
            packer = struct.Struct(">" + "".join(_FIXED[spec[0]] for spec, __ in run))
            values = ", ".join(value for __, value in run)
            self.line(indent, f"w({self.bind(packer.pack)}({values}))")
            run.clear()

    def opaque(self, data: str, head: str, indent: int) -> None:
        """Append ``head`` (naming the length ``n``), the bytes and their pad."""
        self.line(indent, f"b = {data}", "n = len(b)", f"w({head})", "w(b)", "w(PAD[n & 3])")

    def encode_any(self, value: str, indent: int) -> None:
        """A dict of str/float/int values in place; anything else, and any
        other entry, through ``put_value``."""
        line, body = self.line, indent + 2
        line(indent, f"if type({value}) is dict:")
        line(indent + 1, f"w(pair({_TAG_DICT}, len({value})))")
        line(indent + 1, f"for key, item in {value}.items():")
        line(body, "if type(key) is not str and not isinstance(key, str):")
        line(body + 1, 'raise XdrError(f"dict keys must be strings, got {key!r}")')
        self.opaque('key.encode("utf-8")', "u32(n)", body)
        line(body, "kind = type(item)")
        line(body, "if kind is str:")
        self.opaque('item.encode("utf-8")', f"pair({_TAG_STRING}, n)", body + 1)
        line(body, "elif kind is float:")
        line(body + 1, f"w(tagged_float({_TAG_FLOAT}, item))")
        line(body, "elif kind is int:")
        # out of range: put_value raises its XdrError
        self.attempt(body + 1, f"w(tagged_int({_TAG_INT}, item))", "SE", "put_value(out, item)")
        line(body, "else:")
        line(body + 1, "put_value(out, item)")
        line(indent, "else:")
        line(indent + 1, f"put_value(out, {value})")

    # -- decoding: statements reading one value at ``o`` into ``target`` ----

    def decode(self, spec: tuple, target: str, indent: int) -> None:
        kind, line = spec[0], self.line
        if kind in ("struct", "seq", "optional") and indent > MAX_INDENT:
            line(indent, f"{target}, o = {self.helper(spec, False)}(view, o)")
        elif kind == "struct":
            run: List[Tuple[tuple, str]] = []
            items = []
            for name, sub in spec[1]:
                field = self.temp()
                items.append(f"{self.bind(name)}: {field}")
                if sub[0] in _FIXED:
                    run.append((sub, field))
                    continue
                self.unpack(run, indent)
                self.decode(sub, field, indent)
            self.unpack(run, indent)
            line(indent, f"{target} = {{{', '.join(items)}}}")
        elif kind in _FIXED:
            self.unpack([(spec, target)], indent)
        elif kind in ("string", "bytes"):
            line(indent, "try:")
            self.span("o", indent + 1)
            line(indent + 1, f"{target} = view[s:e]{'.decode()' if kind == 'string' else ''}")
            line(indent + 1, "o = t")
            line(indent, "except (SE, UnicodeDecodeError):")
            primitive = "get_string" if kind == "string" else "get_opaque"
            line(indent + 1, f"{target}, o = {primitive}(view, o)")
        elif kind == "optional":
            flag = self.temp()
            self.attempt(indent, f"{flag}, = read_u32(view, o)", "SE", "get_u32(view, o)")
            line(indent, "o += 4", f"if {flag} == 0:")
            line(indent + 1, f"{target} = None")
            line(indent, f"elif {flag} == 1:")
            self.decode(spec[1], target, indent + 1)
            line(indent, "else:")
            line(indent + 1, f"{target} = to_bool({flag})")  # raises
        elif kind == "seq":
            count, item = self.temp(), self.temp()
            line(indent, f"{count}, o = get_count(view, o)", f"{target} = []",
                 f"for _ in range({count}):")
            self.decode(spec[1], item, indent + 1)
            line(indent + 1, f"{target}.append({item})")
        elif kind == "void":
            line(indent, f"{target} = None")
        else:  # "any": the encoder, generated first, refused every unknown kind
            self.decode_any(target, indent)

    def unpack(self, run: List[Tuple[tuple, str]], indent: int) -> None:
        if not run:
            return
        packer = struct.Struct(">" + "".join(_FIXED[spec[0]] for spec, __ in run))
        values = ", ".join(value for __, value in run)
        replay = f"get_fixed({self.bind(packer)}, view, o)"  # a short read: raises
        self.attempt(indent, f"{values}, = {self.bind(packer.unpack_from)}(view, o)", "SE", replay)
        self.line(indent, f"o += {packer.size}")
        for spec, value in run:
            if spec[0] == "bool":
                self.line(indent, f"{value} = {value} == 1 if {value} < 2 else to_bool({value})")
            elif spec[0] == "enum":
                self.line(indent, f"if {value} >= {len(spec[1])}:")
                self.line(indent + 1, f'raise XdrError(f"enum index {{{value}}} out of range")')
                self.line(indent, f"{value} = {self.bind(spec[1])}[{value}]")
        run.clear()

    def span(self, at: str, indent: int) -> None:
        """Locate the opaque at ``at``: its bytes are ``view[s:e]`` and
        its pad ends at ``t``; a short or badly padded one raises ``SE``."""
        self.line(indent, f"n, = read_u32(view, {at})", f"s = {at} + 4", "e = s + n",
                  "t = s + (n + 3 & -4)", "if t > L or view[e:t] != PAD[n & 3]:")
        self.line(indent + 1, "raise SE")

    def decode_any(self, target: str, indent: int) -> None:
        """A dict of str/float/int values in place, its other entries
        through ``get_value``; anything else, and any damage, through
        ``get_value`` from the leaf's start."""
        line, body = self.line, indent + 4
        line(indent, f"{target} = None")
        line(indent, "if o + 8 <= L:")
        line(indent + 1, "tag, count = read_pair(view, o)")
        line(indent + 1, f"if tag == {_TAG_DICT} and count <= L:")
        line(indent + 2, "p = o + 8", f"{target} = {{}}", "try:")
        line(indent + 3, "for _ in range(count):")
        self.span("p", body)
        line(body, "key = view[s:e].decode()", "tag, = read_u32(view, t)", "p = t + 4")
        line(body, f"if tag == {_TAG_STRING}:")
        self.span("p", body + 1)
        line(body + 1, f"{target}[key] = view[s:e].decode()")
        line(body + 1, "p = t")
        for tag, reader in ((_TAG_FLOAT, "read_float"), (_TAG_INT, "read_int")):
            line(body, f"elif tag == {tag}:")
            line(body + 1, f"{target}[key], = {reader}(view, p)")
            line(body + 1, "p += 8")
        line(body, "else:")
        line(body + 1, f"{target}[key], p = get_value(view, t, 2)")
        line(indent + 2, "except (SE, UnicodeDecodeError):")
        line(indent + 3, f"{target} = None")
        line(indent + 2, "else:")
        line(indent + 3, "o = p")
        line(indent, f"if {target} is None:")
        line(indent + 1, f"{target}, o = get_value(view, o, 1)")


class CompiledCodec:
    """One layout spec's generated encoder and decoder, plus its header."""

    def __init__(self, spec: tuple) -> None:
        self._enc, self._dec = generate(spec)
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
        view = data if type(data) is bytes else bytes(data)
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
