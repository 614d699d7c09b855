"""XDR-style binary marshalling: the one module that knows the wire.

Everything the stack sends is built from the primitives here — big-endian
4-byte words, 8-byte hypers, IEEE doubles, length-prefixed opaques
zero-padded to 4 (RFC 1014 conventions), the TCP frame and the hello —
in one style: ``put_*(out, value)`` appends chunks to a list the caller
joins once, ``get_*(view, offset)`` reads a :class:`memoryview` and
returns ``(value, next offset)``; only leaves ever copy bytes.  Three
codecs are written over them: the compiled per-signature layouts
(:mod:`repro.rpc.codec`), the CALL/REPLY framer
(:mod:`repro.rpc.message`) and, below, the **tagged** self-describing
:func:`encode_value` / :func:`decode_value` — what makes the paper's
*dynamic marshalling* possible: a generic client that has just
downloaded a SID can marshal parameters for a service it has never
seen, because values carry their own structure on the wire.

What counts as malformed is decided here and nowhere else
(docs/PROTOCOL.md §2 tabulates it), and only
:class:`~repro.rpc.errors.XdrError` — :class:`XdrTruncated` for a read
past the end — ever leaves a decoder.
"""

from __future__ import annotations

import struct
from typing import Any, Dict, List, Tuple

from repro.net.endpoints import Address
from repro.rpc.errors import XdrError, XdrTruncated

_U32 = struct.Struct(">I")
_HYPER = struct.Struct(">q")
#: Packer for :func:`get_fixed` / ``pack``: an IEEE double.
DOUBLE = struct.Struct(">d")

_PADDING = (b"", b"\x00\x00\x00", b"\x00\x00", b"\x00")  # by length % 4
_FALSE, _TRUE = _U32.pack(0), _U32.pack(1)

#: Maximum nesting depth :func:`decode_value` accepts.  Deep enough for
#: any real SID-shaped value, shallow enough that an adversarially
#: nested payload (a list-of-list-of-... bomb) fails with an
#: :class:`XdrError` long before Python's recursion limit.
MAX_VALUE_DEPTH = 64


# -- primitives ------------------------------------------------------------


def put_u32(out: List[bytes], value: int) -> None:
    try:
        out.append(_U32.pack(value))
    except struct.error:
        raise XdrError(f"u32 out of range: {value!r}") from None


def put_bool(out: List[bytes], value: bool) -> None:
    out.append(_TRUE if value else _FALSE)


def put_opaque(out: List[bytes], data: bytes) -> None:
    """Variable-length opaque: u32 length, the bytes, zero pad to 4."""
    size = len(data)
    out.append(_U32.pack(size))
    out.append(data)
    if size & 3:
        out.append(_PADDING[size & 3])


def put_string(out: List[bytes], text: str) -> None:
    put_opaque(out, text.encode("utf-8"))


def _truncated(view: memoryview, offset: int, wanted: int) -> XdrTruncated:
    return XdrTruncated(
        f"truncated XDR data at offset {offset}: wanted {wanted} bytes, "
        f"have {len(view) - offset}"
    )


def get_fixed(packer: struct.Struct, view: memoryview, offset: int) -> Tuple[tuple, int]:
    """Read one precompiled fixed-width run: ``(fields, next offset)``."""
    try:
        return packer.unpack_from(view, offset), offset + packer.size
    except struct.error:
        raise _truncated(view, offset, packer.size) from None


def get_u32(view: memoryview, offset: int) -> Tuple[int, int]:
    try:
        return _U32.unpack_from(view, offset)[0], offset + 4
    except struct.error:
        raise _truncated(view, offset, 4) from None


def to_bool(raw: int) -> bool:
    """The bool a wire word stands for; only 0 and 1 are bools."""
    if raw > 1:
        raise XdrError(f"bool must be 0 or 1, got {raw}")
    return raw == 1


def get_bool(view: memoryview, offset: int) -> Tuple[bool, int]:
    raw, offset = get_u32(view, offset)
    return to_bool(raw), offset


def _span(view: memoryview, offset: int) -> Tuple[int, int, int]:
    """Where the opaque at ``offset`` lies: ``(start, end, stop)`` of its
    bytes and of the zero padding after them, both checked."""
    try:
        size = _U32.unpack_from(view, offset)[0]
    except struct.error:
        raise _truncated(view, offset, 4) from None
    start = offset + 4
    end = start + size
    stop = end + (-size & 3)
    if stop > len(view):
        raise _truncated(view, start, stop - start)
    if size & 3 and view[end:stop] != _PADDING[size & 3]:
        raise XdrError(f"non-zero XDR padding at offset {end}")
    return start, end, stop


def get_opaque(view: memoryview, offset: int) -> Tuple[bytes, int]:
    start, end, stop = _span(view, offset)
    return bytes(view[start:end]), stop


def get_string(view: memoryview, offset: int) -> Tuple[str, int]:
    start, end, stop = _span(view, offset)
    try:
        return str(view[start:end], "utf-8"), stop
    except UnicodeDecodeError as exc:
        raise XdrError(f"invalid UTF-8 in string at offset {offset}: {exc}") from None


def get_count(view: memoryview, offset: int) -> Tuple[int, int]:
    """Element count of a list, dict or compiled ``seq``.

    Bounded by the whole payload's length rather than by what remains
    after the count, because a compiled ``seq`` of zero-width elements
    (``sequence<struct {}>`` is derivable from a SID) must stay
    decodable.  Either way no decoder allocates more elements than the
    peer sent bytes.
    """
    count, offset = get_u32(view, offset)
    if count > len(view):
        raise XdrTruncated(
            f"implausible element count {count} at offset {offset - 4}: "
            f"the payload has {len(view)} bytes"
        )
    return count, offset


# -- TCP framing -----------------------------------------------------------

#: Bytes of the length prefix that opens every TCP frame.
FRAME_HEADER_SIZE = _U32.size


def frame(payload: bytes) -> bytes:
    """One TCP frame: ``u32 length || payload``."""
    return _U32.pack(len(payload)) + payload


def frame_length(header: bytes) -> int:
    """Payload length announced by a frame's length prefix."""
    return _U32.unpack(header)[0]


def hello(port: int) -> bytes:
    """First frame of a connection: the sender's reply port, ASCII decimal."""
    return frame(str(port).encode("ascii"))


def parse_hello(payload: bytes) -> int:
    """The port a hello payload announces: ASCII decimal, 0..65535."""
    if not payload.isdigit() or len(payload) > 5 or int(payload) > 0xFFFF:
        raise XdrError(f"malformed hello frame {bytes(payload[:16])!r}")
    return int(payload)


# -- tagged generic values -------------------------------------------------

_TAG_NULL = 0
_TAG_BOOL = 1
_TAG_INT = 2
_TAG_FLOAT = 3
_TAG_STRING = 4
_TAG_BYTES = 5
_TAG_LIST = 6
_TAG_DICT = 7
_TAG_ADDRESS = 8

_NULL = _U32.pack(_TAG_NULL)
_TAGGED_FALSE = _U32.pack(_TAG_BOOL) + _FALSE
_TAGGED_TRUE = _U32.pack(_TAG_BOOL) + _TRUE
_STRING = _U32.pack(_TAG_STRING)
_BYTES = _U32.pack(_TAG_BYTES)
_ADDRESS = _U32.pack(_TAG_ADDRESS)
_TAGGED_HYPER = struct.Struct(">Iq")
_TAGGED_DOUBLE = struct.Struct(">Id")
_TAGGED_COUNT = struct.Struct(">II")


def encode_value(value: Any) -> bytes:
    """Encode a Python value into self-describing XDR bytes.

    Supported: ``None``, ``bool``, ``int``, ``float``, ``str``, ``bytes``,
    :class:`~repro.net.endpoints.Address`, and (nested) lists/tuples and
    string-keyed dicts of the above.  Dict key order is preserved, so two
    structurally equal values encode identically.
    """
    out: List[bytes] = []
    put_value(out, value)
    return b"".join(out)


def put_value(out: List[bytes], value: Any) -> None:
    """Append the tagged encoding of ``value``: a tag word, then the payload."""
    try:
        if value is None:
            out.append(_NULL)
        elif value is True:
            out.append(_TAGGED_TRUE)
        elif value is False:
            out.append(_TAGGED_FALSE)
        elif isinstance(value, Address):
            # Must precede the tuple check: Address is a NamedTuple.
            out.append(_ADDRESS)
            put_string(out, value.host)
            put_u32(out, value.port)
        elif isinstance(value, int):
            out.append(_TAGGED_HYPER.pack(_TAG_INT, value))
        elif isinstance(value, float):
            out.append(_TAGGED_DOUBLE.pack(_TAG_FLOAT, value))
        elif isinstance(value, str):
            out.append(_STRING)
            put_string(out, value)
        elif isinstance(value, (bytes, bytearray)):
            out.append(_BYTES)
            put_opaque(out, bytes(value))
        elif isinstance(value, (list, tuple)):
            out.append(_TAGGED_COUNT.pack(_TAG_LIST, len(value)))
            for item in value:
                put_value(out, item)
        elif isinstance(value, dict):
            out.append(_TAGGED_COUNT.pack(_TAG_DICT, len(value)))
            for key, item in value.items():
                if not isinstance(key, str):
                    raise XdrError(f"dict keys must be strings, got {key!r}")
                put_string(out, key)
                put_value(out, item)
        else:
            raise XdrError(f"cannot marshal value of type {type(value).__name__}")
    except struct.error:
        raise XdrError(f"value out of range for the wire: {value!r}") from None


def decode_value(data) -> Any:
    """Decode bytes produced by :func:`encode_value`.

    Raises :class:`~repro.rpc.errors.XdrError` on malformed or trailing
    data, and on values nested deeper than :data:`MAX_VALUE_DEPTH`.
    """
    view = memoryview(data)
    value, offset = get_value(view, 0, 0)
    if offset != len(view):
        raise XdrError(f"{len(view) - offset} trailing bytes after value")
    return value


def get_value(view: memoryview, offset: int, depth: int) -> Tuple[Any, int]:
    """Read one tagged value, ``depth`` containers down."""
    if depth > MAX_VALUE_DEPTH:
        raise XdrError(
            f"value nesting exceeds MAX_VALUE_DEPTH={MAX_VALUE_DEPTH} "
            f"at offset {offset}"
        )
    tag, offset = get_u32(view, offset)
    if tag == _TAG_STRING:
        return get_string(view, offset)
    if tag == _TAG_INT:
        (value,), offset = get_fixed(_HYPER, view, offset)
        return value, offset
    if tag == _TAG_FLOAT:
        (value,), offset = get_fixed(DOUBLE, view, offset)
        return value, offset
    if tag == _TAG_LIST:
        count, offset = get_count(view, offset)
        items = []
        for __ in range(count):
            item, offset = get_value(view, offset, depth + 1)
            items.append(item)
        return items, offset
    if tag == _TAG_DICT:
        count, offset = get_count(view, offset)
        result: Dict[str, Any] = {}
        for __ in range(count):
            key, offset = get_string(view, offset)
            result[key], offset = get_value(view, offset, depth + 1)
        return result, offset
    if tag == _TAG_NULL:
        return None, offset
    if tag == _TAG_BOOL:
        return get_bool(view, offset)
    if tag == _TAG_BYTES:
        return get_opaque(view, offset)
    if tag == _TAG_ADDRESS:
        host, offset = get_string(view, offset)
        port, offset = get_u32(view, offset)
        return Address(host, port), offset
    raise XdrError(f"unknown XDR value tag {tag}")
