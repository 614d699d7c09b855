"""RPC wire messages: CALL and REPLY.

Mirrors the shape of ONC RPC messages (xid, program, version, procedure)
with a simplified reply status enum.  Bodies are opaque byte strings —
normally the tagged encoding from :mod:`repro.rpc.xdr`.

CALL messages additionally carry the caller's
:class:`~repro.context.CallContext` on the wire: an optional absolute
deadline, a trace id, and a remaining hop budget, flagged by a bitmask so
absent fields cost four bytes total.

Both encodings are **self-delimiting** — every field is either fixed
width or length-prefixed — which is what makes the BATCH envelope free:
a batch is nothing but encoded messages laid back-to-back in one
transport payload (:func:`encode_batch` / :func:`decode_messages`).  A
peer that has never heard of batching decodes the same bytes one
message at a time; a batching peer saves one write/read per coalesced
message.  Both TCP transports deliver length-prefixed frames, so a
payload always arrives whole.

What this module owns of the wire is the two fixed headers and the
``ctx_flags`` logic; every field is read and written through the
primitives of :mod:`repro.rpc.xdr`.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple, Union

from repro.rpc.errors import XdrError
from repro.rpc.xdr import (
    DOUBLE,
    get_fixed,
    get_opaque,
    get_string,
    get_u32,
    put_bool,
    put_opaque,
    put_string,
    put_u32,
)

_MSG_CALL = 0
_MSG_REPLY = 1

_CTX_DEADLINE = 1
_CTX_TRACE = 2
_CTX_HOPS = 4
_CTX_SAMPLED = 8

# The header shape is static, so one precompiled ``pack``/``unpack_from``
# moves the whole fixed prefix of a message.
_CALL_FIXED = struct.Struct(">IIIIII")  # xid, kind, prog, vers, proc, flags
_REPLY_FIXED = struct.Struct(">III")  # xid, kind, status


class ReplyStatus(enum.IntEnum):
    """Outcome of a call as reported by the server."""

    SUCCESS = 0
    PROG_UNAVAIL = 1
    PROC_UNAVAIL = 2
    GARBAGE_ARGS = 3
    REMOTE_FAULT = 4
    DEADLINE_EXCEEDED = 5
    #: The server declined the call under load *before* running it: the
    #: estimated service time exceeded the call's remaining deadline
    #: budget, or the admission queue was full.  Distinct from
    #: DEADLINE_EXCEEDED — the budget was still live, so the caller
    #: should immediately retry against an alternate offer rather than
    #: retransmit into the overloaded server.
    SHED = 6


@dataclass(frozen=True)
class RpcCall:
    """A request for procedure ``proc`` of program ``prog`` version ``vers``.

    ``deadline``/``trace_id``/``hops``/``sampled`` are the wire form of
    the caller's call context; all are optional so context-free callers
    (and pre-context peers) stay interoperable.  ``sampled`` is the head
    trace-sampling decision — only emitted once some hop has actually
    decided (``None`` means "no sampling policy weighed in" and adds no
    bytes, keeping frames byte-identical to pre-sampling peers).
    """

    xid: int
    prog: int
    vers: int
    proc: int
    body: bytes = b""
    deadline: Optional[float] = None
    trace_id: str = ""
    hops: Optional[int] = None
    sampled: Optional[bool] = None

    def encode(self) -> bytes:
        flags = 0
        parts = [b""]  # the fixed header, packed once the flags are known
        if self.deadline is not None:
            flags |= _CTX_DEADLINE
            parts.append(DOUBLE.pack(self.deadline))
        if self.trace_id:
            flags |= _CTX_TRACE
            put_string(parts, self.trace_id)
        if self.hops is not None:
            flags |= _CTX_HOPS
            put_u32(parts, self.hops)
        if self.sampled is not None:
            flags |= _CTX_SAMPLED
            put_bool(parts, self.sampled)
        put_opaque(parts, self.body)
        parts[0] = _CALL_FIXED.pack(
            self.xid, _MSG_CALL, self.prog, self.vers, self.proc, flags
        )
        return b"".join(parts)


@dataclass(frozen=True)
class RpcReply:
    """The server's answer, matched to the call by ``xid``."""

    xid: int
    status: ReplyStatus
    body: bytes = b""

    def encode(self) -> bytes:
        parts = [_REPLY_FIXED.pack(self.xid, _MSG_REPLY, int(self.status))]
        put_opaque(parts, self.body)
        return b"".join(parts)


RpcMessage = Union[RpcCall, RpcReply]


def _decode_one(view: memoryview, offset: int) -> Tuple[RpcMessage, int]:
    """Decode the message starting at ``offset``: ``(message, next offset)``."""
    # Both kinds open with xid, kind and one more word.
    (xid, kind, status_raw), after_reply_header = get_fixed(_REPLY_FIXED, view, offset)
    if kind == _MSG_CALL:
        (__, __, prog, vers, proc, flags), offset = get_fixed(_CALL_FIXED, view, offset)
        deadline = hops = sampled = None
        trace_id = ""
        if flags & _CTX_DEADLINE:
            (deadline,), offset = get_fixed(DOUBLE, view, offset)
        if flags & _CTX_TRACE:
            trace_id, offset = get_string(view, offset)
        if flags & _CTX_HOPS:
            hops, offset = get_u32(view, offset)
        if flags & _CTX_SAMPLED:
            # Any non-zero word is "sampled": mixed-version peers.
            raw, offset = get_u32(view, offset)
            sampled = bool(raw)
        body, offset = get_opaque(view, offset)
        call = RpcCall(xid, prog, vers, proc, body, deadline, trace_id, hops, sampled)
        return call, offset
    if kind == _MSG_REPLY:
        try:
            status = ReplyStatus(status_raw)
        except ValueError:
            raise XdrError(f"unknown reply status {status_raw}") from None
        body, offset = get_opaque(view, after_reply_header)
        return RpcReply(xid, status, body), offset
    raise XdrError(f"unknown RPC message kind {kind}")


def decode_message(data: bytes) -> RpcMessage:
    """Decode bytes into an :class:`RpcCall` or :class:`RpcReply`."""
    view = memoryview(data)
    message, offset = _decode_one(view, 0)
    if offset != len(view):
        raise XdrError("trailing bytes after RPC message")
    return message


def decode_messages(data: bytes) -> List[RpcMessage]:
    """Decode a payload holding one *or more* back-to-back messages.

    This is the receive side of the BATCH envelope: since every message
    is self-delimiting, a batch needs no extra framing — the decoder
    just keeps going until the payload is exhausted.  A single-message
    payload decodes identically, so batching and non-batching peers
    interoperate in both directions.
    """
    view = memoryview(data)
    if not view:
        raise XdrError("empty RPC payload")
    messages: List[RpcMessage] = []
    offset = 0
    while offset < len(view):
        message, offset = _decode_one(view, offset)
        messages.append(message)
    return messages


def encode_batch(messages: Iterable[RpcMessage]) -> bytes:
    """Concatenate encoded messages into one BATCH payload."""
    return b"".join(message.encode() for message in messages)
