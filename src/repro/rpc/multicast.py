"""Multicast/broadcast RPC — the extended communication functions of Fig. 6.

A :class:`MulticastCaller` sends one logical call to a set of destinations
and gathers replies until a quorum is reached or the deadline expires.
Group membership itself is managed by :class:`repro.naming.groups.GroupManager`;
this module only provides the fan-out call mechanics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.context import CallContext
from repro.net.endpoints import Address
from repro.rpc.client import RpcClient, remote_fault
from repro.rpc.errors import RemoteFault, RpcError, XdrError
from repro.rpc.message import ReplyStatus, RpcCall, RpcReply
from repro.rpc.xdr import decode_value, encode_value
from repro.telemetry.metrics import METRICS


@dataclass
class MulticastResult:
    """Replies gathered from one multicast call."""

    replies: Dict[Address, Any] = field(default_factory=dict)
    faults: Dict[Address, str] = field(default_factory=dict)
    missing: List[Address] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return not self.missing

    def values(self) -> List[Any]:
        """Successful reply values, in destination order."""
        return list(self.replies.values())


class MulticastCaller:
    """Fans a call out to many destinations over one client transport."""

    def __init__(self, client: RpcClient) -> None:
        self._client = client

    def call(
        self,
        destinations: Sequence[Address],
        prog: int,
        vers: int,
        proc: int,
        args: Any = None,
        timeout: float = 1.0,
        quorum: Optional[int] = None,
        context: Optional[CallContext] = None,
    ) -> MulticastResult:
        """Send to all ``destinations``; wait for ``quorum`` replies.

        ``quorum=None`` waits for every destination.  Always returns a
        result object — per-destination failures never raise, they appear
        in ``faults``/``missing``.  With a ``context``, the gather window
        is bounded by the remaining deadline budget and the fan-out is
        stamped with the context's wire fields.
        """
        if quorum is None:
            quorum = len(destinations)
        transport = self._client.transport
        if context is not None:
            timeout = min(timeout, context.remaining(transport.now()))
        pending: Dict[int, Address] = {}
        body = encode_value(args)
        for destination in destinations:
            xid = next(self._client._xid_counter)
            if context is not None:
                call = RpcCall(
                    xid, prog, vers, proc, body,
                    deadline=context.deadline,
                    trace_id=context.trace_id,
                    hops=context.hops,
                )
            else:
                call = RpcCall(xid, prog, vers, proc, body)
            pending[xid] = destination
            self._client._expect(xid)
            self._client.calls_sent += 1
            transport.send(destination, call.encode())

        def arrived() -> int:
            return sum(1 for xid in pending if xid in self._client._pending)

        transport.wait(lambda: arrived() >= quorum, timeout)

        result = MulticastResult()
        for xid, destination in pending.items():
            reply = self._client._pending.pop(xid, None)
            # Replies arriving after the gather window would otherwise sit
            # in the client's pending table forever.
            self._client.retire_xid(xid)
            if reply is None:
                result.missing.append(destination)
                continue
            self._record(result, destination, reply)
        return result

    @staticmethod
    def _record(result: MulticastResult, destination: Address, reply: RpcReply) -> None:
        try:
            if reply.status is ReplyStatus.SUCCESS:
                result.replies[destination] = decode_value(reply.body)
            elif reply.status is ReplyStatus.REMOTE_FAULT:
                result.faults[destination] = str(remote_fault(reply.body))
            else:
                result.faults[destination] = reply.status.name
        except XdrError as exc:
            METRICS.inc("rpc.client.malformed_replies")
            result.faults[destination] = f"malformed reply: {exc}"


def anycast(
    caller: MulticastCaller,
    destinations: Sequence[Address],
    prog: int,
    vers: int,
    proc: int,
    args: Any = None,
    timeout: float = 1.0,
) -> Any:
    """First successful reply wins; raises :class:`RpcError` if none."""
    result = caller.call(destinations, prog, vers, proc, args, timeout, quorum=1)
    for value in result.replies.values():
        return value
    for fault in result.faults.values():
        raise RemoteFault("AnycastFault", fault)
    raise RpcError(f"no reply from any of {len(destinations)} destination(s)")
