"""Multicast/broadcast RPC — the extended communication functions of Fig. 6.

A :class:`MulticastCaller` sends one logical call to a set of destinations
and gathers replies until a quorum is reached or the deadline expires.
Group membership itself is managed by :class:`repro.naming.groups.GroupManager`;
this module only provides the fan-out call mechanics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.context import CallContext, RetryPolicy
from repro.net.endpoints import Address
from repro.rpc.client import PendingCall, RpcClient, remote_fault
from repro.rpc.errors import XdrError
from repro.rpc.message import ReplyStatus
from repro.telemetry.metrics import METRICS


@dataclass
class MulticastResult:
    """Replies gathered from one multicast call."""

    replies: Dict[Address, Any] = field(default_factory=dict)
    faults: Dict[Address, str] = field(default_factory=dict)
    missing: List[Address] = field(default_factory=list)

    def values(self) -> List[Any]:
        """Successful reply values, in destination order."""
        return list(self.replies.values())


class MulticastCaller:
    """Fans a call out to many destinations over one client.

    One :meth:`~repro.rpc.client.RpcClient.start` per member, then one
    :meth:`~repro.rpc.client.RpcClient.gather` for the quorum: the same
    attempt loop, codecs and reply mapping as a single call.
    """

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

        ``quorum=None`` waits for every destination; ``quorum=1`` is an
        anycast (the first reply wins).  A group call is this call on
        :meth:`~repro.naming.groups.GroupClient.members`.  Always returns a
        result object — per-destination failures never raise, they appear
        in ``faults``/``missing``.  Each member gets one attempt, lasting
        the gather window: ``timeout``, or less when a ``context`` has
        less budget left (the fan-out then carries that context's trace
        and hop budget).
        """
        client = self._client
        now = client.transport.now()
        base = context if context is not None else CallContext()
        member = base.derive(
            deadline=now + min(timeout, base.remaining(now)),
            retry=RetryPolicy(retries=0),
        )
        calls = [
            client.start(destination, prog, vers, proc, args, context=member)
            for destination in destinations
        ]
        # The quorum counts replies: a member that settles with an error
        # (a refused connect, a timeout) does not stand in for one.
        wanted = len(calls) if quorum is None else quorum
        while True:
            replied = sum(call.reply is not None for call in calls)
            unsettled = [call for call in calls if not call.done]
            if replied >= wanted or not unsettled:
                break
            client.gather(unsettled, needed=wanted - replied)
        # Members still out after the gather window would otherwise hold
        # their xids forever.
        client.retire(calls)
        result = MulticastResult()
        for destination, call in zip(destinations, calls):
            if call.reply is None:
                result.missing.append(destination)
            else:
                self._record(result, destination, call)
        return result

    @staticmethod
    def _record(result: MulticastResult, destination: Address, call: PendingCall) -> None:
        reply = call.reply
        try:
            if reply.status is ReplyStatus.SUCCESS:
                result.replies[destination] = call.result()
            elif reply.status is ReplyStatus.REMOTE_FAULT:
                result.faults[destination] = str(remote_fault(reply.body))
            else:
                result.faults[destination] = reply.status.name
        except XdrError as exc:
            METRICS.inc("rpc.client.malformed_replies")
            result.faults[destination] = f"malformed reply: {exc}"

