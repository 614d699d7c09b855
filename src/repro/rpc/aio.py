"""The coroutine RPC client, which runs in virtual time.

The blocking :class:`~repro.rpc.client.RpcClient` steps the attempt loop
on the calling thread; on the simulator that forces *serial* operation,
because the calling thread is also the one advancing the virtual clock.
:class:`AsyncRpcClient` awaits the same body (DESIGN.md §6a) on a
:class:`~repro.net.aioclock.SimEventLoop` over a
:class:`~repro.rpc.transport.SimTransport`: thousands of calls in
flight, deterministic interleaving, microseconds of wall clock.  Each
in-flight xid owns a future; a retransmission keeps the same xid (and
the same future), so the server's at-most-once cache still coalesces.
Every wire artefact is identical; only the client's scheduling differs.
Calls are served by the one :class:`~repro.rpc.server.RpcServer`,
which answers each call when its handler returns.

The async chaos, flavour-parity and federation suites run on it.  Real
TCP has one transport, the threaded
:class:`~repro.rpc.transport.TcpTransport`, under the blocking flavour.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, Optional

from repro.context import CallContext
from repro.net.endpoints import Address
from repro.rpc.client import _RpcClientCore, reply_to_result
from repro.rpc.codec import CODECS
from repro.rpc.message import RpcReply
from repro.rpc.transport import Transport
from repro.telemetry.metrics import METRICS

__all__ = ["AsyncRpcClient"]


#: Process-wide count of calls currently awaiting a reply across *all*
#: async clients — the saturation signal the telemetry report surfaces.
_inflight_total = 0


def _inflight(delta: int) -> None:
    global _inflight_total
    _inflight_total += delta
    METRICS.set_gauge("rpc.async.inflight", _inflight_total)


class AsyncRpcClient(_RpcClientCore):
    """Coroutine RPC client: many concurrent calls over one transport.

    Awaits the same body :class:`~repro.rpc.client.RpcClient` steps —
    same-xid retransmission carved out of the context's remaining
    deadline budget, ambient-context inheritance, unawaited-reply
    suppression — but each in-flight xid owns a future instead of
    blocking the transport's wait loop, so calls overlap freely.
    Runs over :class:`~repro.rpc.transport.SimTransport` in virtual
    time, driven by a :class:`~repro.net.aioclock.SimEventLoop`.
    """

    def __init__(
        self,
        transport: Transport,
        timeout: float = 1.0,
        retries: int = 3,
    ) -> None:
        super().__init__(transport, timeout, retries)
        self._waiters: Dict[int, asyncio.Future] = {}

    def _expect(self, xid: int) -> None:
        self._waiters[xid] = asyncio.get_running_loop().create_future()
        _inflight(+1)

    def _deliver(self, reply: RpcReply) -> bool:
        waiter = self._waiters.get(reply.xid)
        if waiter is None or waiter.done():
            return False
        waiter.set_result(reply)
        return True

    async def _wait_replies(self, xids, timeout: float) -> bool:
        waiting = [
            self._waiters[xid] for xid in xids if not self._waiters[xid].done()
        ]
        if not waiting:
            return True
        if len(xids) > 1:
            # One collective timeout; pending futures are left
            # un-cancelled so the next attempt re-awaits them.
            __, waiting = await asyncio.wait(waiting, timeout=timeout)
            return not waiting
        try:
            # shield: a per-attempt timeout must not cancel the waiter —
            # the xid (and its future) live on into the next attempt.
            await asyncio.wait_for(asyncio.shield(waiting[0]), timeout)
            return True
        except asyncio.TimeoutError:
            return False

    def _take(self, xid: int) -> Optional[RpcReply]:
        waiter = self._waiters.get(xid)
        if waiter is not None and waiter.done() and not waiter.cancelled():
            return waiter.result()
        return None

    def retire_xid(self, xid: int) -> None:
        """Mark ``xid`` finished: later replies for it are dropped."""
        waiter = self._waiters.pop(xid, None)
        if waiter is not None:
            _inflight(-1)
            if not waiter.done():
                waiter.cancel()

    async def call(
        self,
        destination: Address,
        prog: int,
        vers: int,
        proc: int,
        args: Any = None,
        timeout: Optional[float] = None,
        retries: Optional[int] = None,
        context: Optional[CallContext] = None,
    ) -> Any:
        """Call and decode; raises a typed :class:`RpcError` on failure."""
        reply = await self.call_raw(
            destination, prog, vers, proc,
            CODECS.encode_args(prog, vers, proc, args), timeout, retries,
            context,
        )
        return reply_to_result(reply, destination, prog, vers, proc)

    async def call_raw(
        self,
        destination: Address,
        prog: int,
        vers: int,
        proc: int,
        body: bytes,
        timeout: Optional[float] = None,
        retries: Optional[int] = None,
        context: Optional[CallContext] = None,
    ) -> RpcReply:
        """Send pre-encoded bytes and return the raw reply."""
        return await self._call_raw(
            destination, prog, vers, proc, body, timeout, retries, context
        )
