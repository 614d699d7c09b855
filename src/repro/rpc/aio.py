"""The coroutine RPC flavour, which runs in virtual time.

The blocking façades in :mod:`repro.rpc.client` / :mod:`repro.rpc.server`
step the protocol bodies on the calling thread; on the simulator that
forces *serial* operation, because the calling thread is also the one
advancing the virtual clock.  This module awaits the same bodies
(one attempt loop, one execute body — see DESIGN.md §6a) on a
:class:`~repro.net.aioclock.SimEventLoop` over a
:class:`~repro.rpc.transport.SimTransport`: thousands of calls in
flight, deterministic interleaving, microseconds of wall clock.  Every
wire artefact is identical (message format, xdr bodies, at-most-once
cache, admission control, SHED); only the scheduling differs:

* :class:`AsyncRpcClient` — any number of concurrent calls per client;
  each in-flight xid owns a future, retransmission keeps the same xid
  (and the same future) across attempts so the server's at-most-once
  cache still coalesces.
* :class:`AsyncRpcServer` — the sync server with a scheduling choice
  per admitted call: ``async def`` handlers run as their own tasks, so
  slow handlers overlap, and are cancelled when their wire deadline
  expires; plain handlers run inline.

The async chaos, flavour-parity and federation suites run on it.  Real
TCP has one transport, the threaded
:class:`~repro.rpc.transport.TcpTransport`, under the blocking flavour.
"""

from __future__ import annotations

import asyncio
import inspect
from typing import Any, Dict, List, Optional, Set

from repro.context import CallContext
from repro.errors import CommunicationError
from repro.net.endpoints import Address
from repro.rpc.client import _RpcClientCore, reply_to_result
from repro.rpc.codec import CODECS
from repro.rpc.errors import RpcError
from repro.rpc.message import RpcCall, RpcReply
from repro.rpc.server import AdmissionPolicy, RpcServer, _DeadlineLapsed
from repro.rpc.transport import SimTransport, Transport
from repro.telemetry.metrics import METRICS

__all__ = [
    "AsyncRpcClient",
    "AsyncRpcServer",
]


#: Replies staged for one peer within one tick before the stage is
#: flushed early, as one write.
REPLY_MAX_BATCH = 16

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

    async def ping(self, destination: Address, prog: int, vers: int = 1) -> bool:
        """True when the destination answers procedure 0 (NULL proc)."""
        try:
            await self.call(destination, prog, vers, 0)
            return True
        except RpcError:
            return False


class AsyncRpcServer(RpcServer):
    """Task-per-call RPC server sharing the sync server's admission core.

    Arrival-time admission, the deadline-ordered queue and its drain,
    the at-most-once reply cache, the execute body and every counter
    are inherited unchanged from :class:`~repro.rpc.server.RpcServer`;
    only *scheduling* differs — calls bound for ``async def`` handlers
    become event-loop tasks, so they overlap and are awaited, while
    plain sync handlers (which would hold the loop for their whole body
    regardless) execute inline during the drain — and replies leaving
    in one event-loop tick share one write.

    Cancellation on deadline expiry: an awaitable handler result runs
    under ``asyncio.wait_for`` bounded by the call's remaining wire
    budget.  When the budget lapses mid-execution the task is cancelled
    and the caller gets ``DEADLINE_EXCEEDED`` — the async analogue of
    the sync server's wasted-handler-seconds accounting, except the
    waste itself is clawed back.
    """

    def __init__(
        self,
        transport: Transport,
        at_most_once: bool = True,
        admission: Optional[AdmissionPolicy] = None,
    ) -> None:
        super().__init__(transport, at_most_once, admission)
        self._handler_tasks: Set[asyncio.Task] = set()
        self.cancelled_on_deadline = 0
        self._reply_staged: Dict[Address, List[bytes]] = {}
        self._reply_flush_scheduled: Set[Address] = set()

    def _send_reply(self, source: Address, xid: int, data: bytes) -> None:
        """Stage an encoded reply; one write flushes everything ready this tick.

        Handler tasks that complete in the same event-loop tick (common
        for fast handlers fed by one BATCH payload) share a single
        transport write.  Outside a running loop — the sim fallback
        path — replies send immediately, matching the sync server.
        """
        try:
            loop = asyncio.get_running_loop()
        except RuntimeError:
            self.transport.send(source, data)
            return
        staged = self._reply_staged.setdefault(source, [])
        staged.append(data)
        if len(staged) >= REPLY_MAX_BATCH:
            self._flush_replies(source)
            return
        if source not in self._reply_flush_scheduled:
            self._reply_flush_scheduled.add(source)
            loop.call_soon(self._flush_replies, source)

    def _flush_replies(self, source: Address) -> None:
        self._reply_flush_scheduled.discard(source)
        staged = self._reply_staged.pop(source, None)
        if not staged:
            return
        METRICS.observe("rpc.server.batch_replies", float(len(staged)))
        try:
            self.transport.send(source, b"".join(staged))
        except CommunicationError:
            # Transport torn down while replies were staged; nobody is
            # left to read them.
            pass

    def _dispatch_entry(self, source: Address, call: RpcCall) -> None:
        """Choose the scheduling lane for one dequeued call.

        ``async def`` handlers become event-loop tasks (so they overlap
        and can be cancelled at their deadline); plain sync handlers —
        which would monopolise the loop for their whole body either way
        — take the blocking façade's lane: stepped *inline* right here,
        skipping task creation, scheduling ticks, and done-callback
        bookkeeping per call.  A caller outside the event loop (a sync
        test driving a sim clock by hand) falls back to running the
        entry to completion, mirroring the sync server's serial drain.
        """
        try:
            loop = asyncio.get_running_loop()
        except RuntimeError:
            self._fallback_loop().run_until_complete(self._run_entry(source, call))
            return
        if self._wants_task(call):
            task = loop.create_task(self._run_entry(source, call))
            self._handler_tasks.add(task)
            task.add_done_callback(self._handler_tasks.discard)
        else:
            super()._dispatch_entry(source, call)

    def _wants_task(self, call: RpcCall) -> bool:
        """True when the call's handler needs the task lane (async def)."""
        program = self._programs.get((call.prog, call.vers))
        if program is None:
            return False
        handler = program.lookup(call.proc)
        return handler is not None and inspect.iscoroutinefunction(handler)

    def _fallback_loop(self) -> asyncio.AbstractEventLoop:
        if isinstance(self.transport, SimTransport):
            from repro.net.aioclock import loop_for

            return loop_for(self.transport.network.clock)
        raise CommunicationError(
            "AsyncRpcServer needs a running event loop on this transport"
        )

    async def _bounded(self, awaitable, call: RpcCall, program) -> Any:
        """Await a handler's result, cancelling at the wire deadline."""
        if not self._wants_task(call):
            # The inline lane cannot wait: a plain handler's awaitable
            # is stepped like on the blocking server.
            return await super()._bounded(awaitable, call, program)
        if call.deadline is None:
            return await awaitable
        remaining = call.deadline - self.transport.now()
        try:
            return await asyncio.wait_for(awaitable, max(0.0, remaining))
        except asyncio.TimeoutError:
            # The wire deadline lapsed mid-execution and the handler
            # task was cancelled: answer DEADLINE_EXCEEDED instead of
            # burning further handler time on a dead budget.
            self.cancelled_on_deadline += 1
            METRICS.inc(
                "rpc.server.cancelled_on_deadline", (program.name, str(call.proc))
            )
            raise _DeadlineLapsed from None
