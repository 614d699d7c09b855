"""Async-first RPC: asyncio transport, client, and server.

The blocking façades in :mod:`repro.rpc.client` / :mod:`repro.rpc.server`
block a thread per in-flight call — on real TCP that means a thread per
connection, and on the simulator it forces *serial* operation because
the calling thread is also the one advancing the virtual clock.  This
module is the ``await`` side of the same protocol bodies (one attempt
loop, one batch lane, one execute body — see DESIGN.md §6a): every wire
artefact is identical (message format, xdr bodies, at-most-once cache,
admission control, SHED) and only the concurrency substrate is swapped:

* :class:`AsyncTcpTransport` — one event loop serves every connection;
  framing is byte-compatible with :class:`~repro.rpc.transport.TcpTransport`
  (``u32`` length prefix, first frame on a fresh connection announces
  the sender's stable address).  Unlike the threaded transport it
  answers over the *inbound* connection when one exists, halving socket
  count for request/reply traffic.
* :class:`AsyncRpcClient` — any number of concurrent calls per client;
  each in-flight xid owns a future, retransmission keeps the same xid
  (and the same future) across attempts so the server's at-most-once
  cache still coalesces.
* :class:`AsyncRpcServer` — the sync server with a scheduling choice
  per admitted call: ``async def`` handlers run as their own tasks, so
  slow handlers overlap, and are cancelled when their wire deadline
  expires; plain handlers run inline.

Over a :class:`~repro.rpc.transport.SimTransport` the same client and
server run in *virtual* time on a :class:`~repro.net.aioclock.SimEventLoop`:
thousands of calls in flight, deterministic interleaving, microseconds
of wall clock.
"""

from __future__ import annotations

import asyncio
import inspect
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.context import CallContext
from repro.errors import CommunicationError
from repro.net.endpoints import Address
from repro.rpc import xdr
from repro.rpc.client import _BatchLane, _RpcClientCore, reply_to_result
from repro.rpc.codec import CODECS
from repro.rpc.errors import RpcError, XdrError
from repro.rpc.message import RpcCall, RpcReply
from repro.rpc.server import AdmissionPolicy, RpcServer, _DeadlineLapsed
from repro.rpc.transport import SimTransport, Transport, enable_nodelay
from repro.telemetry.metrics import METRICS

__all__ = [
    "AsyncBatchingClient",
    "AsyncRpcClient",
    "AsyncRpcServer",
    "AsyncTcpTransport",
]


#: Process-wide count of calls currently awaiting a reply across *all*
#: async clients — the saturation signal the telemetry report surfaces.
_inflight_total = 0


def _inflight(delta: int) -> None:
    global _inflight_total
    _inflight_total += delta
    METRICS.set_gauge("rpc.async.inflight", _inflight_total)


class AsyncTcpTransport(Transport):
    """Datagram semantics over asyncio TCP streams.

    Wire-compatible with the threaded :class:`TcpTransport`: each frame
    is a big-endian ``u32`` length followed by the payload, and the
    first frame of every outgoing connection carries the sender's
    advertised port in ASCII so the peer learns a stable reply address.

    Build with :meth:`create` (binding a listener needs a running
    loop).  Pure clients may pass ``listen=False``: no listener socket
    is bound and the hello frame advertises the *connection's* local
    port instead — unique per connection, so the peer's reply routing
    (which prefers the inbound connection) still finds its way back.
    ``send`` never blocks: when no connection exists yet the payload is
    queued and a connect task drains the queue once established.
    """

    def __init__(self) -> None:
        raise TypeError("use 'await AsyncTcpTransport.create(...)'")

    @classmethod
    async def create(
        cls, host: str = "127.0.0.1", port: int = 0, listen: bool = True,
        backlog: int = 4096,
    ) -> "AsyncTcpTransport":
        self = cls.__new__(cls)
        self._loop = asyncio.get_running_loop()
        self._receiver: Optional[Callable[[Address, bytes], None]] = None
        self._writers: Dict[Address, asyncio.StreamWriter] = {}
        self._connecting: Dict[Address, List[bytes]] = {}
        self._tasks: Set[asyncio.Task] = set()
        self._server: Optional[asyncio.AbstractServer] = None
        self._closed = False
        self.connections_opened = 0
        self.connections_accepted = 0
        if listen:
            self._server = await asyncio.start_server(
                self._accepted, host, port, backlog=backlog
            )
            bound = self._server.sockets[0].getsockname()[1]
            self.local_address = Address(host, bound)
        else:
            self.local_address = Address(host, 0)
        return self

    # -- Transport interface ----------------------------------------------

    def send(self, destination: Address, payload: bytes) -> None:
        if self._closed:
            raise CommunicationError("transport closed")
        writer = self._writers.get(destination)
        if writer is not None:
            writer.write(xdr.frame(payload))
            return
        queue = self._connecting.get(destination)
        if queue is not None:
            queue.append(payload)
            return
        self._connecting[destination] = [payload]
        self._spawn(self._connect(destination))

    def set_receiver(self, receiver: Callable[[Address, bytes], None]) -> None:
        self._receiver = receiver

    def wait(self, predicate: Callable[[], bool], timeout: float) -> bool:
        raise CommunicationError(
            "AsyncTcpTransport has no blocking wait; use AsyncRpcClient"
        )

    def now(self) -> float:
        return self._loop.time()

    def close(self) -> None:
        self._closed = True
        if self._server is not None:
            self._server.close()
        for writer in list(self._writers.values()):
            writer.close()
        self._writers.clear()
        self._connecting.clear()
        for task in list(self._tasks):
            task.cancel()

    async def aclose(self) -> None:
        """Graceful close: also waits for the listener to release."""
        self.close()
        if self._server is not None:
            await self._server.wait_closed()

    # -- internals --------------------------------------------------------

    def _spawn(self, coro) -> None:
        task = self._loop.create_task(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _connect(self, destination: Address) -> None:
        try:
            reader, writer = await asyncio.open_connection(
                destination.host, destination.port
            )
        except OSError:
            # Unreachable peer: drop what was queued.  Callers observe a
            # timeout and surface it through their retry budget, exactly
            # as a lost datagram would.
            self._connecting.pop(destination, None)
            return
        enable_nodelay(writer.get_extra_info("socket"))
        self.connections_opened += 1
        advertised = self.local_address.port
        if advertised == 0:  # listen=False: per-connection reply address
            advertised = writer.get_extra_info("sockname")[1]
        writer.write(xdr.hello(advertised))
        self._writers[destination] = writer
        for payload in self._connecting.pop(destination, []):
            writer.write(xdr.frame(payload))
        await self._read_loop(reader, writer, destination)

    async def _accepted(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        # First frame is the peer's advertised port (its reply address).
        try:
            port = xdr.parse_hello(await self._read_frame(reader))
        except XdrError:
            METRICS.inc("rpc.transport.bad_hello")
            writer.close()
            return
        except (asyncio.IncompleteReadError, OSError):
            writer.close()
            return
        source = Address(writer.get_extra_info("peername")[0], port)
        enable_nodelay(writer.get_extra_info("socket"))
        self.connections_accepted += 1
        # Replies to this peer ride the inbound connection — no second
        # socket pair per client, unlike the threaded transport.
        self._writers.setdefault(source, writer)
        await self._read_loop(reader, writer, source)

    async def _read_loop(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        source: Address,
    ) -> None:
        try:
            while not self._closed:
                payload = await self._read_frame(reader)
                receiver = self._receiver
                if receiver is not None:
                    receiver(source, payload)
        except (asyncio.IncompleteReadError, asyncio.CancelledError, OSError):
            # Peer hung up or the transport is tearing down: either way
            # this connection is done; exit without propagating so the
            # stream server's bookkeeping callback stays quiet.
            pass
        finally:
            if self._writers.get(source) is writer:
                self._writers.pop(source, None)
            writer.close()

    async def _read_frame(self, reader: asyncio.StreamReader) -> bytes:
        header = await reader.readexactly(xdr.FRAME_HEADER_SIZE)
        return await reader.readexactly(xdr.frame_length(header))


class AsyncRpcClient(_RpcClientCore):
    """Coroutine RPC client: many concurrent calls over one transport.

    Awaits the same body :class:`~repro.rpc.client.RpcClient` steps —
    same-xid retransmission carved out of the context's remaining
    deadline budget, ambient-context inheritance, unawaited-reply
    suppression — but each in-flight xid owns a future instead of
    blocking the transport's wait loop, so calls overlap freely.
    Works over :class:`AsyncTcpTransport` in wall time and over
    :class:`~repro.rpc.transport.SimTransport` in virtual time when
    driven by a :class:`~repro.net.aioclock.SimEventLoop`.
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


class AsyncBatchingClient(_BatchLane, AsyncRpcClient):
    """Async client that coalesces same-tick calls into BATCH writes.

    Calls issued in the same event-loop tick — the natural shape of an
    ``asyncio.gather`` fan-out — stage their CALL frames per
    destination; a ``call_soon`` callback flushes each destination's
    stage as one transport write before the loop goes back to I/O.  No
    linger delay is ever added: the flush runs in the *current* tick, so
    a lone call leaves exactly as fast as with the base client, and a
    thousand-call gather leaves as ``ceil(1000 / max_batch)`` writes.
    Count and byte watermarks cut oversized batches early.
    """

    def __init__(
        self,
        transport: Transport,
        timeout: float = 1.0,
        retries: int = 3,
        max_batch: int = 16,
        max_bytes: int = 64 * 1024,
    ) -> None:
        super().__init__(transport, timeout, retries)
        self.max_batch = max_batch
        self.max_bytes = max_bytes
        self.batches_sent = 0
        self._staged: Dict[Address, List[bytes]] = {}
        self._staged_bytes: Dict[Address, int] = {}
        self._flush_scheduled: Set[Address] = set()

    def _send_call(
        self, destination: Address, encoded: bytes, deadline: Optional[float]
    ) -> None:
        staged = self._staged.setdefault(destination, [])
        staged.append(encoded)
        total = self._staged_bytes.get(destination, 0) + len(encoded)
        self._staged_bytes[destination] = total
        if len(staged) >= self.max_batch or total >= self.max_bytes:
            self._flush(destination)
            return
        if destination not in self._flush_scheduled:
            self._flush_scheduled.add(destination)
            asyncio.get_running_loop().call_soon(self._flush, destination)

    def _flush(self, destination: Address) -> None:
        self._flush_scheduled.discard(destination)
        staged = self._staged.pop(destination, None)
        self._staged_bytes.pop(destination, None)
        if staged:
            self._send_batch(destination, staged)

    async def call_many(
        self,
        destination: Address,
        calls: Sequence[Tuple[int, int, int, Any]],
        timeout: Optional[float] = None,
        retries: Optional[int] = None,
        context: Optional[CallContext] = None,
    ) -> List[Any]:
        """Issue many ``(prog, vers, proc, args)`` calls as batches.

        The ``await`` side of
        :meth:`repro.rpc.client.BatchingClient.call_many`: one shared
        context (one deadline budget, one trace) covers the whole
        batch, replies are awaited collectively, and outcomes come back
        in call order — the decoded result or the typed
        :class:`RpcError` *instance* that call would have raised.
        """
        return await self._call_many(destination, calls, timeout, retries, context)


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
        self.reply_max_batch = 16
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
        if len(staged) >= self.reply_max_batch:
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

    async def drain_tasks(self) -> None:
        """Wait for every in-flight handler task (test/shutdown helper)."""
        while self._handler_tasks:
            await asyncio.gather(*list(self._handler_tasks), return_exceptions=True)
