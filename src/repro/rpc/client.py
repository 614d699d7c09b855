"""RPC client handles: retransmission, typed errors, and call batching.

The protocol logic lives once, in :class:`_RpcClientCore`, as
coroutines; the classes here are the blocking flavour, which steps them,
and :mod:`repro.rpc.aio` holds the coroutine flavour, which awaits them
in virtual time.  :class:`RpcClient` is the one-call-per-write baseline.
:class:`BatchingClient` adds the wire fast lane: concurrent calls to the
same endpoint coalesce into a single BATCH payload (one ``send`` for
many CALL frames), flushed when a count, byte, or deadline-slack
watermark trips — see :class:`BatchBuffer`.  Batching never changes
call semantics: each call keeps its own xid, deadline, retransmission
schedule, and typed error surface.
"""

from __future__ import annotations

import itertools
import threading
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.context import CallContext, SpanRecord, current_context
from repro.net.endpoints import Address
from repro.rpc.codec import CODECS
from repro.rpc.dispatch import dispatcher_for
from repro.rpc.errors import (
    DeadlineExceeded,
    GarbageArguments,
    ProcedureUnavailable,
    ProgramUnavailable,
    RemoteFault,
    RpcError,
    RpcTimeout,
    ServerShedding,
)
from repro.rpc.message import ReplyStatus, RpcCall, RpcReply
from repro.rpc.stepper import step
from repro.rpc.transport import Transport
from repro.rpc.xdr import decode_value
from repro.telemetry import sampling
from repro.telemetry.hub import flush_context
from repro.telemetry.metrics import METRICS


def reply_to_result(
    reply: RpcReply, destination: Address, prog: int, vers: int, proc: int
) -> Any:
    """Decode a reply body or raise the typed error its status maps to.

    One mapping for every client flavour (sync, async, multicast), so a
    given status always surfaces as the same exception type.
    """
    if reply.status is ReplyStatus.SUCCESS:
        return CODECS.decode_result(prog, vers, proc, reply.body)
    if reply.status is ReplyStatus.PROG_UNAVAIL:
        raise ProgramUnavailable(f"program {prog} v{vers} not at {destination}")
    if reply.status is ReplyStatus.PROC_UNAVAIL:
        raise ProcedureUnavailable(
            f"procedure {proc} of program {prog} not at {destination}"
        )
    if reply.status is ReplyStatus.GARBAGE_ARGS:
        raise GarbageArguments(f"arguments rejected by {destination}")
    if reply.status is ReplyStatus.DEADLINE_EXCEEDED:
        raise DeadlineExceeded(
            f"{destination} rejected prog={prog} proc={proc}: deadline expired"
        )
    if reply.status is ReplyStatus.SHED:
        # The server declined under load while our budget was still
        # live.  Surface it as immediately retryable — the caller
        # should try an alternate offer, not hammer this server.
        raise ServerShedding(
            f"{destination} shed prog={prog} proc={proc} under load; "
            f"retry against an alternate offer"
        )
    raise remote_fault(reply.body)


def remote_fault(body: bytes) -> RemoteFault:
    """The error a REMOTE_FAULT body describes; servers send ``{kind, detail}``."""
    fault = decode_value(body)
    if not isinstance(fault, dict):
        return RemoteFault("Error", repr(fault))
    return RemoteFault(str(fault.get("kind", "Error")), str(fault.get("detail", "")))


class _RpcClientCore:
    """The one client body both flavours drive.

    Context resolution, the ``rpc`` span, xid minting, the attempt loop
    with its retransmission events, SHED accounting, the
    deadline-vs-timeout classification and xid retirement are written
    once here, as coroutines.  :class:`RpcClient` steps them to
    completion on the calling thread; :class:`~repro.rpc.aio.AsyncRpcClient`
    awaits them on an event loop.  What differs per flavour sits behind
    five seams: ``_expect(xid)`` registers interest in a reply,
    ``_deliver(reply)`` hands an arriving reply to whoever expects it
    (false when nobody does), ``_wait_replies(xids, timeout)`` waits
    until every xid is answered (true) or the timeout lapses (false),
    ``_take(xid)`` claims the reply if it came, and ``retire_xid(xid)``
    forgets the xid.
    ``_send_call`` is the sixth, for :class:`BatchingClient`.

    Retransmits with the *same* xid on timeout so the server's at-most-once
    cache can suppress re-execution.  Timing is governed by a
    :class:`~repro.context.CallContext`: each attempt's wait is carved out
    of the context's *remaining* deadline budget
    (:meth:`CallContext.attempt_timeout`).  The legacy ``timeout``/
    ``retries`` kwargs remain as a shim that builds an equivalent context
    with total budget ``timeout * (retries + 1)``.

    Calls made while serving an RPC (e.g. a trader forwarding a federated
    import) inherit the ambient server-side context automatically, so one
    deadline and one trace id cover the whole cascade.
    """

    #: One counter for every client of either flavour: a process mixing
    #: both never reuses a live xid against one server's reply cache.
    _xid_counter = itertools.count(1)

    def __init__(
        self,
        transport: Transport,
        timeout: float = 1.0,
        retries: int = 3,
    ) -> None:
        self.transport = transport
        self.timeout = timeout
        self.retries = retries
        self.calls_sent = 0
        self.retransmissions = 0
        self.duplicate_replies_dropped = 0
        dispatcher_for(transport).client = self

    @property
    def address(self) -> Address:
        return self.transport.local_address

    def handle_reply(self, source: Address, reply: RpcReply) -> None:
        """Entry point from the dispatcher.

        A reply nobody is waiting for — its xid finished, or was never
        issued by this client — is dropped and counted, so a peer
        spraying unsolicited replies cannot grow the client's memory.
        """
        if not self._deliver(reply):
            self.duplicate_replies_dropped += 1
            METRICS.inc("rpc.client.duplicate_replies_dropped")

    def _effective_context(
        self,
        context: Optional[CallContext],
        timeout: Optional[float],
        retries: Optional[int],
        ambient: Optional[CallContext],
    ) -> CallContext:
        """Resolve the context governing one call.

        An explicit ``context`` wins outright.  Otherwise a shim context is
        built from the legacy kwargs (or the client's configured defaults) —
        and when this call happens *inside* an RPC handler, the ambient
        request context narrows it: the shim inherits the trace id, span
        chain (list and lock), hop budget, and scope, and its deadline is
        capped by the caller's remaining budget.  Local configuration still
        paces attempts; the inherited deadline bounds the total.
        """
        if context is not None:
            return context
        shim = CallContext.from_legacy(
            self.timeout if timeout is None else timeout,
            self.retries if retries is None else retries,
            self.transport.now(),
            trace_id=ambient.trace_id if ambient is not None else None,
        )
        if ambient is not None:
            shim.share_chain(ambient)
            if ambient.deadline is not None:
                shim.deadline = min(shim.deadline, ambient.deadline)
            shim.hops = ambient.hops
            shim.visited = ambient.visited
            shim.sampled = ambient.sampled
        return shim

    async def _call_raw(
        self,
        destination: Address,
        prog: int,
        vers: int,
        proc: int,
        body: bytes,
        timeout: Optional[float],
        retries: Optional[int],
        context: Optional[CallContext],
    ) -> RpcReply:
        ambient = current_context() if context is None else None
        ctx = self._effective_context(context, timeout, retries, ambient)
        # A shim built with no ambient request owns its chain: nobody
        # else will ever see it, so flush it at the reply boundary
        # (a no-op unless an exporter is installed).
        owns_chain = context is None and ambient is None
        try:
            with ctx.span("rpc", f"call {prog}:{proc}", self.transport.now) as span:
                return await self._call_attempts(
                    ctx, destination, prog, vers, proc, body, span
                )
        finally:
            if owns_chain:
                flush_context(ctx)

    async def _call_attempts(
        self,
        ctx: CallContext,
        destination: Address,
        prog: int,
        vers: int,
        proc: int,
        body: bytes,
        span: Optional[SpanRecord] = None,
    ) -> RpcReply:
        now = self.transport.now()
        labels = (str(prog), str(proc))
        if ctx.expired(now):
            METRICS.inc("rpc.client.deadline_exceeded", labels)
            raise DeadlineExceeded(
                f"deadline expired before calling {destination} "
                f"(trace {ctx.trace_id})"
            )
        xid = next(self._xid_counter)
        call = RpcCall(
            xid, prog, vers, proc, body,
            deadline=ctx.deadline, trace_id=ctx.trace_id, hops=ctx.hops,
            sampled=sampling.mark(ctx),
        )
        encoded = call.encode()
        # One expectation per xid, shared across attempts: whichever
        # attempt's reply lands first resolves the call.
        self._expect(xid)
        awaited = {xid}
        attempts = ctx.retry.attempts
        try:
            for attempt in range(attempts):
                now = self.transport.now()
                if ctx.expired(now):
                    METRICS.inc("rpc.client.deadline_exceeded", labels)
                    raise DeadlineExceeded(
                        f"deadline expired after {attempt} attempt(s) to "
                        f"{destination} (trace {ctx.trace_id})"
                    )
                if attempt:
                    self.retransmissions += 1
                    METRICS.inc("rpc.client.retransmissions", labels)
                    if span is not None:
                        # Wire-level visibility: each extra attempt is an
                        # event on the rpc span, exported with the chain.
                        span.add_event("retransmission", at=now, attempt=attempt)
                self.calls_sent += 1
                wait = ctx.attempt_timeout(now, attempts - attempt)
                self._send_call(destination, encoded, ctx.deadline)
                if await self._wait_replies(awaited, wait):
                    reply = self._take(xid)
                    if reply.status is ReplyStatus.SHED:
                        METRICS.inc("rpc.client.shed_received", labels)
                        if span is not None:
                            span.add_event(
                                "shed", at=self.transport.now(), attempt=attempt
                            )
                    return reply
            if ctx.expired(self.transport.now()) and ctx.retry.attempt_timeout is None:
                METRICS.inc("rpc.client.deadline_exceeded", labels)
                raise DeadlineExceeded(
                    f"no reply from {destination} within the deadline "
                    f"(trace {ctx.trace_id})"
                )
            raise RpcTimeout(
                f"no reply from {destination} for prog={prog} proc={proc} "
                f"after {attempts} attempt(s)"
            )
        finally:
            self.retire_xid(xid)

    def _send_call(
        self, destination: Address, encoded: bytes, deadline: Optional[float]
    ) -> None:
        """Put one encoded CALL on the wire.

        The seam :class:`BatchingClient` overrides to coalesce writes;
        the base clients write immediately, one message per payload.
        """
        self.transport.send(destination, encoded)

    def stats(self, destination: Address, **kwargs: Any) -> Any:
        """Fetch the STATS snapshot from the server at ``destination``.

        Every :class:`~repro.rpc.server.RpcServer` serves the well-known
        stats program; this is the client-side one-liner for it (the
        snapshot on the blocking client, an awaitable of it on the
        coroutine client — whatever ``call`` returns).
        """
        from repro.rpc import stats as stats_mod

        return stats_mod.fetch(self, destination, **kwargs)

    def close(self) -> None:
        dispatcher_for(self.transport).client = None


class RpcClient(_RpcClientCore):
    """Blocking client: steps the shared body on the calling thread.

    Its wait seam blocks in ``Transport.wait`` until the awaited replies
    have landed in ``_pending``, so the body never suspends.
    """

    def __init__(
        self,
        transport: Transport,
        timeout: float = 1.0,
        retries: int = 3,
    ) -> None:
        super().__init__(transport, timeout, retries)
        self._awaited: Set[int] = set()
        self._pending: Dict[int, RpcReply] = {}

    def _expect(self, xid: int) -> None:
        self._awaited.add(xid)

    def _deliver(self, reply: RpcReply) -> bool:
        if reply.xid not in self._awaited:
            return False
        self._pending[reply.xid] = reply
        return True

    async def _wait_replies(self, xids, timeout: float) -> bool:
        pending = self._pending
        return self.transport.wait(lambda: pending.keys() >= xids, timeout)

    def _take(self, xid: int) -> Optional[RpcReply]:
        return self._pending.pop(xid, None)

    def retire_xid(self, xid: int) -> None:
        """Mark ``xid`` finished: later replies for it are dropped."""
        self._awaited.discard(xid)
        self._pending.pop(xid, None)

    def call(
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
        reply = self.call_raw(
            destination, prog, vers, proc,
            CODECS.encode_args(prog, vers, proc, args), timeout, retries,
            context,
        )
        return reply_to_result(reply, destination, prog, vers, proc)

    def call_raw(
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
        return step(
            self._call_raw(
                destination, prog, vers, proc, body, timeout, retries, context
            )
        )

    def ping(self, destination: Address, prog: int, vers: int = 1) -> bool:
        """True when the destination answers procedure 0 (NULL proc)."""
        try:
            self.call(destination, prog, vers, 0)
            return True
        except RpcError:
            return False


class BatchBuffer:
    """Per-destination staging area for encoded CALL frames.

    Three flush watermarks, checked on every :meth:`add`:

    * ``max_batch`` — staged call count;
    * ``max_bytes`` — staged payload bytes (keeps one batch inside a
      sane write size);
    * ``flush_slack`` — earliest-deadline slack: the moment the most
      urgent staged call has less than this much budget left, the batch
      goes out now rather than waiting for stragglers.

    Flushes are tracked per destination by a generation counter so a
    lingering leader can tell "someone already flushed my batch" from
    "still mine to send" without holding the lock while sleeping.
    """

    def __init__(
        self,
        max_batch: int = 16,
        max_bytes: int = 64 * 1024,
        flush_slack: float = 0.005,
    ) -> None:
        self.max_batch = max_batch
        self.max_bytes = max_bytes
        self.flush_slack = flush_slack
        self._lock = threading.Lock()
        self._staged: Dict[Address, List[bytes]] = {}
        self._bytes: Dict[Address, int] = {}
        self._earliest: Dict[Address, float] = {}
        self._generation: Dict[Address, int] = {}

    def add(
        self,
        destination: Address,
        encoded: bytes,
        deadline: Optional[float],
        now: float,
    ) -> Tuple[str, Any]:
        """Stage one encoded CALL.

        Returns ``("flush", payloads)`` when a watermark tripped (the
        caller must send them), ``("lead", generation)`` when this entry
        opened an empty buffer (the caller should linger then
        :meth:`take`), or ``("wait", None)`` when an existing leader
        will flush it.
        """
        with self._lock:
            staged = self._staged.setdefault(destination, [])
            leader = not staged
            staged.append(encoded)
            self._bytes[destination] = self._bytes.get(destination, 0) + len(encoded)
            if deadline is not None:
                earliest = self._earliest.get(destination)
                if earliest is None or deadline < earliest:
                    self._earliest[destination] = deadline
            if (
                len(staged) >= self.max_batch
                or self._bytes[destination] >= self.max_bytes
                or (
                    destination in self._earliest
                    and self._earliest[destination] - now <= self.flush_slack
                )
            ):
                return "flush", self._pop(destination)
            if leader:
                return "lead", self._generation.get(destination, 0)
            return "wait", None

    def take(self, destination: Address, generation: int) -> List[bytes]:
        """Claim the staged batch if generation still matches, else []."""
        with self._lock:
            if self._generation.get(destination, 0) != generation:
                return []
            return self._pop(destination)

    def flushed(self, destination: Address, generation: int) -> bool:
        with self._lock:
            return self._generation.get(destination, 0) != generation

    def _pop(self, destination: Address) -> List[bytes]:
        payloads = self._staged.pop(destination, [])
        self._bytes.pop(destination, None)
        self._earliest.pop(destination, None)
        self._generation[destination] = self._generation.get(destination, 0) + 1
        return payloads


class BatchingClient(RpcClient):
    """RPC client that coalesces concurrent calls into BATCH writes.

    Two modes, freely mixed:

    * :meth:`call_many` — the explicit fast lane: hand over a sequence
      of calls for one endpoint and they ship as back-to-back CALL
      frames in watermark-sized payloads, wait collectively, and
      return per-call outcomes (result value or the typed error
      *instance*) in order.  No linger delay.
    * Transparent coalescing — plain :meth:`call` from concurrent
      threads routes through :class:`BatchBuffer`: the first call to
      touch an idle destination becomes the *leader*, lingers up to
      ``linger`` seconds for companions, then flushes everyone in one
      write.  Watermarks (count/bytes/deadline slack) cut the linger
      short.  ``linger=0`` disables coalescing entirely.

    Per-call semantics are untouched: same xids, same retransmission
    pacing, same at-most-once behaviour server-side, and the wire
    format is plain concatenated CALL frames, so a non-batching server
    reads them back-to-back.
    """

    def __init__(
        self,
        transport: Transport,
        timeout: float = 1.0,
        retries: int = 3,
        max_batch: int = 16,
        max_bytes: int = 64 * 1024,
        linger: float = 0.001,
        flush_slack: float = 0.005,
    ) -> None:
        super().__init__(transport, timeout, retries)
        self.max_batch = max_batch
        self.max_bytes = max_bytes
        self.linger = linger
        self.batches_sent = 0
        self._buffer = BatchBuffer(max_batch, max_bytes, flush_slack)

    # -- transparent coalescing -------------------------------------------

    def _send_call(
        self, destination: Address, encoded: bytes, deadline: Optional[float]
    ) -> None:
        if self.linger <= 0:
            self.transport.send(destination, encoded)
            return
        action, data = self._buffer.add(
            destination, encoded, deadline, self.transport.now()
        )
        if action == "flush":
            self._send_batch(destination, data)
        elif action == "lead":
            generation = data
            self.transport.wait(
                lambda: self._buffer.flushed(destination, generation),
                self.linger,
            )
            payloads = self._buffer.take(destination, generation)
            if payloads:
                self._send_batch(destination, payloads)
        # "wait": the current leader (or a watermark) flushes it for us
        # within ``linger``.

    # -- explicit batch API -----------------------------------------------

    def call_many(
        self,
        destination: Address,
        calls: Sequence[Tuple[int, int, int, Any]],
        timeout: Optional[float] = None,
        retries: Optional[int] = None,
        context: Optional[CallContext] = None,
    ) -> List[Any]:
        """Issue many ``(prog, vers, proc, args)`` calls as batches.

        Returns outcomes in call order: the decoded result, or the
        typed :class:`RpcError` instance that call would have raised.
        All calls share one context (one deadline budget, one trace).
        """
        return step(self._call_many(destination, calls, timeout, retries, context))

    # -- the batch lane: coroutine bodies, stepped by call_many -----------
    #
    # They wait on the client seams (``_expect`` / ``_wait_replies`` /
    # ``_take``) collectively, for a whole set of xids.

    async def _call_many(
        self,
        destination: Address,
        calls: Sequence[Tuple[int, int, int, Any]],
        timeout: Optional[float],
        retries: Optional[int],
        context: Optional[CallContext],
    ) -> List[Any]:
        calls = list(calls)
        if not calls:
            return []
        ambient = current_context() if context is None else None
        ctx = self._effective_context(context, timeout, retries, ambient)
        owns_chain = context is None and ambient is None
        try:
            with ctx.span(
                "rpc", f"call_many x{len(calls)}", self.transport.now
            ):
                return await self._batch_attempts(ctx, destination, calls)
        finally:
            if owns_chain:
                flush_context(ctx)

    async def _batch_attempts(
        self,
        ctx: CallContext,
        destination: Address,
        calls: Sequence[Tuple[int, int, int, Any]],
    ) -> List[Any]:
        entries = []
        sampled = sampling.mark(ctx)
        for prog, vers, proc, args in calls:
            xid = next(self._xid_counter)
            call = RpcCall(
                xid, prog, vers, proc,
                CODECS.encode_args(prog, vers, proc, args),
                deadline=ctx.deadline, trace_id=ctx.trace_id, hops=ctx.hops,
                sampled=sampled,
            )
            self._expect(xid)
            entries.append((xid, prog, vers, proc, call.encode()))
        try:
            replies = await self._collect_replies(ctx, destination, entries)
            expired = ctx.expired(self.transport.now())
            outcomes: List[Any] = []
            for xid, prog, vers, proc, __ in entries:
                reply = replies.get(xid)
                if reply is None:
                    if expired:
                        outcomes.append(DeadlineExceeded(
                            f"no reply from {destination} for prog={prog} "
                            f"proc={proc} within the deadline "
                            f"(trace {ctx.trace_id})"
                        ))
                    else:
                        outcomes.append(RpcTimeout(
                            f"no reply from {destination} for prog={prog} "
                            f"proc={proc} after {ctx.retry.attempts} attempt(s)"
                        ))
                    continue
                try:
                    outcomes.append(
                        reply_to_result(reply, destination, prog, vers, proc)
                    )
                except RpcError as error:
                    outcomes.append(error)
            return outcomes
        finally:
            for xid, *__ in entries:
                self.retire_xid(xid)

    async def _collect_replies(
        self, ctx: CallContext, destination: Address, entries
    ) -> Dict[int, RpcReply]:
        """Send batches and gather replies, retransmitting only gaps."""
        replies: Dict[int, RpcReply] = {}
        outstanding = {
            xid: (prog, proc, encoded)
            for xid, prog, vers, proc, encoded in entries
        }
        attempts = ctx.retry.attempts
        for attempt in range(attempts):
            now = self.transport.now()
            if ctx.expired(now):
                break
            if attempt:
                for prog, proc, __ in outstanding.values():
                    self.retransmissions += 1
                    METRICS.inc(
                        "rpc.client.retransmissions", (str(prog), str(proc))
                    )
            self.calls_sent += len(outstanding)
            self._send_batches(
                destination, [encoded for __, __, encoded in outstanding.values()]
            )
            wait = ctx.attempt_timeout(now, attempts - attempt)
            await self._wait_replies(outstanding.keys(), wait)
            for xid in list(outstanding):
                reply = self._take(xid)
                if reply is not None:
                    replies[xid] = reply
                    del outstanding[xid]
            if not outstanding:
                break
        return replies

    def _send_batches(
        self, destination: Address, encoded_calls: List[bytes]
    ) -> None:
        """Ship encoded CALLs in watermark-sized BATCH payloads."""
        chunk: List[bytes] = []
        chunk_bytes = 0
        for encoded in encoded_calls:
            if chunk and (
                len(chunk) >= self.max_batch
                or chunk_bytes + len(encoded) > self.max_bytes
            ):
                self._send_batch(destination, chunk)
                chunk, chunk_bytes = [], 0
            chunk.append(encoded)
            chunk_bytes += len(encoded)
        if chunk:
            self._send_batch(destination, chunk)

    def _send_batch(self, destination: Address, payloads: List[bytes]) -> None:
        self.batches_sent += 1
        METRICS.inc("rpc.client.batches_sent")
        METRICS.observe("rpc.client.batch_size", float(len(payloads)))
        self.transport.send(destination, b"".join(payloads))
