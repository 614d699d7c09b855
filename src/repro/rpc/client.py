"""RPC client handles: retransmission, typed errors, and call batching.

:class:`RpcClient` is the one-call-per-write baseline; its split-phase
pair (``start`` a call, ``gather`` a set of calls) is the one attempt
loop that single calls, multicast and the trader federation fan-out all
run on.
:class:`BatchingClient` adds the wire fast lane: concurrent calls to the
same endpoint coalesce into a single BATCH payload (one ``send`` for
many CALL frames), flushed when a count, byte, or deadline-slack
watermark trips — see :class:`BatchBuffer`.  Batching never changes
call semantics: each call keeps its own xid, deadline, retransmission
schedule, and typed error surface.
"""

from __future__ import annotations

import itertools
import math
import threading
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.context import CallContext, SpanRecord, current_context
from repro.errors import CommunicationError
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
from repro.rpc.transport import Transport
from repro.rpc.xdr import decode_value
from repro.telemetry import sampling
from repro.telemetry.hub import flush_context
from repro.telemetry.metrics import METRICS


def reply_to_result(
    reply: RpcReply, destination: Address, prog: int, vers: int, proc: int
) -> Any:
    """Decode a reply body or raise the typed error its status maps to.

    One mapping for every caller (single calls, fan-outs, batches), so
    a given status always surfaces as the same exception type.
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


class PendingCall:
    """One call in flight: :meth:`RpcClient.start` returns it and
    :meth:`RpcClient.gather` settles it.

    A settled call holds its ``reply`` or its ``error`` — the typed
    :class:`RpcError` its attempts ended in, or the
    :class:`~repro.errors.CommunicationError` a send raised.  ``done`` is
    true once the call is settled or retired.
    """

    __slots__ = (
        "destination", "prog", "vers", "proc", "ctx", "xid", "encoded",
        "span", "owns_chain", "attempt", "due", "reply", "error", "done",
    )

    def __init__(
        self,
        destination: Address,
        prog: int,
        vers: int,
        proc: int,
        ctx: CallContext,
        span: SpanRecord,
        owns_chain: bool,
    ) -> None:
        self.destination = destination
        self.prog = prog
        self.vers = vers
        self.proc = proc
        self.ctx = ctx
        self.span = span
        self.owns_chain = owns_chain
        self.xid = 0
        self.encoded = b""
        self.attempt = 0
        self.due = 0.0
        self.reply: Optional[RpcReply] = None
        self.error: Optional[CommunicationError] = None
        self.done = False

    def result(self) -> Any:
        """The decoded result; raises the typed error the call ended in."""
        if self.error is not None:
            raise self.error
        return reply_to_result(
            self.reply, self.destination, self.prog, self.vers, self.proc
        )


class RpcClient:
    """Blocking client with a split-phase core.

    :meth:`start` sends a call and returns its :class:`PendingCall`;
    :meth:`gather` waits in ``Transport.wait`` until enough of a set of
    calls are settled.  ``gather`` is the one attempt loop: every
    unsettled xid is retransmitted on its own attempt timer with the
    *same* xid, so the server's at-most-once cache can suppress
    re-execution, and each attempt's wait is carved out of the call
    context's *remaining* deadline budget
    (:meth:`CallContext.attempt_timeout`).  :meth:`call` is ``start``
    plus ``gather`` of one call.  The legacy ``timeout``/``retries``
    kwargs remain as a shim that builds an equivalent context with total
    budget ``timeout * (retries + 1)``.

    Calls made while serving an RPC (e.g. a trader forwarding a federated
    import) inherit the ambient server-side context automatically, so one
    deadline and one trace id cover the whole cascade.
    """

    #: One counter for every client in the process: no two clients ever
    #: put the same live xid in front of one server's reply cache.
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
        self._awaited: Set[int] = set()
        self._pending: Dict[int, RpcReply] = {}
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
        if reply.xid in self._awaited:
            self._pending[reply.xid] = reply
        else:
            self.duplicate_replies_dropped += 1
            METRICS.inc("rpc.client.duplicate_replies_dropped")

    def retire_xid(self, xid: int) -> None:
        """Mark ``xid`` finished: later replies for it are dropped."""
        self._awaited.discard(xid)
        self._pending.pop(xid, None)

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

    # -- the split-phase pair ------------------------------------------------

    def start(
        self,
        destination: Address,
        prog: int,
        vers: int,
        proc: int,
        args: Any = None,
        context: Optional[CallContext] = None,
    ) -> PendingCall:
        """Send one call and return its handle; :meth:`gather` settles it."""
        return self._start(
            destination, prog, vers, proc,
            CODECS.encode_args(prog, vers, proc, args), None, None, context,
        )

    def _start(
        self,
        destination: Address,
        prog: int,
        vers: int,
        proc: int,
        body: bytes,
        timeout: Optional[float],
        retries: Optional[int],
        context: Optional[CallContext],
    ) -> PendingCall:
        ambient = current_context() if context is None else None
        ctx = self._effective_context(context, timeout, retries, ambient)
        now = self.transport.now()
        # A shim built with no ambient request owns its chain: nobody
        # else will ever see it, so it is flushed when the call settles
        # (a no-op unless an exporter is installed).
        call = PendingCall(
            destination, prog, vers, proc, ctx,
            SpanRecord("rpc", f"call {prog}:{proc}", started_at=now),
            context is None and ambient is None,
        )
        if ctx.expired(now):
            METRICS.inc("rpc.client.deadline_exceeded", (str(prog), str(proc)))
            self._settle(call, now, error=DeadlineExceeded(
                f"deadline expired before calling {destination} "
                f"(trace {ctx.trace_id})"
            ))
            return call
        call.xid = xid = next(self._xid_counter)
        call.encoded = RpcCall(
            xid, prog, vers, proc, body,
            deadline=ctx.deadline, trace_id=ctx.trace_id, hops=ctx.hops,
            sampled=sampling.mark(ctx),
        ).encode()
        self._awaited.add(xid)
        self._transmit(call, ctx.attempt_timeout(now, ctx.retry.attempts))
        return call

    def gather(
        self, calls: Sequence[PendingCall], needed: Optional[int] = None
    ) -> None:
        """Wait until ``needed`` of ``calls`` are settled (default: all).

        Each unsettled xid is retransmitted when its own attempt timer
        lapses; a call whose attempts or deadline run out settles with
        :class:`DeadlineExceeded` (the budget lapsed) or
        :class:`RpcTimeout` (the attempts did).  Calls still unsettled on
        return stay live until a later ``gather`` or :meth:`retire`.
        """
        wanted = len(calls) if needed is None else needed
        pending = self._pending
        while True:
            now = self.transport.now()
            settled = 0
            live: Set[int] = set()
            wake = math.inf
            for call in calls:
                if not call.done:
                    reply = pending.get(call.xid)
                    if reply is not None:
                        self._settle(call, now, reply=reply)
                    elif now >= call.due:
                        self._retransmit(call, now)
                if call.done:
                    settled += 1
                else:
                    live.add(call.xid)
                    wake = min(wake, call.due)
            if settled >= wanted or not live:
                return
            self.transport.wait(
                lambda: not pending.keys().isdisjoint(live),
                wake - self.transport.now(),
            )

    def retire(self, calls: Sequence[PendingCall]) -> None:
        """Give up on the unsettled ``calls``: later replies are dropped
        and each one's span closes with outcome ``retired``."""
        now = self.transport.now()
        for call in calls:
            if not call.done:
                call.span.outcome = "retired"
                self._settle(call, now)

    def _retransmit(self, call: PendingCall, now: float) -> None:
        """The attempt timer lapsed: send again, or settle with the error."""
        ctx = call.ctx
        attempts = ctx.retry.attempts
        attempt = call.attempt + 1
        labels = (str(call.prog), str(call.proc))
        if attempt < attempts:
            if ctx.expired(now):
                METRICS.inc("rpc.client.deadline_exceeded", labels)
                self._settle(call, now, error=DeadlineExceeded(
                    f"deadline expired after {attempt} attempt(s) to "
                    f"{call.destination} (trace {ctx.trace_id})"
                ))
                return
            call.attempt = attempt
            self.retransmissions += 1
            METRICS.inc("rpc.client.retransmissions", labels)
            # Wire-level visibility: each extra attempt is an event on
            # the rpc span, exported with the chain.
            call.span.add_event("retransmission", at=now, attempt=attempt)
            self._transmit(call, ctx.attempt_timeout(now, attempts - attempt))
        elif ctx.expired(now) and ctx.retry.attempt_timeout is None:
            METRICS.inc("rpc.client.deadline_exceeded", labels)
            self._settle(call, now, error=DeadlineExceeded(
                f"no reply from {call.destination} within the deadline "
                f"(trace {ctx.trace_id})"
            ))
        else:
            self._settle(call, now, error=RpcTimeout(
                f"no reply from {call.destination} for prog={call.prog} "
                f"proc={call.proc} after {attempts} attempt(s)"
            ))

    def _transmit(self, call: PendingCall, wait: float) -> None:
        """One attempt: put the CALL on the wire and arm its timer."""
        self.calls_sent += 1
        try:
            self._send_call(call.destination, call.encoded, call.ctx.deadline)
        except CommunicationError as error:  # a refused connect, a failed write
            self._settle(call, self.transport.now(), error=error)
            return
        call.due = self.transport.now() + wait

    def _settle(
        self,
        call: PendingCall,
        now: float,
        reply: Optional[RpcReply] = None,
        error: Optional[CommunicationError] = None,
    ) -> None:
        """Retire the xid, close the span, and keep the outcome."""
        self.retire_xid(call.xid)
        call.reply, call.error, call.done = reply, error, True
        span = call.span
        if reply is not None and reply.status is ReplyStatus.SHED:
            METRICS.inc("rpc.client.shed_received", (str(call.prog), str(call.proc)))
            span.add_event("shed", at=now, attempt=call.attempt)
        if error is not None:
            span.outcome = type(error).__name__
        span.elapsed = now - span.started_at
        call.ctx.record_span(span)
        if call.owns_chain:
            flush_context(call.ctx)

    def _send_call(
        self, destination: Address, encoded: bytes, deadline: Optional[float]
    ) -> None:
        """Put one encoded CALL on the wire.

        The seam :class:`BatchingClient` overrides to coalesce writes;
        the base client writes immediately, one message per payload.
        """
        self.transport.send(destination, encoded)

    # -- single calls --------------------------------------------------------

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
        call = self._start(
            destination, prog, vers, proc, body, timeout, retries, context
        )
        self.gather((call,))
        if call.error is not None:
            raise call.error
        return call.reply

    def ping(self, destination: Address, prog: int, vers: int = 1) -> bool:
        """True when the destination answers procedure 0 (NULL proc)."""
        try:
            self.call(destination, prog, vers, 0)
            return True
        except RpcError:
            return False

    def stats(self, destination: Address, **kwargs: Any) -> Any:
        """Fetch the STATS snapshot from the server at ``destination``.

        Every :class:`~repro.rpc.server.RpcServer` serves the well-known
        stats program; this is the client-side one-liner for it.
        """
        from repro.rpc import stats as stats_mod

        return stats_mod.fetch(self, destination, **kwargs)

    def close(self) -> None:
        dispatcher_for(self.transport).client = None


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
                return self._batch_attempts(ctx, destination, calls)
        finally:
            if owns_chain:
                flush_context(ctx)

    def _batch_attempts(
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
            self._awaited.add(xid)
            entries.append((xid, prog, vers, proc, call.encode()))
        try:
            replies = self._collect_replies(ctx, destination, entries)
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

    def _collect_replies(
        self, ctx: CallContext, destination: Address, entries
    ) -> Dict[int, RpcReply]:
        """Send batches and gather replies, retransmitting only gaps."""
        replies: Dict[int, RpcReply] = {}
        pending = self._pending
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
            self.transport.wait(lambda: pending.keys() >= outstanding.keys(), wait)
            for xid in list(outstanding):
                reply = pending.pop(xid, None)
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
