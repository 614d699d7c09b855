"""RPC client handles: retransmission, typed errors, and call batching.

:class:`RpcClient`'s split-phase pair (``start`` a call, ``gather`` a
set of calls) is the one attempt loop that single calls, ``call_many``,
multicast and the trader federation fan-out all run on.  ``gather`` is
also the one place a CALL frame is written: each round puts every due
call — a first attempt or a retransmission — on the wire as one BATCH
envelope per destination (back-to-back CALL frames in one ``send``), cut
at :data:`BATCH_FRAMES` frames or :data:`BATCH_BYTES` bytes.  Batching
never changes call semantics: each call keeps its own xid, deadline,
retransmission schedule, and typed error surface.
"""

from __future__ import annotations

import itertools
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

#: A BATCH envelope is cut before its frame count passes this …
BATCH_FRAMES = 16
#: … or its payload passes this many bytes (one sane write).
BATCH_BYTES = 64 * 1024


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
    """One call: :meth:`RpcClient.start` returns it unsent and
    :meth:`RpcClient.gather` sends and settles it.

    ``attempt`` is -1 until the first attempt is written and ``due`` is
    when the next one is.  A settled call holds its ``reply`` or its
    ``error`` — the typed :class:`RpcError` its attempts ended in, or the
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
        self.attempt = -1
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

    :meth:`start` prepares a call and returns its :class:`PendingCall`;
    :meth:`gather` sends the due calls of a set and waits in
    ``Transport.wait`` until enough of them are settled.  ``gather`` is
    the one attempt loop: every unsettled xid is retransmitted on its own
    attempt timer with the *same* xid, so the server's at-most-once cache
    can suppress re-execution, and each attempt's wait is carved out of
    the call context's *remaining* deadline budget
    (:meth:`CallContext.attempt_timeout`).  :meth:`call` is ``start``
    plus ``gather`` of one call; :meth:`call_many` is ``start`` of each
    plus one ``gather``.  The legacy ``timeout``/``retries``
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
        self.batches_sent = 0
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
        """Prepare one call and return its unsent handle; :meth:`gather`
        sends and settles it."""
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
        return call

    def gather(
        self, calls: Sequence[PendingCall], needed: Optional[int] = None
    ) -> None:
        """Send the due ``calls``, then wait until ``needed`` of them are
        settled (default: all).

        Each round writes every call that is due — a started call's first
        attempt, or an unsettled xid whose own attempt timer lapsed — as
        one BATCH envelope per destination.  A call whose attempts or
        deadline run out settles with :class:`DeadlineExceeded` (the
        budget lapsed) or :class:`RpcTimeout` (the attempts did).
        ``needed=0`` only sends: the calls are in flight on return, so a
        caller can do other work before gathering them.  Calls still
        unsettled on return stay live until a later ``gather`` or
        :meth:`retire`.
        """
        wanted = len(calls) if needed is None else needed
        pending = self._pending
        while True:
            now = self.transport.now()
            due = []
            for call in calls:
                if not call.done:
                    reply = pending.get(call.xid)
                    if reply is not None:
                        self._settle(call, now, reply=reply)
                    elif now >= call.due and self._attempt(call, now):
                        due.append(call)
            if due:
                self._send(due)
            live = {call.xid: call.due for call in calls if not call.done}
            short = wanted - len(calls) + len(live)
            if short <= 0 or not live:
                return
            # Wake once enough replies are in to make up the shortfall,
            # or when the earliest attempt timer lapses.
            self.transport.wait(
                lambda: len(pending.keys() & live.keys()) >= short,
                min(live.values()) - self.transport.now(),
            )

    def retire(self, calls: Sequence[PendingCall]) -> None:
        """Give up on the unsettled ``calls``: later replies are dropped
        and each one's span closes with outcome ``retired``."""
        now = self.transport.now()
        for call in calls:
            if not call.done:
                call.span.outcome = "retired"
                self._settle(call, now)

    def _attempt(self, call: PendingCall, now: float) -> bool:
        """The call is due: True when its next attempt should be written,
        else settle it with the error its attempts or deadline ended in."""
        attempt = call.attempt + 1
        if not attempt:  # the first attempt; start checked the deadline
            call.attempt = 0
            return True
        ctx = call.ctx
        attempts = ctx.retry.attempts
        labels = (str(call.prog), str(call.proc))
        if attempt < attempts:
            if ctx.expired(now):
                METRICS.inc("rpc.client.deadline_exceeded", labels)
                self._settle(call, now, error=DeadlineExceeded(
                    f"deadline expired after {attempt} attempt(s) to "
                    f"{call.destination} (trace {ctx.trace_id})"
                ))
                return False
            call.attempt = attempt
            self.retransmissions += 1
            METRICS.inc("rpc.client.retransmissions", labels)
            # Wire-level visibility: each extra attempt is an event on
            # the rpc span, exported with the chain.
            call.span.add_event("retransmission", at=now, attempt=attempt)
            return True
        if ctx.expired(now) and ctx.retry.attempt_timeout is None:
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
        return False

    def _send(self, due: List[PendingCall]) -> None:
        """Group the due calls by destination, in first-seen order, and
        write each group as envelopes of at most :data:`BATCH_FRAMES`
        frames and :data:`BATCH_BYTES` bytes."""
        if len(due) == 1:
            self._write(due[0].destination, due)
            return
        groups: Dict[Address, List[PendingCall]] = {}
        for call in due:
            groups.setdefault(call.destination, []).append(call)
        for destination, group in groups.items():
            envelope: List[PendingCall] = []
            size = 0
            for call in group:
                if envelope and (
                    len(envelope) == BATCH_FRAMES
                    or size + len(call.encoded) > BATCH_BYTES
                ):
                    self._write(destination, envelope)
                    envelope, size = [], 0
                envelope.append(call)
                size += len(call.encoded)
            self._write(destination, envelope)

    def _write(self, destination: Address, envelope: List[PendingCall]) -> None:
        """Put one envelope on the wire and arm each call's attempt timer.

        A lone call is its plain CALL frame; several are one BATCH
        payload.  A failed write (a refused connect, a broken connection)
        settles every call in the envelope with its error.
        """
        self.calls_sent += len(envelope)
        if len(envelope) == 1:
            payload = envelope[0].encoded
        else:
            self.batches_sent += 1
            METRICS.inc("rpc.client.batches_sent")
            METRICS.observe("rpc.client.batch_size", float(len(envelope)))
            payload = b"".join([call.encoded for call in envelope])
        try:
            self.transport.send(destination, payload)
        except CommunicationError as error:
            now = self.transport.now()
            for call in envelope:
                self._settle(call, now, error=error)
            return
        now = self.transport.now()
        for call in envelope:
            ctx = call.ctx
            call.due = now + ctx.attempt_timeout(now, ctx.retry.attempts - call.attempt)

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

    def call_many(
        self,
        destination: Address,
        calls: Sequence[Tuple[int, int, int, Any]],
        timeout: Optional[float] = None,
        retries: Optional[int] = None,
        context: Optional[CallContext] = None,
    ) -> List[Any]:
        """Issue many ``(prog, vers, proc, args)`` calls to one destination.

        One context covers them all (one deadline budget, one trace); each
        call is started and one :meth:`gather` writes them as BATCH
        envelopes.  Returns outcomes in call order: the decoded result,
        or the typed error instance that call would have raised.
        """
        ambient = current_context() if context is None else None
        ctx = self._effective_context(context, timeout, retries, ambient)
        started = [
            self.start(destination, prog, vers, proc, args, context=ctx)
            for prog, vers, proc, args in calls
        ]
        self.gather(started)
        if context is None and ambient is None:
            flush_context(ctx)
        outcomes: List[Any] = []
        for call in started:
            try:
                outcomes.append(call.result())
            except CommunicationError as error:
                outcomes.append(error)
        return outcomes

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
