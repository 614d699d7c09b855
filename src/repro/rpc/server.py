"""RPC server: program registry, admission control, at-most-once cache.

Inbound calls pass through deadline-aware **admission control** before
any handler runs (the Controlling/Communication-level scaling concern of
Fig. 6: under overload a server must not burn handler time on work whose
deadline will lapse mid-execution):

* **arrival check** — a call whose wire deadline has already passed is
  answered ``DEADLINE_EXCEEDED``; a call whose *remaining* budget is
  smaller than the server's service-time estimate for that procedure
  (the ``rpc.server.handler_seconds`` histogram quantile) is answered
  ``SHED`` without executing;
* **bounded, deadline-ordered queue** — admitted calls enter a bounded
  queue ordered by deadline (ties by arrival); on overflow the entry
  with the *latest* deadline is shed, so urgent work displaces
  patient work and queue depth never exceeds the bound;
* **dequeue re-check** — queued work that aged out while waiting is
  dropped before execution (``DEADLINE_EXCEEDED`` if the budget lapsed,
  ``SHED`` if what is left no longer covers the estimate).

Duplicate retransmissions of a call that is still queued or executing
are coalesced (no reply — the original will answer), closing the
at-most-once gap a queued duplicate would otherwise open.  Duplicates
of a finished call are answered from the :class:`ReplyCache`.
"""

from __future__ import annotations

import heapq
import inspect
import itertools
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set, Tuple, Union

from repro.context import CallContext, SpanRecord, use_context
from repro.errors import ConfigurationError
from repro.net.endpoints import Address
from repro.rpc.codec import CODECS
from repro.rpc.dispatch import dispatcher_for
from repro.rpc.errors import XdrError
from repro.rpc.message import ReplyStatus, RpcCall, RpcReply
from repro.rpc.transport import Transport
from repro.rpc.xdr import encode_value
from repro.rpc import stats as stats_mod
from repro.telemetry.hub import flush_context, spans_wanted
from repro.telemetry.log import LOG
from repro.telemetry.metrics import METRICS, MetricsRegistry

Handler = Callable[..., Any]


class AwaitableResult(TypeError):
    """A handler returned an awaitable (a coroutine function's result, say).

    The server never runs one: it is closed unrun and the call is
    answered ``REMOTE_FAULT`` with this kind.
    """


@dataclass(frozen=True)
class AdmissionPolicy:
    """How a server decides which inbound calls are worth executing.

    ``shed`` turns the statistical rejection on; with it off the queue
    still bounds memory but every live-deadline call is admitted (the
    pre-admission behaviour, used as the bench baseline).

    ``capacity`` bounds the admission queue.  The literal ``"auto"``
    derives the bound from what the server observes (see
    :func:`derive_capacity`): the queue holds no more calls than a
    typical arrival's deadline budget can absorb at the measured service
    time — Little's law applied to the admission queue.  Until enough
    samples exist the queue runs at ``max_capacity``; the derived value
    is clamped to ``[min_capacity, max_capacity]``.

    ``defer_while_busy`` makes the queue a real waiting line: arrivals
    during handler execution are parked and drained deadline-first when
    the handler finishes.  It defaults to **off** because the historic
    servers process nested arrivals reentrantly — cyclic federation
    topologies (trader A importing from B while B imports from A) rely
    on that to answer each other mid-call.  Dedicated worker servers
    (the overload bench, TCP fleets) turn it on to get deadline-ordered
    scheduling under load.
    """

    capacity: Union[int, str] = 256
    quantile: float = 0.95
    min_samples: int = 5
    shed: bool = True
    defer_while_busy: bool = False
    min_capacity: int = 8
    max_capacity: int = 4096


#: Labels under which the server aggregates observations across all its
#: procedures — the per-procedure split admission shedding uses would
#: fragment the samples a whole-queue capacity estimate needs.
_ALL_PROCS = ("*", "*")

#: Quantile of the arrival-budget distribution that stands in for the
#: "typical deadline budget" in the capacity derivation.
BUDGET_QUANTILE = 0.5


def derive_capacity(
    service_seconds: float,
    budget_seconds: float,
    floor: int = 8,
    ceiling: int = 4096,
) -> int:
    """Queue bound from Little's law: ``ceil(budget / service)``, clamped.

    A queued call only makes sense if it can still be served before a
    typical deadline lapses; with one execution stream working through
    the queue, at most ``budget / service`` calls ahead of an arrival
    can drain in time.  Queueing deeper than that admits work that is
    doomed to age out — exactly what shedding exists to refuse early.
    """
    if service_seconds <= 0:
        return ceiling
    derived = math.ceil(budget_seconds / service_seconds)
    return int(min(ceiling, max(floor, derived)))


class AdmissionQueue:
    """Bounded priority queue ordered by ``(deadline, arrival)``.

    Calls without a deadline sort last (an infinite deadline: they can
    wait).  The ``(deadline, seq)`` key is a total order — ties on
    deadline resolve by arrival sequence — so pops are deterministic.
    On overflow the *latest-deadline* entry is evicted and returned to
    the caller to shed; the arriving entry itself may be that loser.
    Thread-safe: TCP reader threads enqueue concurrently.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ConfigurationError(f"admission queue capacity must be >= 1: {capacity}")
        self.capacity = capacity
        # heap entries: (order, seq, item, key); the unique seq breaks
        # deadline ties by arrival and keeps items out of comparisons
        self._heap: List[Tuple[float, int, Any, Any]] = []
        self._seq = itertools.count()
        self._keys: Set[Any] = set()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._heap)

    def pending(self, key: Any) -> bool:
        """True while an entry with this coalescing key is queued."""
        with self._lock:
            return key in self._keys

    def push(self, item: Any, deadline: Optional[float], key: Any = None) -> Optional[Any]:
        """Admit ``item``; returns the item shed to stay within bounds.

        The returned item is ``None`` when the queue had room, the
        evicted latest-deadline entry when the arrival displaced it, or
        ``item`` itself when the arrival *is* the latest-deadline entry.
        """
        order = math.inf if deadline is None else deadline
        with self._lock:
            seq = next(self._seq)
            if len(self._heap) >= self.capacity:
                worst = max(range(len(self._heap)), key=lambda i: self._heap[i][:2])
                if (order, seq) >= self._heap[worst][:2]:
                    return item  # arrival loses: it is the latest-deadline entry
                evicted = self._heap[worst]
                self._heap[worst] = self._heap[-1]
                self._heap.pop()
                heapq.heapify(self._heap)
                if evicted[3] is not None:
                    self._keys.discard(evicted[3])
                self._push_locked(order, seq, item, key)
                return evicted[2]
            self._push_locked(order, seq, item, key)
            return None

    def pop(self) -> Optional[Any]:
        """The earliest-deadline entry, or ``None`` when empty."""
        with self._lock:
            if not self._heap:
                return None
            __, __, item, key = heapq.heappop(self._heap)
            if key is not None:
                self._keys.discard(key)
            return item

    def _push_locked(self, order: float, seq: int, item: Any, key: Any) -> None:
        heapq.heappush(self._heap, (order, seq, item, key))
        if key is not None:
            self._keys.add(key)


#: Bound of every server's at-most-once window: 4 MiB, half for small
#: replies and half for large ones (:class:`ReplyCache`).  A small reply
#: is charged at most 1 KiB, so the last 2 048 small replies (write
#: acks, RENEW, WITHDRAW, naming and browser replies) are always cached,
#: however many large ones pass; large replies (IMPORT answers) share
#: the other 2 MiB: about the last 20 of 100 kB.
REPLY_CACHE_BYTES = 4 * 1024 * 1024

#: The largest payload of a small reply: charged at most 1 KiB.
_SMALL_REPLY = 768

#: What one cached reply pins beyond its payload: the ``bytes`` header,
#: the ``(Address, xid)`` key and the ``OrderedDict`` node.  Measured
#: with ``tracemalloc`` on CPython 3.11 at 190–290 B per entry.  Without
#: this charge a byte bound would hold tens of thousands of tiny replies.
_ENTRY_OVERHEAD = 256


class ReplyCache:
    """The at-most-once window: encoded replies by ``(caller, xid)``.

    Bounded by bytes, not entries: each entry is charged ``len(data) +
    _ENTRY_OVERHEAD``.  Small replies (at most ``_SMALL_REPLY`` bytes)
    and large ones queue apart, each queue under half of ``limit`` with
    its oldest entries evicted first, so a run of large replies never
    pushes a small one out.  A reply whose own charge exceeds its half
    is not cached and evicts nothing.  Thread-safe: TCP reader threads
    finish calls concurrently.
    """

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.evicted = 0
        # (small, large): each queue's entries, and what they are charged.
        self._queues: Tuple["OrderedDict[Tuple[Address, int], bytes]", ...] = (
            OrderedDict(),
            OrderedDict(),
        )
        self._charged = [0, 0]
        self._lock = threading.Lock()

    @property
    def charged(self) -> int:
        return sum(self._charged)

    def __len__(self) -> int:
        return sum(map(len, self._queues))

    def get(self, key: Tuple[Address, int]) -> Optional[bytes]:
        small, large = self._queues
        data = small.get(key)
        return large.get(key) if data is None else data

    def put(self, key: Tuple[Address, int], data: bytes) -> None:
        """Cache ``data`` as the newest entry of its queue, replacing any
        under ``key``."""
        charge = len(data) + _ENTRY_OVERHEAD
        share = self.limit // 2
        evicted = 0
        with self._lock:
            for size_class, queue in enumerate(self._queues):
                replaced = queue.pop(key, None)
                if replaced is not None:
                    self._charged[size_class] -= len(replaced) + _ENTRY_OVERHEAD
            if charge > share:
                return
            size_class = 0 if len(data) <= _SMALL_REPLY else 1
            queue = self._queues[size_class]
            queue[key] = data
            self._charged[size_class] += charge
            while self._charged[size_class] > share:
                __, oldest = queue.popitem(last=False)
                self._charged[size_class] -= len(oldest) + _ENTRY_OVERHEAD
                evicted += 1
            self.evicted += evicted
        if evicted:
            METRICS.inc("rpc.server.reply_cache_evicted", amount=evicted)


class RpcProgram:
    """A numbered RPC program: a set of procedures sharing prog/vers."""

    def __init__(self, prog: int, vers: int = 1, name: str = "") -> None:
        self.prog = prog
        self.vers = vers
        self.name = name or f"prog-{prog}"
        self._procedures: Dict[int, Handler] = {}
        self._names: Dict[int, str] = {}

    def register(self, proc: int, handler: Handler, name: str = "") -> None:
        """Bind procedure number ``proc`` to ``handler``.

        Handlers receive the decoded argument value (usually a dict) and
        return any marshallable value.
        """
        if proc in self._procedures:
            raise ConfigurationError(f"{self.name}: procedure {proc} already bound")
        self._procedures[proc] = handler
        self._names[proc] = name or getattr(handler, "__name__", f"proc-{proc}")

    def lookup(self, proc: int) -> Optional[Handler]:
        if proc == 0 and 0 not in self._procedures:
            # ONC RPC convention: procedure 0 is the NULL procedure,
            # always present, used for pings and liveness probes.
            return lambda args: None
        return self._procedures.get(proc)

    def procedures(self) -> Dict[int, str]:
        """proc number -> registered name, for introspection."""
        return dict(self._names)


class RpcServer:
    """Serves one or more programs on a transport.

    Implements the *at-most-once* semantics the paper's communication level
    inherits from Sun RPC: the encoded reply is cached per ``(caller,
    xid)`` so a retransmitted request gets the recorded bytes back instead
    of re-running the procedure — the difference is measurable in
    ``benchmarks/bench_ablation_at_most_once.py``.  The window is
    ``REPLY_CACHE_BYTES`` of replies, each charged its payload plus a fixed
    per-entry overhead, split between small and large replies
    (:class:`ReplyCache`): the last 2 048 replies of at most 768 B are
    always in it.  A duplicate of a reply evicted from it re-executes.

    Every inbound call passes through the admission control described in
    the module docstring; ``AdmissionPolicy`` tunes it.  ``SHED`` replies
    are never cached — a shed is not an execution, and a later
    retransmission may be admitted once load clears.
    """

    def __init__(
        self,
        transport: Transport,
        at_most_once: bool = True,
        admission: Optional[AdmissionPolicy] = None,
    ) -> None:
        self.transport = transport
        self.at_most_once = at_most_once
        self.admission = admission or AdmissionPolicy()
        self._programs: Dict[Tuple[int, int], RpcProgram] = {}
        self._reply_cache = ReplyCache(REPLY_CACHE_BYTES)
        self._auto_capacity = self.admission.capacity == "auto"
        initial_capacity = (
            self.admission.max_capacity if self._auto_capacity else self.admission.capacity
        )
        self._queue = AdmissionQueue(initial_capacity)
        # Admission estimates come from *this server's* observations, not
        # the process-global registry: many servers share one process in
        # tests and simulations, and a fresh server must not shed on the
        # service times of an unrelated one.  The same observations still
        # feed ``METRICS`` for reporting (unchanged).
        self._service_times = MetricsRegistry()
        self._in_flight: Set[Tuple[Address, int]] = set()
        self._active = 0  # drain-loop depth (reentrant under virtual time)
        # Per-thread stack of reply-coalescing scopes opened by
        # handle_batch: (expected (source, xid) keys, buffered encodings).
        self._reply_batches = threading.local()
        self._gauge_label = (f"{transport.local_address.host}:{transport.local_address.port}",)
        self.calls_handled = 0
        self.duplicates_suppressed = 0
        self.duplicates_coalesced = 0
        self.deadlines_rejected = 0
        self.calls_shed = 0
        # Every server answers the well-known stats program: probes
        # bypass admission under a small token-bucket budget (see
        # repro.rpc.stats), so introspection works *during* overload.
        self._stats_budget = stats_mod.StatsBudget()
        stats_program = RpcProgram(
            stats_mod.STATS_PROGRAM, stats_mod.STATS_VERSION, name="stats"
        )
        stats_program.register(
            stats_mod.PROC_SNAPSHOT,
            lambda args: stats_mod.build_snapshot(self),
            name="snapshot",
        )
        self.serve(stats_program)
        dispatcher_for(transport).server = self

    @property
    def address(self) -> Address:
        return self.transport.local_address

    def serve(self, program: RpcProgram) -> RpcProgram:
        key = (program.prog, program.vers)
        if key in self._programs:
            raise ConfigurationError(f"program {key} already served")
        self._programs[key] = program
        return program

    def withdraw(self, program: RpcProgram) -> None:
        self._programs.pop((program.prog, program.vers), None)

    def handle_call(self, source: Address, call: RpcCall) -> None:
        """Entry point from the dispatcher; sends replies itself.

        Arrival-time admission happens here; admitted calls enter the
        deadline-ordered queue and are drained by whichever invocation
        currently owns the drain loop.  With ``defer_while_busy`` off
        (default) every arrival drains immediately — including arrivals
        nested inside a running handler, preserving the reentrant
        processing cyclic federation topologies depend on.
        """
        if not self._receive(source, call):
            return
        METRICS.set_gauge(
            "rpc.server.queue_depth", len(self._queue), self._gauge_label
        )
        if self._active and self.admission.defer_while_busy:
            return  # parked: the active drain loop will reach it
        self._drain()

    def handle_batch(self, source: Address, calls: List[RpcCall]) -> None:
        """Process a BATCH payload: admit everything, then drain once.

        Pipelining in two directions: every decodable call enters the
        deadline-ordered admission queue *before* any handler runs (so
        the most urgent call in the batch executes first, regardless of
        its wire position), and replies owed to this batch coalesce into
        a single transport write instead of one write per call.  Replies
        to anything *else* — nested reentrant calls a handler makes back
        into this server mid-batch — bypass the buffer and send
        immediately, so cyclic federation topologies cannot deadlock on
        a held-back reply.
        """
        expected = {(source, call.xid) for call in calls}
        buffered: List[bytes] = []
        stack = self._batch_stack()
        stack.append((expected, buffered))
        try:
            admitted = False
            for call in calls:
                admitted = self._receive(source, call) or admitted
            # One depth gauge per payload, not per push: no reader can
            # observe the intermediate depths anyway.
            METRICS.set_gauge(
                "rpc.server.queue_depth", len(self._queue), self._gauge_label
            )
            if admitted and not (self._active and self.admission.defer_while_busy):
                self._drain()
        finally:
            stack.pop()
        if buffered:
            METRICS.observe("rpc.server.batch_replies", float(len(buffered)))
            self.transport.send(source, b"".join(buffered))

    def _receive(self, source: Address, call: RpcCall) -> bool:
        """Replay-or-admit one arrival; True when it joined the queue."""
        cache_key = (source, call.xid)
        if self.at_most_once:
            cached = self._reply_cache.get(cache_key)
            if cached is not None:
                self.duplicates_suppressed += 1
                METRICS.inc("rpc.server.duplicates_suppressed")
                self._send_reply(source, call.xid, cached)
                return False
        return self._admit(source, call, cache_key)

    def _batch_stack(self) -> List[Tuple[Set[Tuple[Address, int]], List[bytes]]]:
        stack = getattr(self._reply_batches, "stack", None)
        if stack is None:
            stack = self._reply_batches.stack = []
        return stack

    def _admit(self, source: Address, call: RpcCall, cache_key: Tuple[Address, int]) -> bool:
        """Arrival-time admission; True when the call was queued."""
        now = self.transport.now()
        if call.deadline is not None and now >= call.deadline:
            reply = self._reject_deadline(call)
            self._finish(source, call, reply, cacheable=True)
            return False
        if call.prog == stats_mod.STATS_PROGRAM:
            # Introspection bypasses the admission queue: a probe is most
            # valuable exactly when the queue is full of urgent work that
            # would shed it.  The token bucket keeps the bypass from
            # becoming a load vector — beyond it, probes shed like
            # anything else.  Executed inline (the snapshot handler is a
            # pure read).  Not cached: a pure read gains nothing from
            # replay, and its metrics dump would crowd other replies out
            # of the window.
            if self._stats_budget.take(now):
                self._finish(source, call, self._execute(call), cacheable=False)
            else:
                self._finish(
                    source, call, self._shed(call, "stats_budget"), cacheable=False
                )
            return False
        if call.deadline is not None and self._auto_capacity:
            # Arrival budgets only feed the "auto" capacity derivation;
            # with a fixed bound the sample would never be read.
            self._service_times.observe(
                "rpc.server.arrival_budget_seconds", call.deadline - now
            )
            self._adapt_capacity()
        if self._shedding_needed(call, now):
            self._finish(source, call, self._shed(call, "arrival"), cacheable=False)
            return False
        if self._queue.pending(cache_key) or cache_key in self._in_flight:
            # A retransmission of work already queued or executing: the
            # original will reply; answering (or re-queueing) here would
            # break at-most-once.
            self.duplicates_coalesced += 1
            METRICS.inc("rpc.server.duplicates_coalesced")
            return False
        entry = (source, call)
        shed_entry = self._queue.push(entry, call.deadline, key=cache_key)
        if shed_entry is not None:
            shed_source, shed_call = shed_entry
            self._finish(
                shed_source, shed_call, self._shed(shed_call, "queue_full"), cacheable=False
            )
            return shed_entry is not entry
        return True

    def _drain(self) -> None:
        """Process queued calls in deadline order until the queue empties."""
        self._active += 1
        try:
            while True:
                entry = self._queue.pop()
                if entry is None:
                    break
                source, call = entry
                self._run_entry(source, call)
        finally:
            self._active -= 1
            # Depth gauge per drain, not per pop: arrivals re-gauge on
            # push, so between drains the gauge stays fresh anyway.
            METRICS.set_gauge(
                "rpc.server.queue_depth", len(self._queue), self._gauge_label
            )
        if not self._active and len(self._queue):
            # A deferred arrival slipped in between our last pop and the
            # depth decrement (TCP reader-thread interleaving): claim it.
            self._drain()

    def _run_entry(self, source: Address, call: RpcCall) -> None:
        """Dequeue-time re-check, execution, reply."""
        now = self.transport.now()
        if call.deadline is not None and now >= call.deadline:
            # Aged out while queued: drop before execution.
            self._finish(source, call, self._reject_deadline(call), cacheable=True)
            return
        if self._shedding_needed(call, now):
            self._finish(source, call, self._shed(call, "dequeue"), cacheable=False)
            return
        cache_key = (source, call.xid)
        self._in_flight.add(cache_key)
        try:
            reply = self._execute(call)
        finally:
            self._in_flight.discard(cache_key)
        self._finish(source, call, reply, cacheable=True)

    def _finish(
        self, source: Address, call: RpcCall, reply: RpcReply, cacheable: bool
    ) -> None:
        # Encoded once: the cache keeps these bytes, so a duplicate gets
        # them back verbatim without another encode.
        data = reply.encode()
        if self.at_most_once and cacheable:
            self._reply_cache.put((source, call.xid), data)
        self._send_reply(source, call.xid, data)

    def _send_reply(self, source: Address, xid: int, data: bytes) -> None:
        """Write one encoded reply, or coalesce it into the open batch scope.

        Only replies the innermost :meth:`handle_batch` scope is
        *expecting* (registered by ``(source, xid)``) are buffered; each
        key buffers at most once.  Everything else — replies to nested
        reentrant arrivals, or to calls from other peers — goes straight
        to the transport.
        """
        stack = self._batch_stack()
        if stack:
            expected, buffered = stack[-1]
            key = (source, xid)
            if key in expected:
                expected.discard(key)
                buffered.append(data)
                return
        self.transport.send(source, data)

    def _reject_deadline(self, call: RpcCall) -> RpcReply:
        self.deadlines_rejected += 1
        METRICS.inc("rpc.server.deadline_rejected", (str(call.prog), str(call.proc)))
        return RpcReply(call.xid, ReplyStatus.DEADLINE_EXCEEDED)

    def _shed(self, call: RpcCall, stage: str) -> RpcReply:
        self.calls_shed += 1
        program = self._programs.get((call.prog, call.vers))
        name = program.name if program is not None else str(call.prog)
        METRICS.inc("rpc.server.shed", (stage, name, str(call.proc)))
        if LOG.active:
            LOG.event(
                "rpc.shed",
                level="warning",
                at=self.transport.now(),
                stage=stage,
                program=name,
                proc=call.proc,
                trace_id=call.trace_id or None,
            )
        return RpcReply(call.xid, ReplyStatus.SHED)

    def _adapt_capacity(self) -> None:
        """Re-derive the ``"auto"`` queue bound from current estimates.

        Uses the server's own observations: the policy-quantile service
        time over *all* procedures and the median arrival budget.  Until
        both have ``min_samples`` the queue keeps its current bound.
        Shrinking below the current depth is safe — ``push`` evicts the
        latest-deadline entry per overflow, so depth converges as the
        queue drains.
        """
        if not self._auto_capacity:
            return
        service = self._service_times.estimate(
            "rpc.server.handler_seconds",
            _ALL_PROCS,
            q=self.admission.quantile,
            min_count=self.admission.min_samples,
        )
        budget = self._service_times.estimate(
            "rpc.server.arrival_budget_seconds",
            (),
            q=BUDGET_QUANTILE,
            min_count=self.admission.min_samples,
        )
        if service is None or budget is None:
            return
        capacity = derive_capacity(
            service, budget, self.admission.min_capacity, self.admission.max_capacity
        )
        if capacity != self._queue.capacity:
            self._queue.capacity = capacity
            METRICS.set_gauge(
                "rpc.server.queue_capacity", capacity, self._gauge_label
            )

    def _shedding_needed(self, call: RpcCall, now: float) -> bool:
        """True when the estimated service time exceeds the remaining budget."""
        if not self.admission.shed or call.deadline is None:
            return False
        program = self._programs.get((call.prog, call.vers))
        if program is None:
            return False  # let PROG_UNAVAIL surface normally
        estimate = self._service_times.estimate(
            "rpc.server.handler_seconds",
            (program.name, str(call.proc)),
            q=self.admission.quantile,
            min_count=self.admission.min_samples,
        )
        return estimate is not None and estimate > call.deadline - now

    def _prepare(self, call: RpcCall):
        """Front half of execution: resolve the handler, decode the arguments.

        Returns ``(program, handler, args, early_reply)``; a non-``None``
        ``early_reply`` short-circuits execution (expired deadline,
        unknown program/procedure, undecodable arguments).
        """
        # Expired calls were rejected at admission and again at dequeue;
        # this guard remains for direct callers that bypass the queue.
        if call.deadline is not None and self.transport.now() >= call.deadline:
            return None, None, None, self._reject_deadline(call)
        program = self._programs.get((call.prog, call.vers))
        if program is None:
            return None, None, None, RpcReply(call.xid, ReplyStatus.PROG_UNAVAIL)
        handler = program.lookup(call.proc)
        if handler is None:
            return program, None, None, RpcReply(call.xid, ReplyStatus.PROC_UNAVAIL)
        try:
            args = (
                CODECS.decode_args(call.prog, call.vers, call.proc, call.body)
                if call.body
                else None
            )
        except XdrError:
            return program, handler, None, RpcReply(call.xid, ReplyStatus.GARBAGE_ARGS)
        self.calls_handled += 1
        return program, handler, args, None

    @staticmethod
    def _fault_reply(xid: int, exc: BaseException) -> RpcReply:
        fault = {"kind": type(exc).__name__, "detail": str(exc)}
        return RpcReply(xid, ReplyStatus.REMOTE_FAULT, encode_value(fault))

    @staticmethod
    def _success_reply(call: RpcCall, result: Any) -> RpcReply:
        try:
            body = CODECS.encode_result(call.prog, call.vers, call.proc, result)
        except XdrError as exc:
            return RpcServer._fault_reply(call.xid, exc)
        return RpcReply(call.xid, ReplyStatus.SUCCESS, body)

    def _observe(
        self,
        call: RpcCall,
        program: RpcProgram,
        ctx: Optional[CallContext],
        started: float,
    ) -> None:
        """Post-execution epilogue: service-time samples and chain flush.

        Measured service time per (program, proc) is the estimate
        admission control compares budgets against.  Observed into the
        process registry for reporting and into the server's own
        registry for admission decisions.
        """
        ended = self.transport.now()
        elapsed = ended - started
        labels = (program.name, str(call.proc))
        METRICS.observe("rpc.server.handler_seconds", elapsed, labels)
        if self.admission.shed:
            # Per-procedure estimates are only consulted by shedding.
            self._service_times.observe(
                "rpc.server.handler_seconds", elapsed, labels
            )
        if self._auto_capacity:
            # Aggregate stream feeding the "auto" capacity derivation.
            self._service_times.observe(
                "rpc.server.handler_seconds", elapsed, _ALL_PROCS
            )
        if call.deadline is not None and ended > call.deadline:
            # The deadline lapsed *mid-execution*: these handler
            # seconds bought an answer nobody is waiting for — the
            # waste admission control exists to avoid (compared
            # on/off in benchmarks/bench_overload_shedding.py).
            METRICS.inc("rpc.server.wasted_handler_seconds", labels, amount=elapsed)
            METRICS.inc("rpc.server.missed_deadline_executions", labels)
        if ctx is not None and (ctx.spans or ctx.spans_dropped):
            # The server-side chain ends here; flush best-effort
            # (no-op unless an exporter is installed).  Sampled-out
            # dispatches recorded nothing, so they skip the hub walk —
            # drop accounting lives with the chain owner (the caller).
            flush_context(ctx)

    def _execute(self, call: RpcCall) -> RpcReply:
        """Run one admitted call: resolve, invoke under its context, reply."""
        program, handler, args, early = self._prepare(call)
        if early is not None:
            return early
        # Reconstruct the caller's context from the wire fields and make
        # it ambient for the handler: nested calls (federation forwards,
        # 2PC rounds, value-adding services) inherit deadline and trace.
        ctx = self._context_for(call)
        started = self.transport.now()
        try:
            if ctx is None:
                result = self._invoke(handler, args)
            elif spans_wanted() and ctx.sampled is not False:
                # The server built this context from the wire and drops
                # it after the dispatch; record a span only when an
                # exporter will actually read the chain.
                with ctx.span(
                    "server", f"{program.name}:{call.proc}", self.transport.now
                ):
                    with use_context(ctx):
                        result = self._invoke(handler, args)
            else:
                # A wire stamp of ``sampled=False`` means the chain can
                # only ever be exported by the tail error keep, so the
                # success path skips span bookkeeping entirely and the
                # except arm reconstructs the span — head sampling then
                # costs the hot path nothing.
                with use_context(ctx):
                    result = self._invoke(handler, args)
        except Exception as exc:  # noqa: BLE001 - faults cross the wire as data
            if ctx is not None and ctx.sampled is False and spans_wanted():
                # Rebuild the span the fast path skipped: the tail keep
                # still needs the error chain.
                record = SpanRecord(
                    "server",
                    f"{program.name}:{call.proc}",
                    started_at=started,
                    elapsed=self.transport.now() - started,
                    outcome=type(exc).__name__,
                )
                ctx.record_span(record)
            return self._fault_reply(call.xid, exc)
        else:
            return self._success_reply(call, result)
        finally:
            self._observe(call, program, ctx, started)

    @staticmethod
    def _invoke(handler: Handler, args: Any) -> Any:
        """Call the handler.  Handlers are plain functions: an awaitable
        result is closed unrun and faults the call as
        :class:`AwaitableResult`."""
        result = handler(args)
        if inspect.isawaitable(result):
            close = getattr(result, "close", None)
            if close is not None:
                close()
            raise AwaitableResult(
                f"handler returned {type(result).__name__}; "
                f"RPC handlers are plain functions"
            )
        return result

    @staticmethod
    def _context_for(call: RpcCall) -> Optional[CallContext]:
        """The server-side view of the caller's context, if one was sent."""
        if not (call.trace_id or call.deadline is not None or call.hops is not None):
            return None
        if call.trace_id:
            return CallContext(
                trace_id=call.trace_id,
                deadline=call.deadline,
                hops=call.hops,
                sampled=call.sampled,
            )
        return CallContext(
            deadline=call.deadline, hops=call.hops, sampled=call.sampled
        )

    def close(self) -> None:
        dispatcher_for(self.transport).server = None
