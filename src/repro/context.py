"""First-class call context threaded through every layer of the COSM stack.

The Fig. 6 architecture stacks five levels (Communication → Service
Support → Controlling → Client/Service → User); historically each level
invented its own control knobs: per-call ``timeout``/``retries`` kwargs at
the RPC client, ``hop_limit``/``visited`` wire fields in trader
federation, and nothing at all for the bind/browse cascades.  A
:class:`CallContext` replaces them with one value that is created at the
top of a request, passed down explicitly (or picked up ambiently via
:func:`current_context` inside RPC handlers), decremented per hop, and
encoded on the wire:

* an absolute **deadline** against the transport clock (simulated or
  wall), shared by every call a request fans out into,
* a remaining **hop budget** and a **visited scope** (the administrative
  domains a federated query has already crossed),
* a **trace id** plus a **span chain** — every layer appends a
  :class:`SpanRecord` (layer, operation, elapsed, outcome), giving a
  per-layer cost breakdown for free,
* a :class:`RetryPolicy` from which the RPC client derives per-attempt
  timeouts out of the *remaining* deadline budget.

Legacy ``timeout=``/``retries=`` keyword arguments survive as a thin
compatibility shim: they construct an equivalent context via
:meth:`CallContext.from_legacy`.
"""

from __future__ import annotations

import itertools
import math
import uuid
from contextvars import ContextVar
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import CosmError

Clock = Callable[[], float]

_trace_counter = itertools.count(1)
_span_uid_counter = itertools.count(1)


def new_trace_id() -> str:
    """A process-unique trace id: ordinal prefix + random suffix."""
    return f"t{next(_trace_counter):05d}-{uuid.uuid4().hex[:8]}"


def _new_span_uid() -> str:
    """A process-unique span uid, assigned at span *creation* time.

    Export-time span ids are positional within the chain
    (``<trace>-s0003``) and therefore unknowable while the span is still
    open; the uid exists so occurrence records written *inside* a span
    (:func:`repro.telemetry.hub.occurred`) can be joined to it after
    export.
    """
    return f"u{next(_span_uid_counter):06d}"


class HopBudgetExhausted(CosmError):
    """A context with no remaining hops was asked to cross another one."""


@dataclass(frozen=True)
class RetryPolicy:
    """How the RPC client spreads a deadline over retransmissions.

    ``attempt_timeout`` caps each attempt; ``None`` means "split the
    remaining deadline evenly over the attempts still available".  The
    legacy shim sets it to the old flat per-attempt timeout so existing
    behaviour is preserved exactly.
    """

    retries: int = 3
    attempt_timeout: Optional[float] = None

    @property
    def attempts(self) -> int:
        return self.retries + 1


@dataclass
class SpanRecord:
    """One layer's record of one operation, appended to the span chain.

    ``events`` are point-in-time wire-level occurrences inside the span
    — a retransmission, a shed reply — each a dict with at least
    ``name`` and ``at`` (the transport clock when it happened).  They
    ride through every export form, giving per-attempt visibility that
    the aggregate counters cannot.
    """

    layer: str
    operation: str
    started_at: float
    elapsed: float = 0.0
    outcome: str = "ok"
    events: List[Dict[str, Any]] = field(default_factory=list)
    uid: str = field(default_factory=_new_span_uid)

    def add_event(self, name: str, at: float, **attributes: Any) -> None:
        event: Dict[str, Any] = {"name": name, "at": at}
        event.update(attributes)
        self.events.append(event)

    def to_wire(self) -> Dict[str, Any]:
        wire = {
            "layer": self.layer,
            "operation": self.operation,
            "started_at": self.started_at,
            "elapsed": self.elapsed,
            "outcome": self.outcome,
            "span_uid": self.uid,
        }
        if self.events:
            wire["events"] = [dict(event) for event in self.events]
        return wire


#: Span chains are bounded so long-running benchmarks cannot grow a
#: context without limit; past the cap new spans are counted, not stored.
SPAN_LIMIT = 1024

#: Fallback per-attempt timeout when a context has neither a deadline nor
#: an attempt cap (mirrors the RPC client's historical default).
DEFAULT_ATTEMPT_TIMEOUT = 1.0

#: Floor of a sliced per-attempt timeout, so a nearly spent budget still
#: gives each attempt a moment on the wire.
MIN_ATTEMPT_TIMEOUT = 0.001


@dataclass
class CallContext:
    """The request-scoping value threaded through every COSM layer.

    Derived contexts made with :meth:`derive`/:meth:`hop` share the trace
    id and the span chain with their parent — the chain shows the whole
    request — while deadline/hops/visited narrow monotonically.
    """

    trace_id: str = field(default_factory=new_trace_id)
    deadline: Optional[float] = None
    hops: Optional[int] = None
    visited: Tuple[str, ...] = ()
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    spans: List[SpanRecord] = field(default_factory=list)
    spans_dropped: int = 0
    #: Head-sampling decision for this trace: ``True``/``False`` once a
    #: hop has decided (:func:`repro.telemetry.sampling.mark`), ``None``
    #: while no sampling policy has weighed in.  Rides the wire like the
    #: hop budget so every peer of a federated call agrees.
    sampled: Optional[bool] = None
    finished: bool = field(default=False, repr=False, compare=False)

    # -- constructors ------------------------------------------------------

    @classmethod
    def background(cls, **overrides: Any) -> "CallContext":
        """A fresh context with no deadline and an unlimited hop budget."""
        return cls(**overrides)

    @classmethod
    def with_timeout(
        cls,
        timeout: float,
        now: float,
        hops: Optional[int] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> "CallContext":
        """A context expiring ``timeout`` seconds after ``now``."""
        return cls(
            deadline=now + timeout,
            hops=hops,
            retry=retry or RetryPolicy(),
        )

    @classmethod
    def from_legacy(
        cls,
        timeout: float,
        retries: int,
        now: float,
        trace_id: Optional[str] = None,
    ) -> "CallContext":
        """The compatibility shim behind ``timeout=``/``retries=`` kwargs.

        Reproduces the historical total budget ``timeout * (retries + 1)``
        and keeps the flat per-attempt cap, so callers that never adopt
        contexts observe identical timing.
        """
        ctx = cls(
            deadline=now + timeout * (retries + 1),
            retry=RetryPolicy(retries=retries, attempt_timeout=timeout),
        )
        if trace_id is not None:
            ctx.trace_id = trace_id
        return ctx

    # -- deadline budget ---------------------------------------------------

    def remaining(self, now: float) -> float:
        """Seconds of budget left; ``inf`` when no deadline is set."""
        if self.deadline is None:
            return math.inf
        return max(0.0, self.deadline - now)

    def expired(self, now: float) -> bool:
        return self.deadline is not None and now >= self.deadline

    def attempt_timeout(self, now: float, attempts_left: int) -> float:
        """Per-attempt wait derived from the *remaining* deadline budget.

        Splits what is left of the deadline evenly over the attempts still
        available (clamped below by ``MIN_ATTEMPT_TIMEOUT`` and above by
        the policy's flat cap, when one is set).
        """
        budget = self.remaining(now)
        cap = self.retry.attempt_timeout
        if math.isinf(budget):
            return cap if cap is not None else DEFAULT_ATTEMPT_TIMEOUT
        share = budget / max(1, attempts_left)
        if cap is not None:
            share = min(share, cap)
        return min(budget, max(share, MIN_ATTEMPT_TIMEOUT))

    # -- hop budget / scope ------------------------------------------------

    def can_hop(self) -> bool:
        """True while the hop budget allows crossing one more domain."""
        return self.hops is None or self.hops > 0

    def seen(self, node: str) -> bool:
        return node in self.visited

    def derive(self, **changes: Any) -> "CallContext":
        """A narrowed child sharing the trace id and span chain."""
        return replace(self, **changes)

    def hop(self, node: Optional[str] = None) -> "CallContext":
        """Cross one administrative domain: hops - 1, ``node`` marked seen."""
        if not self.can_hop():
            raise HopBudgetExhausted(
                f"trace {self.trace_id}: hop budget exhausted at {node or '?'}"
            )
        hops = None if self.hops is None else self.hops - 1
        visited = self.visited if node is None else self.visited + (node,)
        return self.derive(hops=hops, visited=visited)

    def split(self, n: int, now: float) -> List["CallContext"]:
        """Divide the remaining deadline budget evenly over ``n`` children.

        Each child shares the trace id and span chain but owns ``1/n`` of
        the deadline budget still left at ``now`` — the static form of the
        federation fan-out's per-link split (:class:`DeadlineLedger` is the
        dynamic one).  Without a deadline the children are unbounded too.
        """
        count = max(1, n)
        if self.deadline is None:
            return [self.derive() for _ in range(count)]
        share = self.remaining(now) / count
        return [self.derive(deadline=now + share) for _ in range(count)]

    # -- span chain --------------------------------------------------------

    def record_span(self, span: SpanRecord) -> None:
        # No lock: one thread records a chain, since a node runs its
        # calls one at a time and fan-out is split-phase (DESIGN.md §6a).
        if len(self.spans) < SPAN_LIMIT:
            self.spans.append(span)
        else:
            self.spans_dropped += 1
            # Overflow is observable, not silent: exporter output carries
            # the per-chain count and the registry the process total.
            from repro.telemetry.metrics import METRICS

            METRICS.inc("context.spans_dropped")

    def share_chain(self, other: "CallContext") -> None:
        """Join ``other``'s span chain — used by the RPC client's legacy
        shim so ambient and shim contexts append to one chain."""
        self.spans = other.spans

    def span(self, layer: str, operation: str, clock: Clock) -> "_SpanScope":
        """Record one operation at one layer; re-raises, noting the outcome.

        Returns a hand-rolled context manager rather than a
        ``@contextmanager`` generator: spans wrap every RPC dispatch, so
        the enter/exit pair sits on the wire fast path where generator
        plus ``contextlib`` machinery is measurable.
        """
        return _SpanScope(self, SpanRecord(layer, operation, started_at=clock()), clock)

    def layer_costs(self) -> Dict[str, float]:
        """Total elapsed seconds per layer, from the span chain."""
        costs: Dict[str, float] = {}
        for span in self.spans:
            costs[span.layer] = costs.get(span.layer, 0.0) + span.elapsed
        return costs

    def finish(self) -> None:
        """Mark the request done and flush the span chain into the
        process :class:`~repro.telemetry.hub.TelemetryHub` (a no-op when
        no exporter is installed, and idempotent).  The RPC server and
        client flush best-effort at their dispatch/reply boundaries;
        ``finish()`` is the explicit form for the top of a request."""
        if self.finished:
            return
        self.finished = True
        from repro.telemetry.hub import flush_context

        flush_context(self)

    # -- wire form ---------------------------------------------------------

    def to_wire(self) -> Dict[str, Any]:
        wire: Dict[str, Any] = {"trace_id": self.trace_id}
        if self.deadline is not None:
            wire["deadline"] = self.deadline
        if self.hops is not None:
            wire["hops"] = self.hops
        if self.visited:
            wire["visited"] = list(self.visited)
        if self.sampled is not None:
            wire["sampled"] = self.sampled
        return wire

    @classmethod
    def from_wire(cls, wire: Dict[str, Any]) -> "CallContext":
        return cls(
            trace_id=wire.get("trace_id") or new_trace_id(),
            deadline=wire.get("deadline"),
            hops=wire.get("hops"),
            visited=tuple(wire.get("visited", ())),
            sampled=wire.get("sampled"),
        )


class _SpanScope:
    """The context manager :meth:`CallContext.span` hands out.

    ``__slots__`` and explicit ``__enter__``/``__exit__`` because one of
    these brackets every RPC dispatch (client and server side)."""

    __slots__ = ("_ctx", "_record", "_clock", "_token")

    def __init__(self, ctx: "CallContext", record: SpanRecord, clock: Clock) -> None:
        self._ctx = ctx
        self._record = record
        self._clock = clock
        self._token = None

    def __enter__(self) -> SpanRecord:
        self._token = _current_span.set(self._record)
        return self._record

    def __exit__(self, exc_type, exc, tb) -> bool:
        _current_span.reset(self._token)
        record = self._record
        if exc_type is not None:
            record.outcome = exc_type.__name__
        record.elapsed = self._clock() - record.started_at
        self._ctx.record_span(record)
        return False


class DeadlineLedger:
    """Splits one context's deadline budget across concurrent branches.

    The federation fan-out gives every outstanding link a *lease* on the
    remaining budget: ``lease()`` returns a child context whose deadline is
    ``now + remaining / outstanding``.  When a branch finishes it calls
    :meth:`release`, shrinking the outstanding count — budget a fast link
    did not use is thereby re-donated to branches that lease after it.
    Branches already running keep the lease they were issued.
    """

    def __init__(self, ctx: CallContext, clock: Clock, outstanding: int) -> None:
        self._ctx = ctx
        self._clock = clock
        self._outstanding = max(1, outstanding)

    def lease(self) -> CallContext:
        """A child context owning this branch's share of what is left."""
        if self._ctx.deadline is None:
            return self._ctx.derive()
        now = self._clock()
        share = self._ctx.remaining(now) / self._outstanding
        return self._ctx.derive(deadline=now + share)

    def release(self) -> None:
        """A branch finished; its unused share flows back to the rest."""
        if self._outstanding > 1:
            self._outstanding -= 1

    def remaining(self) -> float:
        """Seconds left on the parent budget (``inf`` when unbounded)."""
        return self._ctx.remaining(self._clock())

    def expired(self) -> bool:
        return self._ctx.expired(self._clock())


# -- ambient context --------------------------------------------------------

_current: ContextVar[Optional[CallContext]] = ContextVar(
    "cosm_call_context", default=None
)
_current_span: ContextVar[Optional[SpanRecord]] = ContextVar(
    "cosm_current_span", default=None
)


def current_span() -> Optional[SpanRecord]:
    """The innermost open span of the executing task/thread, if any.

    Maintained by :meth:`CallContext.span`'s scope; occurrence records
    use it to stamp the ``span_uid`` of the work they happened inside.
    """
    return _current_span.get()


def current_context() -> Optional[CallContext]:
    """The context of the request being served, if any.

    The RPC server installs the caller's wire context around handler
    execution, so any nested call a handler makes (trader federation,
    value-adding services, 2PC rounds) inherits the original deadline and
    trace without explicit plumbing.
    """
    return _current.get()


class _AmbientScope:
    """Hand-rolled context manager behind :func:`use_context` — same
    fast-path rationale as :class:`_SpanScope`."""

    __slots__ = ("_ctx", "_token")

    def __init__(self, ctx: Optional[CallContext]) -> None:
        self._ctx = ctx
        self._token = None

    def __enter__(self) -> Optional[CallContext]:
        self._token = _current.set(self._ctx)
        return self._ctx

    def __exit__(self, exc_type, exc, tb) -> bool:
        _current.reset(self._token)
        return False


def use_context(ctx: Optional[CallContext]) -> _AmbientScope:
    """Install ``ctx`` as the ambient context for the enclosed block."""
    return _AmbientScope(ctx)
