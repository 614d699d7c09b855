"""Resilient invocation: backoff, failover, and circuit breakers.

The paper's binding model says a client binds to *whatever matching offer
the trader returns at bind time* — which only helps availability if the
client actually moves on when an endpoint stops answering.  This module
is that client-side half of the failure-recovery layer:

* :class:`BackoffPolicy` — decorrelated-jitter exponential backoff
  (``delay = min(cap, uniform(base, previous * factor))``), always
  clamped to the governing :class:`~repro.context.CallContext`'s
  remaining deadline so a retry schedule can never outlive its budget;
* :class:`CircuitBreaker` — a per-endpoint closed → open → half-open
  state machine: after ``failure_threshold`` consecutive transient
  failures the endpoint is skipped outright until ``probe_interval``
  elapses, then exactly one probe is admitted; its outcome closes or
  re-opens the circuit;
* :class:`ResilientCaller` — wraps an :class:`~repro.rpc.client.RpcClient`
  and tries a *ranked list* of targets (the offer order an import
  returned): transient failures (``ServerShedding``, timeouts, transport
  errors) back off and fail over to the next candidate, each attempt
  running on a slice of the remaining deadline so one dead endpoint
  cannot eat the whole budget.

Everything is surfaced: ``rpc.failover.attempts`` / ``rpc.backoff.sleeps``
counters, a ``rpc.breaker.state`` gauge (0 closed, 1 half-open, 2 open)
with ``rpc.breaker.opens``, and ``backoff`` / ``failover`` /
``breaker_open`` events on the request's resilience span.

All timing flows through the transport clock, so behaviour is identical
on virtual-time simulations and wall-clock TCP stacks.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Sequence, TypeVar

from repro.context import CallContext, Clock, current_context
from repro.errors import BindingError, CommunicationError
from repro.rpc.client import RpcClient
from repro.rpc.errors import DeadlineExceeded, RpcError, RpcTimeout, ServerShedding
from repro.telemetry.log import LOG
from repro.telemetry.metrics import METRICS

T = TypeVar("T")

#: ``rpc.breaker.state`` gauge values.
STATE_CLOSED = 0
STATE_HALF_OPEN = 1
STATE_OPEN = 2

_STATE_NAMES = {STATE_CLOSED: "closed", STATE_HALF_OPEN: "half-open", STATE_OPEN: "open"}


class CircuitOpen(RpcError):
    """Every candidate endpoint's circuit breaker is open (no probe due).

    Retryable in the same sense as :class:`ServerShedding`: the condition
    clears once a probe interval elapses or an endpoint recovers.
    """

    retryable = True


def transient(exc: BaseException) -> bool:
    """True for failures worth backing off and failing over on.

    * :class:`ServerShedding` — the endpoint is alive but overloaded;
    * :class:`RpcTimeout` — no reply (possibly dead), **except**
      :class:`DeadlineExceeded`, which means *our* budget is spent and no
      alternate endpoint can change that;
    * raw transport errors (:class:`CommunicationError` outside the RPC
      hierarchy — e.g. a TCP connect refusal).

    Application-level failures (``RemoteFault``, ``ProgramUnavailable``,
    garbage arguments) are *not* transient: another endpoint of the same
    service would fail identically, so they propagate untouched.

    A :class:`~repro.errors.BindingError` is judged by its cause: the
    binder wraps the RPC failure that broke the bind, and *that* failure
    decides whether another endpoint is worth trying.
    """
    if isinstance(exc, BindingError):
        cause = exc.__cause__ or exc.__context__
        return cause is not None and transient(cause)
    if isinstance(exc, DeadlineExceeded):
        return False
    if isinstance(exc, (ServerShedding, RpcTimeout, CircuitOpen)):
        return True
    return isinstance(exc, CommunicationError) and not isinstance(exc, RpcError)


def _is_deadline(exc: BaseException) -> bool:
    """True for :class:`DeadlineExceeded`, even wrapped in a binder error."""
    if isinstance(exc, BindingError):
        cause = exc.__cause__ or exc.__context__
        return cause is not None and _is_deadline(cause)
    return isinstance(exc, DeadlineExceeded)


@dataclass(frozen=True)
class BackoffPolicy:
    """Decorrelated-jitter exponential backoff (the AWS formulation).

    Each delay is drawn uniformly from ``[base, previous * factor]`` and
    clamped to ``cap`` — jitter decorrelates retry storms across clients
    while the expected delay still grows geometrically.
    """

    base: float = 0.02
    cap: float = 2.0
    factor: float = 3.0

    def first(self) -> float:
        return self.base

    def next_delay(self, previous: float, rng: random.Random) -> float:
        """The next sleep after a delay of ``previous`` seconds."""
        upper = max(self.base, min(self.cap, previous * self.factor))
        return min(self.cap, rng.uniform(self.base, upper))


@dataclass(frozen=True)
class BreakerPolicy:
    """When a circuit opens and how often an open one is probed."""

    failure_threshold: int = 3
    probe_interval: float = 1.0


class CircuitBreaker:
    """Per-endpoint closed → open → half-open state machine.

    Thread-safe; all transitions are driven by the caller-supplied clock
    so the machine behaves identically under virtual and wall time.
    """

    def __init__(self, name: str, policy: BreakerPolicy, clock: Clock) -> None:
        self.name = name
        self.policy = policy
        self._clock = clock
        self._lock = threading.Lock()
        self._state = STATE_CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self.opens = 0
        self._publish()

    @property
    def state(self) -> int:
        with self._lock:
            return self._effective_state(self._clock())

    @property
    def state_name(self) -> str:
        return _STATE_NAMES[self.state]

    def _effective_state(self, now: float) -> int:
        if self._state == STATE_OPEN and now >= self._opened_at + self.policy.probe_interval:
            return STATE_HALF_OPEN
        return self._state

    def allow(self, now: Optional[float] = None) -> bool:
        """May a call be sent to this endpoint right now?

        While open, nothing is admitted until ``probe_interval`` elapses;
        then exactly one caller gets through as the half-open probe, and
        everyone else keeps being refused until that probe's outcome is
        recorded.
        """
        now = self._clock() if now is None else now
        with self._lock:
            state = self._effective_state(now)
            if state == STATE_CLOSED:
                return True
            if state == STATE_HALF_OPEN and self._state == STATE_OPEN:
                # Claim the single probe slot.
                self._state = STATE_HALF_OPEN
                self._publish()
                return True
            return False

    def record_success(self, now: Optional[float] = None) -> None:
        with self._lock:
            self._consecutive_failures = 0
            if self._state != STATE_CLOSED:
                self._state = STATE_CLOSED
                self._publish()
                if LOG.active:
                    LOG.event(
                        "rpc.breaker_closed",
                        at=self._clock() if now is None else now,
                        endpoint=self.name,
                    )

    def record_failure(self, now: Optional[float] = None) -> None:
        now = self._clock() if now is None else now
        with self._lock:
            self._consecutive_failures += 1
            if self._state == STATE_HALF_OPEN:
                # The probe failed: back to open, a fresh probe interval.
                self._trip(now)
            elif (
                self._state == STATE_CLOSED
                and self._consecutive_failures >= self.policy.failure_threshold
            ):
                self._trip(now)

    def _trip(self, now: float) -> None:
        self._state = STATE_OPEN
        self._opened_at = now
        self.opens += 1
        METRICS.inc("rpc.breaker.opens", (self.name,))
        self._publish()
        if LOG.active:
            LOG.event(
                "rpc.breaker_open",
                level="warning",
                at=now,
                endpoint=self.name,
                failures=self._consecutive_failures,
                opens=self.opens,
            )

    def _publish(self) -> None:
        METRICS.set_gauge("rpc.breaker.state", self._state, (self.name,))


class ResilientCaller:
    """Failover + backoff + breakers over a ranked list of targets.

    The generic engine is :meth:`run` — it drives any per-target attempt
    callable (the rebind layer's bind-and-invoke; the shard router's
    backends, on an engine with no client: its ``clock``, zero backoff);
    :meth:`call` is the plain RPC form over a list of addresses.
    """

    def __init__(
        self,
        client: Optional[RpcClient],
        backoff: Optional[BackoffPolicy] = None,
        breaker: Optional[BreakerPolicy] = None,
        rounds: int = 3,
        seed: int = 0,
        clock: Optional[Clock] = None,
    ) -> None:
        self._client = client
        self.clock = clock or client.transport.now
        self.backoff = backoff or BackoffPolicy()
        self.breaker_policy = breaker or BreakerPolicy()
        # Without a deadline the retry loop needs *some* bound: at most
        # ``rounds`` passes over the candidate list.
        self.rounds = max(1, rounds)
        self._rng = random.Random(seed)
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._lock = threading.Lock()
        self.failovers = 0
        self.backoff_sleeps = 0.0

    def breaker_opens(self) -> int:
        """Total open transitions across every endpoint's breaker."""
        with self._lock:
            return sum(breaker.opens for breaker in self._breakers.values())

    def breaker_for(self, key: str) -> CircuitBreaker:
        with self._lock:
            breaker = self._breakers.get(key)
            if breaker is None:
                breaker = self._breakers[key] = CircuitBreaker(
                    key, self.breaker_policy, self.clock
                )
            return breaker

    # -- the engine --------------------------------------------------------

    def run(
        self,
        targets: Sequence[T],
        attempt: Callable[[T, Optional[CallContext]], Any],
        ctx: Optional[CallContext] = None,
        key: Callable[[T], str] = str,
        operation: str = "call",
    ) -> Any:
        """Try ``targets`` in ranked order until one attempt succeeds.

        * each attempt runs on a *slice* of the remaining deadline
          (``remaining / candidates_left``, floored by the retry policy's
          minimum) so a dead first choice cannot consume the budget the
          alternates need;
        * a transient failure records a breaker failure, sleeps the next
          decorrelated-jitter delay (clamped to the remaining budget) and
          fails over to the next candidate;
        * targets whose breaker is open are skipped without network
          traffic (a ``breaker_open`` span event); if *every* target is
          skipped that way, :class:`CircuitOpen` is raised;
        * with budget left after a full pass, the list is retried up to
          ``rounds`` times (a second chance for shed-but-alive servers).

        Raises the last transient failure when everything is exhausted,
        or :class:`DeadlineExceeded` the moment the budget lapses.
        """
        if not targets:
            raise ValueError("ResilientCaller.run needs at least one target")
        if ctx is None:
            ctx = current_context()
        targets = list(targets)
        clock = self.clock
        span_ctx = ctx if ctx is not None else CallContext.background()
        with span_ctx.span("resilience", operation, clock) as span:
            last_error: Optional[BaseException] = None
            delay = self.backoff.first()
            first_attempt = True
            for round_index in range(self.rounds):
                attempted = 0
                for position, target in enumerate(targets):
                    now = clock()
                    if ctx is not None and ctx.expired(now):
                        raise self._deadline_error(ctx, last_error)
                    endpoint = key(target)
                    breaker = self.breaker_for(endpoint)
                    if not breaker.allow(now):
                        span.add_event("breaker_open", at=now, endpoint=endpoint)
                        METRICS.inc("rpc.breaker.skipped", (endpoint,))
                        continue
                    if not first_attempt:
                        # Every attempt after the first is a failover (or a
                        # new round's retry): pause first, then move on.
                        delay = self._sleep_backoff(ctx, delay, span, clock)
                        if ctx is not None and ctx.expired(clock()):
                            raise self._deadline_error(ctx, last_error)
                        self.failovers += 1
                        METRICS.inc("rpc.failover.attempts", (endpoint,))
                        span.add_event("failover", at=clock(), endpoint=endpoint,
                                       round=round_index)
                        if LOG.active:
                            LOG.event(
                                "rpc.failover",
                                level="warning",
                                at=clock(),
                                endpoint=endpoint,
                                round=round_index,
                                candidates_left=len(targets) - position,
                            )
                    attempted += 1
                    first_attempt = False
                    child = self._attempt_context(ctx, len(targets) - position)
                    try:
                        result = attempt(target, child)
                    except BaseException as exc:  # noqa: BLE001 - classified below
                        now = clock()
                        if _is_deadline(exc):
                            if ctx is None or ctx.expired(now):
                                # The *budget* lapsed, not just the slice —
                                # surface it as DeadlineExceeded even when the
                                # binder wrapped it.
                                if isinstance(exc, DeadlineExceeded):
                                    raise
                                raise self._deadline_error(ctx, exc) from exc
                            # Only this attempt's deadline slice expired — the
                            # endpoint forfeits its share; the parent budget
                            # still covers the remaining candidates.
                        elif not transient(exc):
                            # Includes cancellation: never classified.
                            raise
                        breaker.record_failure(now)
                        last_error = exc
                        continue
                    breaker.record_success(clock())
                    return result
                if attempted == 0:
                    # Nothing admitted this round: every breaker is open.
                    raise CircuitOpen(
                        f"all {len(targets)} candidate endpoint(s) have open "
                        f"circuit breakers"
                    )
            if last_error is not None:
                raise last_error
            raise CircuitOpen("no attempt could be made within the round budget")

    def _sleep_backoff(
        self, ctx: Optional[CallContext], delay: float, span, clock: Clock
    ) -> float:
        """Pause the current delay (clamped to the budget); returns the
        next decorrelated-jitter delay."""
        now = clock()
        wait = delay if ctx is None else min(delay, ctx.remaining(now))
        if wait > 0:
            span.add_event("backoff", at=now, delay=wait)
            self.backoff_sleeps += wait
            METRICS.inc("rpc.backoff.sleeps")
            METRICS.observe("rpc.backoff.seconds", wait)
            self._client.transport.wait(lambda: False, wait)
        return self.backoff.next_delay(delay, self._rng)

    def _attempt_context(
        self, ctx: Optional[CallContext], candidates_left: int
    ) -> Optional[CallContext]:
        """A deadline slice for one attempt: ``remaining / candidates``.

        The child shares the trace and span chain; its deadline ensures a
        silent endpoint forfeits its share instead of the whole budget.
        """
        if ctx is None or ctx.deadline is None:
            return ctx
        now = self.clock()
        share = ctx.remaining(now) / max(1, candidates_left)
        return ctx.derive(deadline=min(ctx.deadline, now + share))

    def _deadline_error(
        self, ctx: CallContext, last_error: Optional[BaseException]
    ) -> DeadlineExceeded:
        detail = f" (last failure: {last_error})" if last_error is not None else ""
        return DeadlineExceeded(
            f"deadline expired during failover (trace {ctx.trace_id}){detail}"
        )

    # -- the plain RPC form ------------------------------------------------

    def call(
        self,
        destinations: Sequence[Any],
        prog: int,
        vers: int,
        proc: int,
        args: Any = None,
        ctx: Optional[CallContext] = None,
    ) -> Any:
        """``RpcClient.call`` with failover across ``destinations``."""

        def attempt(destination: Any, child: Optional[CallContext]) -> Any:
            return self._client.call(
                destination, prog, vers, proc, args, context=child
            )

        return self.run(
            destinations, attempt, ctx=ctx,
            key=lambda d: f"{d.host}:{d.port}",
            operation=f"call {prog}:{proc}",
        )
