"""Trader federation (§2.2): links between traders with hop-limited search.

A link names a peer trader and a *forwarder* — a callable taking an
import-request wire dict (and, for context-aware forwarders, a ``ctx``
keyword) and returning a list of offer wire dicts.  For co-located
traders the forwarder calls the peer's
:meth:`~repro.trader.trader.LocalTrader.import_wire` directly; for
networked federation :meth:`repro.trader.trader.TraderService.link_to`
installs a forwarder that issues the IMPORT RPC.

Hop budget and loop breaking are carried by the request's
:class:`~repro.context.CallContext` (``hops`` and ``visited``); the
``hop_limit``/``visited`` wire fields remain as the on-the-wire encoding
and as a compatibility surface for pre-context callers.
"""

from __future__ import annotations

import asyncio
import inspect
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import math

from repro.context import CallContext, Clock, DeadlineLedger, SpanRecord, use_context
from repro.rpc.errors import DeadlineExceeded, ServerShedding
from repro.rpc.stepper import step
from repro.telemetry.metrics import METRICS

Forwarder = Callable[..., List[Dict[str, Any]]]

#: Default cap on concurrent link forwards during a fan-out.
DEFAULT_FANOUT_WORKERS = 8


def _accepts_ctx(forwarder: Forwarder) -> bool:
    """True when the forwarder takes a ``ctx`` keyword (or ``**kwargs``)."""
    try:
        signature = inspect.signature(forwarder)
    except (TypeError, ValueError):  # builtins / odd callables: stay legacy
        return False
    for parameter in signature.parameters.values():
        if parameter.kind is inspect.Parameter.VAR_KEYWORD:
            return True
    return "ctx" in signature.parameters


@dataclass
class TraderLink:
    """One edge of the trading graph."""

    name: str
    forwarder: Forwarder
    # A link may cap how deep queries travel onward from here, on top of
    # the request's own hop budget (the ODP notion of link scope).
    max_hops: int = 8
    #: Optional coroutine-function twin of ``forwarder`` used by the
    #: async fan-out; when absent the sync forwarder runs inline (fine
    #: for co-located traders, which answer without blocking).
    aforwarder: Optional[Forwarder] = None
    #: forwarder -> does it take a ``ctx`` keyword (signature probed once)
    _ctx_aware: Dict[Forwarder, bool] = field(
        default_factory=dict, repr=False, compare=False
    )

    def _capped(
        self,
        request_wire: Dict[str, Any],
        ctx: Optional[CallContext],
    ) -> Tuple[Dict[str, Any], Optional[CallContext]]:
        """Apply this link's hop scope to the wire dict and the context."""
        capped = dict(request_wire)
        # A request that omits hop_limit gets this link's full allowance —
        # min() against a default of 0 would silently zero the budget.
        budget = capped.get("hop_limit", self.max_hops)
        capped["hop_limit"] = min(budget, self.max_hops)
        if ctx is not None:
            if ctx.hops is not None:
                capped["hop_limit"] = min(capped["hop_limit"], ctx.hops)
            # The link scope narrows the context's budget as well: the
            # peer trusts the context over the legacy wire field.
            ctx = ctx.derive(hops=capped["hop_limit"])
        return capped, ctx

    def forward(
        self,
        request_wire: Dict[str, Any],
        ctx: Optional[CallContext] = None,
    ) -> List[Dict[str, Any]]:
        return step(self._forward(self.forwarder, request_wire, ctx))

    async def _forward(
        self,
        forwarder: Forwarder,
        request_wire: Dict[str, Any],
        ctx: Optional[CallContext],
    ) -> List[Dict[str, Any]]:
        capped, ctx = self._capped(request_wire, ctx)
        wants_ctx = self._ctx_aware.get(forwarder)
        if wants_ctx is None:
            wants_ctx = self._ctx_aware[forwarder] = _accepts_ctx(forwarder)
        result = forwarder(capped, ctx=ctx) if wants_ctx else forwarder(capped)
        if inspect.isawaitable(result):
            result = await result
        return result


async def _forward_link(
    link: TraderLink,
    forwarder: Forwarder,
    request_wire: Dict[str, Any],
    leased: CallContext,
    clock: Clock,
    now: float,
) -> Optional[List[Dict[str, Any]]]:
    """One link forward, whichever shell scheduled it.

    Skips a link whose lease is already spent as of ``now`` (an
    ``expired`` span and count), otherwise forwards over ``forwarder``
    with the leased context installed ambiently — forwarders that consult
    :func:`~repro.context.current_context`, and anything they call,
    inherit the query's deadline, hops, and trace — inside a
    ``federation`` span, and maps what happened onto exactly one
    ``federation.link{ok,shed,expired,unreachable}`` count.  A link that
    did not answer yields ``None``: the sweep degrades to a partial merge.
    """
    if leased.expired(now):
        leased.record_span(
            SpanRecord(
                "federation", f"link {link.name}", started_at=now, outcome="expired"
            )
        )
        METRICS.inc("federation.link", (link.name, "expired"))
        return None
    try:
        with use_context(leased):
            with leased.span("federation", f"link {link.name}", clock):
                results = await link._forward(forwarder, request_wire, leased)
    except ServerShedding:
        # An overloaded peer shed the forward: counted separately from
        # an unreachable one — shedding is a load signal, not a
        # liveness one.
        METRICS.inc("federation.link", (link.name, "shed"))
    except DeadlineExceeded:
        # The lease lapsed mid-forward: a budget outcome, not a
        # liveness one — counted like the pre-flight expiry check.
        METRICS.inc("federation.link", (link.name, "expired"))
    except Exception:  # noqa: BLE001 - unreachable peers are skipped
        # the span already recorded the failure outcome
        METRICS.inc("federation.link", (link.name, "unreachable"))
    else:
        METRICS.inc("federation.link", (link.name, "ok"))
        return results
    return None


def fan_out(
    links: List[TraderLink],
    request_wire: Dict[str, Any],
    ctx: CallContext,
    clock: Clock,
    workers: int = DEFAULT_FANOUT_WORKERS,
    needed: int = 0,
) -> List[Optional[List[Dict[str, Any]]]]:
    """Forward one import over every link concurrently, splitting the budget.

    Each link runs on a bounded worker pool and receives a *lease* on the
    shared deadline: ``remaining / outstanding`` at the moment it starts,
    re-donated through the :class:`~repro.context.DeadlineLedger` as fast
    links finish (see docs/PROTOCOL.md, "Deadline splitting").  The leased
    context is installed ambiently in the worker via ``use_context`` so
    forwarders that consult :func:`~repro.context.current_context` — and
    anything they call — inherit the query's deadline, hops, and trace.

    Degrades the way the serial sweep does: an unreachable peer yields
    ``None`` in its slot (and an error span), an exhausted budget stops the
    wait and returns whatever has arrived, and with ``needed > 0`` the wait
    ends early once that many offers have been gathered.  Results come back
    in link order regardless of completion order, so merges stay
    deterministic.
    """
    links = list(links)
    results: List[Optional[List[Dict[str, Any]]]] = [None] * len(links)
    if not links:
        return results
    ledger = DeadlineLedger(ctx, clock, len(links))

    def forward_one(index: int, link: TraderLink) -> None:
        leased = ledger.lease()
        try:
            results[index] = step(
                _forward_link(
                    link, link.forwarder, request_wire, leased, clock, clock()
                )
            )
        finally:
            ledger.release()

    executor = ThreadPoolExecutor(
        max_workers=max(1, min(workers, len(links))),
        thread_name_prefix="trader-fanout",
    )
    link_for = {}
    pending = set()
    budget_exhausted = False
    try:
        for index, link in enumerate(links):
            future = executor.submit(forward_one, index, link)
            link_for[future] = link
            pending.add(future)
        while pending:
            budget = ledger.remaining()
            timeout = None if math.isinf(budget) else budget
            done, pending = wait(pending, timeout=timeout, return_when=FIRST_COMPLETED)
            if not done:
                budget_exhausted = True
                break  # budget spent: return the partial sweep
            if needed > 0:
                gathered = sum(len(r) for r in results if r)
                if gathered >= needed:
                    break
    finally:
        for future in pending:
            # Links a spent budget kept from ever starting are counted
            # "expired", matching the serial sweep's skip accounting; an
            # early exit because ``needed`` was reached counts nothing
            # (the serial sweep does not either).  Links already running
            # count their own outcome in ``forward_one``.
            if future.cancel() and budget_exhausted:
                METRICS.inc("federation.link", (link_for[future].name, "expired"))
        executor.shutdown(wait=False)
    # Snapshot: links still running past an early exit must not mutate
    # what the importer already merged.
    return list(results)


async def fan_out_async(
    links: List[TraderLink],
    request_wire: Dict[str, Any],
    ctx: CallContext,
    clock: Clock,
    workers: int = DEFAULT_FANOUT_WORKERS,
    needed: int = 0,
) -> List[Optional[List[Dict[str, Any]]]]:
    """Coroutine fan-out: :func:`fan_out` semantics on the event loop.

    Identical outcome accounting and deadline-ledger leasing, but each
    link is a task instead of a pooled thread — on a virtual-time
    :class:`~repro.net.aioclock.SimEventLoop` every link is genuinely in
    flight at once while the run stays deterministic (tasks start in
    link order; the loop interleaves them in virtual-time order).  On a
    spent budget, links that never started are counted ``expired`` and
    links cancelled mid-flight count ``expired`` too — the async stack's
    cancellation-on-deadline reaches into the fan-out itself.
    """
    links = list(links)
    results: List[Optional[List[Dict[str, Any]]]] = [None] * len(links)
    if not links:
        return results
    ledger = DeadlineLedger(ctx, clock, len(links))
    semaphore = asyncio.Semaphore(max(1, min(workers, len(links))))
    started: Dict[int, bool] = {}
    budget_exhausted = {"flag": False}

    async def forward_one(index: int, link: TraderLink) -> None:
        async with semaphore:
            started[index] = True
            leased = ledger.lease()
            try:
                results[index] = await _forward_link(
                    link, link.aforwarder or link.forwarder,
                    request_wire, leased, clock, clock(),
                )
            except asyncio.CancelledError:
                if budget_exhausted["flag"]:
                    # Cancelled mid-flight by a spent budget: a budget
                    # outcome.  Cancellation from an early ``needed``
                    # exit counts nothing, like the sync paths.
                    METRICS.inc("federation.link", (link.name, "expired"))
                raise
            finally:
                ledger.release()

    pending = set()
    link_index = {}
    for index, link in enumerate(links):
        task = asyncio.ensure_future(forward_one(index, link))
        link_index[task] = index
        pending.add(task)
    try:
        while pending:
            budget = ledger.remaining()
            timeout = None if math.isinf(budget) else max(0.0, budget)
            done, pending = await asyncio.wait(
                pending, timeout=timeout, return_when=asyncio.FIRST_COMPLETED
            )
            if not done:
                budget_exhausted["flag"] = True
                break  # budget spent: return the partial sweep
            if needed > 0:
                gathered = sum(len(r) for r in results if r)
                if gathered >= needed:
                    break
    finally:
        for task in pending:
            task.cancel()
            if budget_exhausted["flag"] and not started.get(link_index[task]):
                # Never started: counted like the serial sweep's skip.
                METRICS.inc(
                    "federation.link", (links[link_index[task]].name, "expired")
                )
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
    # Snapshot for symmetry with the sync fan-out.
    return list(results)
