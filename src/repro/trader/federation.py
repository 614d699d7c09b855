"""Trader federation (§2.2): links between traders with hop-limited search.

A link names a peer trader and takes one of two forms:

* **in-process** — a *forwarder*, a callable taking an import-request
  wire dict (and, for context-aware forwarders, a ``ctx`` keyword) and
  returning a list of offer wire dicts.  Co-located traders link with the
  peer's :meth:`~repro.trader.trader.LocalTrader.import_wire`; a sweep
  runs it inline on the calling thread.
* **remote** — an :class:`~repro.rpc.client.RpcClient` plus the peer's
  address; :meth:`repro.trader.trader.TraderService.link_to` builds it, and
  a sweep issues the IMPORT RPC through the client's split-phase pair so
  several remote links are in flight at once.

Hop budget and loop breaking are carried by the request's
:class:`~repro.context.CallContext` (``hops`` and ``visited``); the
``hop_limit``/``visited`` wire fields remain as the on-the-wire encoding
and as a compatibility surface for pre-context callers.
"""

from __future__ import annotations

import inspect
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.context import CallContext, Clock, DeadlineLedger, SpanRecord, use_context
from repro.net.endpoints import Address
from repro.rpc.client import PendingCall, RpcClient
from repro.rpc.errors import DeadlineExceeded, RpcTimeout, ServerShedding
from repro.telemetry.metrics import METRICS

Forwarder = Callable[..., List[Dict[str, Any]]]

#: Default cap on remote link forwards in flight during a fan-out.
DEFAULT_FANOUT_WORKERS = 8

#: The trader RPC program and its IMPORT procedure: what a remote link calls.
TRADER_PROGRAM = 100200
PROC_IMPORT = 4


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
    """One edge of the trading graph: a ``forwarder``, or a ``client``
    plus the peer's ``address``."""

    name: str
    forwarder: Optional[Forwarder] = None
    # A link may cap how deep queries travel onward from here, on top of
    # the request's own hop budget (the ODP notion of link scope).
    max_hops: int = 8
    client: Optional[RpcClient] = None
    address: Optional[Address] = None
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
        """Forward one import over this link and wait for the answer."""
        capped, ctx = self._capped(request_wire, ctx)
        if self.forwarder is None:
            call = self._start(capped, ctx)
            self.client.gather((call,))
            return call.result()
        wants_ctx = self._ctx_aware.get(self.forwarder)
        if wants_ctx is None:
            wants_ctx = self._ctx_aware[self.forwarder] = _accepts_ctx(self.forwarder)
        if wants_ctx:
            return self.forwarder(capped, ctx=ctx)
        return self.forwarder(capped)

    def _start(
        self, capped: Dict[str, Any], ctx: Optional[CallContext]
    ) -> PendingCall:
        """Start a remote link's IMPORT (the next ``gather`` sends it).

        The context is installed ambiently rather than passed outright:
        the client keeps its own retry pacing for unreachable peers while
        inheriting the query's deadline cap, hop budget, and trace.
        """
        with use_context(ctx):
            return self.client.start(
                self.address, TRADER_PROGRAM, 1, PROC_IMPORT, capped
            )


def _count(
    link: TraderLink,
    error: Optional[Exception],
    leased: CallContext,
    now: float,
) -> None:
    """Map one forward's ending onto its ``federation.link`` count."""
    if error is None:
        outcome = "ok"
    elif isinstance(error, ServerShedding):
        # An overloaded peer shed the forward: a load signal, not a
        # liveness one.
        outcome = "shed"
    elif isinstance(error, DeadlineExceeded) or (
        isinstance(error, RpcTimeout) and leased.expired(now)
    ):
        # The lease lapsed mid-forward: a budget outcome, not a liveness
        # one — counted like the pre-flight expiry check.
        outcome = "expired"
    else:
        outcome = "unreachable"
    METRICS.inc("federation.link", (link.name, outcome))


def fan_out(
    links: List[TraderLink],
    request_wire: Dict[str, Any],
    ctx: CallContext,
    clock: Clock,
    workers: int = DEFAULT_FANOUT_WORKERS,
    needed: int = 0,
) -> List[Optional[List[Dict[str, Any]]]]:
    """Forward one import over every link, splitting the budget.

    Every link receives a *lease* on the shared deadline from a
    :class:`~repro.context.DeadlineLedger`: ``remaining / outstanding`` at
    the moment it starts, re-donated as links finish (see
    docs/PROTOCOL.md, "Deadline splitting").  Up to ``workers`` remote
    forwards are kept started on their client; in-process links run
    inline while those are in flight, with the lease installed
    ambiently, so forwarders that consult
    :func:`~repro.context.current_context` — and anything they call —
    inherit the query's deadline, hops, and trace.

    Each link that runs gets one ``federation`` span and one
    ``federation.link{ok,shed,expired,unreachable}`` count.  A link whose
    lease is spent before it starts is skipped as ``expired``; a link
    that did not answer yields ``None`` in its slot, so the sweep
    degrades to a partial merge.  With ``needed > 0`` the sweep ends as
    soon as that many offers are in: links not yet run are skipped and
    forwards still in flight are retired, neither counted.  Results come
    back in link order regardless of completion order, so merges stay
    deterministic.
    """
    links = list(links)
    results: List[Optional[List[Dict[str, Any]]]] = [None] * len(links)
    ledger = DeadlineLedger(ctx, clock, len(links))
    # ``gather`` settles the calls of one client: the remote links of a
    # trader share its service's client, and any other runs inline.
    client = next((link.client for link in links if link.forwarder is None), None)
    queued = deque(
        index for index, link in enumerate(links)
        if link.forwarder is None and link.client is client
    )
    paired = set(queued)
    in_flight: Dict[PendingCall, Tuple[int, CallContext, SpanRecord]] = {}

    def enough() -> bool:
        return needed > 0 and sum(len(r) for r in results if r) >= needed

    def lease(index: int) -> Optional[Tuple[CallContext, SpanRecord]]:
        """The link's lease and span; None (recorded) when already spent."""
        leased = ledger.lease()
        now = clock()
        span = SpanRecord("federation", f"link {links[index].name}", started_at=now)
        if not leased.expired(now):
            return leased, span
        span.outcome = "expired"
        leased.record_span(span)
        METRICS.inc("federation.link", (links[index].name, "expired"))
        ledger.release()
        return None

    def finish(
        index: int,
        leased: CallContext,
        span: SpanRecord,
        error: Optional[Exception],
        answer: Optional[List[Dict[str, Any]]],
    ) -> None:
        if error is not None:
            span.outcome = type(error).__name__
        now = clock()
        span.elapsed = now - span.started_at
        leased.record_span(span)
        _count(links[index], error, leased, now)
        ledger.release()
        results[index] = answer

    def start_remote() -> None:
        while queued and len(in_flight) < max(1, workers) and not enough():
            index = queued.popleft()
            granted = lease(index)
            if granted is not None:
                link = links[index]
                call = link._start(*link._capped(request_wire, granted[0]))
                in_flight[call] = (index, *granted)

    start_remote()
    if in_flight:
        # Put the forwards on the wire before the inline links run.
        client.gather(list(in_flight), needed=0)
    for index, link in enumerate(links):
        if index in paired:
            continue
        if enough():
            break
        granted = lease(index)
        if granted is None:
            continue
        try:
            with use_context(granted[0]):
                answer = link.forward(request_wire, granted[0])
        except Exception as error:  # noqa: BLE001 - every failure is an outcome
            finish(index, *granted, error, None)
        else:
            finish(index, *granted, None, answer)
    while in_flight:
        for call in [call for call in in_flight if call.done]:
            try:
                answer, error = call.result(), None
            except Exception as exc:  # noqa: BLE001 - every failure is an outcome
                answer, error = None, exc
            finish(*in_flight.pop(call), error, answer)
        start_remote()
        if enough() or not in_flight:
            break
        client.gather(list(in_flight), needed=1)
    if in_flight:
        client.retire(list(in_flight))
        for index, leased, span in in_flight.values():
            span.outcome = "retired"
            span.elapsed = clock() - span.started_at
            leased.record_span(span)
    # Snapshot: the importer merges exactly what arrived in the sweep.
    return list(results)
