"""Rebind-on-failure: the client half of end-to-end failure recovery.

Leases (:mod:`repro.trader.leases`) guarantee the *trader* forgets dead
exporters; :class:`~repro.rpc.resilience.ResilientCaller` guarantees a
*call* fails over across the offers an import returned.  What is still
missing after both is the refresh step: when every cached offer is
exhausted — the whole cohort crashed, or the leases lapsed while the
client sat idle — the client must go **back to the trader** and import
afresh, because a recovered exporter re-enters the market as a *new*
offer the old offer list knows nothing about.

:class:`RebindingClient` closes that loop.  It caches the ranked offer
list per import request, invokes through the generic client with
failover across it, drops the cache and re-imports when the list is
spent or lease-expired, and only then gives up.  A service that crashes
and re-exports is therefore picked up by running clients without a
restart — the paper's "best possible service *at bind time*" promise
extended over failures.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Tuple

from repro.context import CallContext
from repro.core.generic_client import GenericBinding, GenericClient
from repro.errors import BindingError, CommunicationError, LookupFailure
from repro.rpc.client import RpcClient
from repro.rpc.errors import DeadlineExceeded
from repro.rpc.resilience import CircuitOpen, ResilientCaller, transient
from repro.telemetry.metrics import METRICS
from repro.trader.offers import ServiceOffer
from repro.trader.trader import ImportRequest

_CacheKey = Tuple[str, str, str]


class RebindingClient:
    """Invoke-by-service-type with failover and trader re-import.

    ``trader`` is anything with ``import_(request, ctx=...)`` returning
    offers — a :class:`~repro.trader.trader.TraderClient` normally, or a
    co-located :class:`~repro.trader.trader.LocalTrader` in tests.

    One instance serves many service types; offer lists and open bindings
    are cached per ``(service_type, constraint, preference)`` request and
    per offer respectively, so steady-state invocations cost exactly one
    INVOKE round trip.
    """

    def __init__(
        self,
        client: RpcClient,
        trader: Any,
        resilient: Optional[ResilientCaller] = None,
        generic: Optional[GenericClient] = None,
        max_rebinds: int = 2,
    ) -> None:
        self._client = client
        self._trader = trader
        self.generic = generic or GenericClient(client)
        self.resilient = resilient or ResilientCaller(client)
        self.max_rebinds = max(0, max_rebinds)
        self._offers: Dict[_CacheKey, List[ServiceOffer]] = {}
        self._bindings: Dict[str, GenericBinding] = {}
        self._lock = threading.Lock()
        self.rebinds = 0
        self.imports = 0

    # -- invocation --------------------------------------------------------

    def invoke(
        self,
        service_type: str,
        operation: str,
        arguments: Optional[Dict[str, Any]] = None,
        constraint: str = "",
        preference: str = "",
        ctx: Optional[CallContext] = None,
    ) -> Any:
        """Invoke ``operation`` on the best live offer of ``service_type``.

        Failover order is the trader's ranking.  When every candidate
        fails transiently (or every lease in the cache has lapsed), the
        offer cache is dropped and a fresh import runs — up to
        ``max_rebinds`` times — so offers exported *after* the cache was
        filled (a crashed server that came back) are found.  Each round
        runs on a slice of the remaining deadline (``remaining /
        rounds_left``) so a dead cohort cannot eat the budget a
        re-import needs; once the *overall* budget lapses,
        :class:`DeadlineExceeded` propagates — re-importing cannot buy a
        request more time.
        """
        key: _CacheKey = (service_type, constraint, preference)
        last_error: Optional[BaseException] = None
        rounds = 1 + self.max_rebinds
        for round_index in range(rounds):
            offers = self._usable_offers(key, ctx, refresh=round_index > 0)
            if not offers:
                if last_error is not None:
                    raise last_error
                raise LookupFailure(
                    f"no live offer for type {service_type!r}"
                    + (f" with {constraint!r}" if constraint else "")
                )
            try:
                return self.resilient.run(
                    offers,
                    lambda offer, child: self._attempt(offer, operation,
                                                       arguments, child),
                    ctx=self._round_context(ctx, rounds - round_index),
                    key=_endpoint,
                    operation=f"{service_type}.{operation}",
                )
            except DeadlineExceeded:
                if ctx is None or ctx.expired(self._client.transport.now()):
                    raise  # truly out of budget
                last_error = None  # only this round's slice lapsed
            except (CommunicationError, CircuitOpen, BindingError) as exc:
                if not transient(exc):
                    raise
                last_error = exc
            # The whole ranked list is dead or shedding: forget it and
            # ask the trader again — recovery may have re-exported.
            self._evict(key, offers)
            self.rebinds += 1
            METRICS.inc("client.rebinds", (service_type,))
        if last_error is not None:
            raise last_error
        raise DeadlineExceeded(
            f"budget spent across {rounds} bind round(s) for {service_type!r}"
        )

    def _round_context(
        self, ctx: Optional[CallContext], rounds_left: int
    ) -> Optional[CallContext]:
        """A deadline slice for one bind-and-invoke round.

        The last round gets the true deadline — nothing is held back
        when no rebind can follow.
        """
        if ctx is None or ctx.deadline is None or rounds_left <= 1:
            return ctx
        now = self._client.transport.now()
        share = ctx.remaining(now) / rounds_left
        return ctx.derive(deadline=min(ctx.deadline, now + share))

    # -- cache maintenance -------------------------------------------------

    def _usable_offers(
        self, key: _CacheKey, ctx: Optional[CallContext], refresh: bool
    ) -> List[ServiceOffer]:
        with self._lock:
            cached = None if refresh else self._offers.get(key)
        if cached is not None:
            live = self._live(cached)
            if live:
                return live
            # Every cached lease lapsed while we sat idle — the cohort is
            # presumed dead; fall through to a fresh import.
            METRICS.inc("client.rebind.cache_expired", (key[0],))
        offers = self._import(key, ctx)
        with self._lock:
            self._offers[key] = offers
        return self._live(offers)

    def _live(self, offers: List[ServiceOffer]) -> List[ServiceOffer]:
        now = self._client.transport.now()
        return [offer for offer in offers if not offer.expired(now)]

    def _import(
        self, key: _CacheKey, ctx: Optional[CallContext]
    ) -> List[ServiceOffer]:
        service_type, constraint, preference = key
        # All matches: the deeper the ranked list, the more crashes a
        # single invocation can ride out before a re-import is needed.
        request = ImportRequest(service_type, constraint, preference)
        self.imports += 1
        METRICS.inc("client.rebind.imports", (service_type,))
        return self._trader.import_(request, ctx=ctx)

    def _evict(self, key: _CacheKey, offers: List[ServiceOffer]) -> None:
        with self._lock:
            self._offers.pop(key, None)
            for offer in offers:
                binding = self._bindings.pop(offer.offer_id, None)
                if binding is not None:
                    _quiet_unbind(binding)

    # -- one failover attempt ----------------------------------------------

    def _attempt(
        self,
        offer: ServiceOffer,
        operation: str,
        arguments: Optional[Dict[str, Any]],
        ctx: Optional[CallContext],
    ) -> Any:
        with self._lock:
            binding = self._bindings.get(offer.offer_id)
        try:
            if binding is None:
                binding = self.generic.bind(offer.service_ref(), ctx=ctx)
                with self._lock:
                    self._bindings[offer.offer_id] = binding
            return binding.invoke(operation, arguments, ctx=ctx).value
        except BaseException as exc:
            if transient(exc) or isinstance(exc, BindingError):
                # The cached binding (and its FSM mirror) may be stale on a
                # dead endpoint; the next attempt rebinds from scratch.
                with self._lock:
                    self._bindings.pop(offer.offer_id, None)
            raise

    # -- lifecycle ---------------------------------------------------------

    def refresh(self, service_type: Optional[str] = None) -> int:
        """Drop cached ranked cohorts so the next invoke re-imports.

        With ``service_type`` only that type's cohorts (any constraint or
        preference) are dropped; without it, all of them.  Open bindings
        are *kept* — the cached endpoints may still be the best ones, and
        an unchanged ranking will keep reusing them — this only forces
        the ranking itself to be recomputed, e.g. after a trader-side
        topology change (shard failover, rebalance) or an offer-watch
        event.  Returns how many cohorts were dropped.
        """
        with self._lock:
            if service_type is None:
                dropped = len(self._offers)
                self._offers.clear()
            else:
                stale = [key for key in self._offers if key[0] == service_type]
                dropped = len(stale)
                for key in stale:
                    del self._offers[key]
        if dropped:
            METRICS.inc(
                "client.rebind.refreshed", (service_type or "*",), amount=dropped
            )
        return dropped

    def close(self) -> None:
        with self._lock:
            bindings = list(self._bindings.values())
            self._bindings.clear()
            self._offers.clear()
        for binding in bindings:
            _quiet_unbind(binding)


def _endpoint(offer: ServiceOffer) -> str:
    """Breaker key: the offer's network endpoint, shared across offers
    hosted by one server so its breaker state is learned once."""
    ref = offer.ref
    return f"{ref['host']}:{ref['port']}"


def _quiet_unbind(binding: GenericBinding) -> None:
    try:
        binding.unbind()
    except CommunicationError:
        pass  # the endpoint is likely dead; that is why we are evicting
