"""Offer liveness leases: the exporter-side heartbeat.

The trader side of leasing lives in :mod:`repro.trader.trader` — export
grants ``lease_seconds`` of life, RENEW refreshes it, expiry excludes the
offer from matching (lazily) and :meth:`LocalTrader.expire_offers` sweeps
it out of the store and its indexes.  This module is the *exporter* side:
a :class:`LeaseHeartbeat` renews an offer every ``interval`` seconds so
the offer stays matchable exactly as long as its exporter is alive — a
crashed or partitioned exporter simply stops renewing, and the lease
lapses on its own (the registry-liveness argument of Miraz 2008 and the
Grid Market Directory's leased publications).

:meth:`LeaseHeartbeat.schedule_on` self-reschedules on a
:class:`~repro.net.clock.SimClock`, so simulated exporters heartbeat in
virtual time (and crashing the exporter's *host* silently eats the RENEW
datagrams — no special test plumbing needed).

:meth:`beat` is one renewal attempt; when the trader reports
the offer gone (swept after a missed lease) an optional ``reexport``
callback re-registers it, which is how a recovered exporter re-enters the
market without operator action.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.telemetry.metrics import METRICS
from repro.trader.errors import OfferNotFound

#: Renew this many times per lease period; 3 gives two retries' worth of
#: slack before a single lost heartbeat can lapse the lease.
BEATS_PER_LEASE = 3.0

Renewer = Callable[[str], Optional[float]]


def heartbeat_interval(lease_seconds: float) -> float:
    """The default renewal cadence for a lease of ``lease_seconds``."""
    return lease_seconds / BEATS_PER_LEASE


class LeaseHeartbeat:
    """Keeps one exported offer's lease alive.

    ``renew`` is the renewal callable — ``TraderClient.renew`` for remote
    traders, or ``lambda oid: trader.renew(oid, clock())`` for co-located
    ones.  ``reexport`` (optional) is invoked when the trader no longer
    knows the offer (it was swept or withdrawn); it must return the fresh
    offer id, which the heartbeat adopts.
    """

    def __init__(
        self,
        renew: Renewer,
        offer_id: str,
        interval: float,
        reexport: Optional[Callable[[], str]] = None,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"heartbeat interval must be positive: {interval!r}")
        self.renew = renew
        self.offer_id = offer_id
        self.interval = interval
        self.reexport = reexport
        self.stopped = False
        self.beats = 0
        self.failures = 0
        self.reexports = 0

    def stop(self) -> None:
        """No further renewals; the lease lapses naturally."""
        self.stopped = True

    def beat(self) -> bool:
        """One renewal attempt; True when the lease (still) stands.

        Transport errors are swallowed — a heartbeat must never take its
        exporter down — and counted; the next beat retries.  An offer the
        trader has swept triggers ``reexport`` when one was given.
        """
        if self.stopped:
            return False
        try:
            self.renew(self.offer_id)
        except OfferNotFound:
            return self._handle_lost()
        except Exception as exc:  # noqa: BLE001 - liveness must not propagate
            if type(exc).__name__ == "RemoteFault" and getattr(exc, "kind", "") == "OfferNotFound":
                return self._handle_lost()
            self.failures += 1
            METRICS.inc("trader.lease.heartbeats", ("failed",))
            return False
        self.beats += 1
        METRICS.inc("trader.lease.heartbeats", ("ok",))
        return True

    def _handle_lost(self) -> bool:
        self.failures += 1
        METRICS.inc("trader.lease.heartbeats", ("lost",))
        if self.reexport is None:
            return False
        try:
            self.offer_id = self.reexport()
        except Exception:  # noqa: BLE001 - retried on the next beat
            METRICS.inc("trader.lease.heartbeats", ("reexport_failed",))
            return False
        self.reexports += 1
        METRICS.inc("trader.lease.heartbeats", ("reexported",))
        return True

    # -- clock bindings ----------------------------------------------------

    def schedule_on(self, clock: Any) -> None:
        """Heartbeat forever on a SimClock-style scheduler (virtual time);
        :meth:`stop` withdraws the pending beat from the clock."""
        original_stop = self.stop

        def stop_pending() -> None:
            original_stop()
            pending[0].cancel()

        self.stop = stop_pending  # type: ignore[method-assign]

        def tick() -> None:
            self.beat()
            if not self.stopped:
                pending[0] = clock.schedule(self.interval, tick)

        pending = [clock.schedule(self.interval, tick)]


def keep_alive(
    renew: Renewer,
    offer_id: str,
    lease_seconds: float,
    clock: Optional[Any] = None,
    reexport: Optional[Callable[[], str]] = None,
) -> LeaseHeartbeat:
    """Convenience: a heartbeat at the default cadence, scheduled if a
    virtual clock is given (otherwise the caller drives ``beat``)."""
    heartbeat = LeaseHeartbeat(
        renew, offer_id, heartbeat_interval(lease_seconds), reexport=reexport
    )
    if clock is not None:
        heartbeat.schedule_on(clock)
    return heartbeat
