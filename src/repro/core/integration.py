"""Integrating innovative and tradable services (§4.1).

The maturation path: an innovative service starts browsable-only; once a
service type is agreed, its SID's ``COSM_TraderExport`` embedding supplies
everything the trader needs — the type (derived or pre-registered) and the
offer's property values — while the service *stays accessible to generic
clients* unchanged.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Union

from repro.errors import CosmError
from repro.naming.refs import ServiceRef
from repro.sidl.sid import ServiceDescription
from repro.trader.errors import DuplicateServiceType
from repro.trader.leases import LeaseHeartbeat, keep_alive
from repro.trader.service_types import RESERVED_EXPORTS, service_type_from_sid
from repro.trader.trader import LocalTrader, TraderClient


def export_properties(sid: ServiceDescription) -> Dict[str, Any]:
    """The offer properties a SID's trader export carries (§4.1)."""
    export = sid.trader_export or {}
    return {
        key: value for key, value in export.items() if key not in RESERVED_EXPORTS
    }


def make_tradable(
    sid: ServiceDescription,
    ref: ServiceRef,
    trader: Union[LocalTrader, TraderClient],
    now: float = 0.0,
    lease_seconds: Optional[float] = None,
) -> str:
    """Register a SID-described service at a trader; returns the offer id.

    * When the trader does not yet know the service type, it is derived
      from the SID (``service_type_from_sid``) and registered first —
      modelling the standardisation step of §2.2.
    * When the type already exists, only the offer is exported, which is
      the cheap steady-state transition the paper argues for.

    ``lease_seconds`` asks the trader for a liveness lease instead of an
    until-withdrawn offer; pair it with :func:`keep_tradable` (or
    :func:`repro.trader.leases.keep_alive`) so the offer stays matchable
    while the service lives.

    Raises :class:`CosmError` when the SID has no ``COSM_TraderExport``
    embedding: a purely innovative SID is not tradable yet.
    """
    if sid.trader_export is None:
        raise CosmError(
            f"SID {sid.name!r} carries no COSM_TraderExport; "
            f"it can only be mediated via browsers"
        )
    derived = service_type_from_sid(sid)
    if isinstance(trader, LocalTrader):
        if not trader.types.has(derived.name):
            trader.add_type(derived, now)
        return trader.export(
            derived.name, ref, export_properties(sid), now,
            lease_seconds=lease_seconds,
        )
    # Remote trader via RPC stub.
    if derived.name not in trader.list_types():
        try:
            trader.add_type(derived)
        except DuplicateServiceType:
            pass  # registration race with another exporter
    return trader.export(
        derived.name, ref, export_properties(sid), lease_seconds=lease_seconds
    )


def keep_tradable(
    sid: ServiceDescription,
    ref: ServiceRef,
    trader: Union[LocalTrader, TraderClient],
    lease_seconds: float,
    clock: Optional[Any] = None,
    now: float = 0.0,
) -> LeaseHeartbeat:
    """Export with a liveness lease and keep heartbeating it.

    The combination a service runtime wants at startup: the offer is
    registered via :func:`make_tradable`, then a
    :class:`~repro.trader.leases.LeaseHeartbeat` renews it at the default
    cadence on ``clock`` (a :class:`~repro.net.clock.SimClock`), or
    whenever the caller calls ``heartbeat.beat()``.
    Should the trader sweep the offer anyway (the host was partitioned
    past its lease), the heartbeat **re-exports** it with the same SID and
    reference, so a recovered service re-enters the market on its own.
    """

    def current() -> float:
        # SimClock exposes ``now`` as a property; other clock-likes may
        # provide a callable.  No clock means the caller's fixed ``now``.
        value = getattr(clock, "now", None) if clock is not None else None
        if value is None:
            return now
        return value() if callable(value) else value

    def export() -> str:
        return make_tradable(
            sid, ref, trader, now=current(), lease_seconds=lease_seconds,
        )

    offer_id = export()
    if isinstance(trader, LocalTrader):
        renew = lambda oid: trader.renew(oid, current())  # noqa: E731
    else:
        renew = trader.renew
    return keep_alive(renew, offer_id, lease_seconds, clock=clock, reexport=export)
