"""Offer liveness leases: grant, renew, lazy exclusion, sweep, heartbeat."""

import pytest

from repro.core.integration import keep_tradable
from repro.naming.refs import ServiceRef
from repro.net.endpoints import Address
from repro.sidl.builder import load_service_description
from repro.sidl.types import DOUBLE, InterfaceType, LONG, OperationType, STRING
from repro.telemetry.log import use_log_sink
from repro.telemetry.metrics import METRICS
from repro.services.car_rental import CAR_RENTAL_SIDL
from repro.trader.errors import OfferNotFound
from repro.trader.leases import (
    BEATS_PER_LEASE,
    LeaseHeartbeat,
    heartbeat_interval,
    keep_alive,
)
from repro.trader.service_types import ServiceType
from repro.trader.sharding.rpc import SHARDING_PROGRAM, ShardReplicationService
from repro.trader.sharding.shard import TraderShard
from repro.trader.trader import (
    TRADER_PROGRAM,
    ImportRequest,
    LocalTrader,
    TraderClient,
    TraderService,
)


def rental_type():
    return ServiceType(
        "CarRentalService",
        InterfaceType("I", [OperationType("SelectCar", [], LONG)]),
        [("ChargePerDay", DOUBLE), ("ChargeCurrency", STRING)],
    )


PROPS = {"ChargePerDay": 80.0, "ChargeCurrency": "USD"}


def ref(name="svc", port=1):
    return ServiceRef.create(name, Address("host", port), 4711)


@pytest.fixture
def trader():
    trader = LocalTrader("t1")
    trader.add_type(rental_type())
    return trader


# -- the grant ----------------------------------------------------------------


def test_export_without_lease_never_expires(trader):
    offer_id = trader.export("CarRentalService", ref(), PROPS, now=0.0)
    offer = trader.offers.get(offer_id)
    assert offer.expires_at is None
    assert not offer.expired(1e9)
    # Renewing a leaseless offer is a harmless no-op.
    assert trader.renew(offer_id, now=50.0) is None


def test_export_with_lease_sets_expiry(trader):
    offer_id = trader.export(
        "CarRentalService", ref(), PROPS, now=10.0, lease_seconds=5.0
    )
    offer = trader.offers.get(offer_id)
    assert offer.expires_at == 15.0
    assert offer.lease_seconds == 5.0
    assert not offer.expired(14.999)
    assert offer.expired(15.0)


def test_renew_extends_from_renewal_time(trader):
    offer_id = trader.export(
        "CarRentalService", ref(), PROPS, now=0.0, lease_seconds=5.0
    )
    assert trader.renew(offer_id, now=4.0) == 9.0
    assert not trader.offers.get(offer_id).expired(8.0)


def test_renew_revives_lapsed_but_unswept_offer(trader):
    offer_id = trader.export(
        "CarRentalService", ref(), PROPS, now=0.0, lease_seconds=5.0
    )
    # Lapsed at t=7 but not yet swept: a late heartbeat gets grace.
    assert trader.import_(ImportRequest("CarRentalService"), now=7.0) == []
    assert trader.renew(offer_id, now=7.0) == 12.0
    assert len(trader.import_(ImportRequest("CarRentalService"), now=8.0)) == 1


# -- lazy exclusion and the sweep --------------------------------------------


def test_expired_offers_are_lazily_excluded_from_matching(trader):
    trader.export("CarRentalService", ref("a", 1), PROPS, now=0.0, lease_seconds=5.0)
    keeper = trader.export("CarRentalService", ref("b", 2), PROPS, now=0.0)
    lazy_before = METRICS.counter_total("trader.offers.expired")
    offers = trader.import_(ImportRequest("CarRentalService"), now=6.0)
    assert [o.offer_id for o in offers] == [keeper]
    assert METRICS.counter_total("trader.offers.expired") == lazy_before + 1
    # The expired offer is excluded, not evicted: the sweep does that.
    assert len(trader.offers) == 2


def test_ranked_walk_logs_lazy_expiry_like_the_scan():
    """The sorted-index walk and the linear scan are one matching loop:
    a lapsed lease met on either is counted *and* logged."""
    logged = {}
    for range_index in (True, False):
        trader = LocalTrader(f"walk-{range_index}", offer_prefix="w", range_index=range_index)
        trader.add_type(rental_type())
        for charge, lease in ((10.0, 5.0), (30.0, None), (20.0, None)):
            trader.export(
                "CarRentalService", ref(), {**PROPS, "ChargePerDay": charge},
                now=0.0, lease_seconds=lease,
            )
        records = []
        with use_log_sink(records.append):
            offers = trader.import_(
                ImportRequest(
                    "CarRentalService", preference="min ChargePerDay", max_matches=2
                ),
                now=6.0,
            )
        assert [o.properties["ChargePerDay"] for o in offers] == [20.0, 30.0]
        events = [r for r in records if r["event"] == "trader.lease_expired"]
        assert all(r["mode"] == "lazy" and r["at"] == 6.0 for r in events)
        logged[range_index] = [r["offer"] for r in events]
        assert len(events) == METRICS.counter(
            "trader.offers.expired", (trader.trader_id, "lazy")
        )
    assert logged[True] == logged[False] == ["w:CarRentalService:1"]


def test_sweep_evicts_and_counts(trader):
    for port in (1, 2):
        trader.export(
            "CarRentalService", ref("a", port), PROPS, now=0.0, lease_seconds=5.0
        )
    keeper = trader.export("CarRentalService", ref("b", 3), PROPS, now=0.0)
    swept_before = METRICS.counter("trader.offers.expired", ("t1", "swept"))
    assert trader.expire_offers(now=6.0) == 2
    assert METRICS.counter("trader.offers.expired", ("t1", "swept")) == swept_before + 2
    assert [o.offer_id for o in trader.offers.all()] == [keeper]
    # Idempotent: a second sweep finds nothing.
    assert trader.expire_offers(now=6.0) == 0


def test_sweep_can_be_narrowed_to_types_or_spare_them(trader):
    base = rental_type()
    trader.add_type(ServiceType("Other", base.interface, list(base.attributes.items())))
    for name in ("CarRentalService", "Other"):
        trader.export(name, ref(name, 1), PROPS, now=0.0, lease_seconds=5.0)
    assert trader.expire_offers(now=6.0, spare={"CarRentalService", "Other"}) == 0
    assert trader.expire_offers(now=6.0, only=["Other"], spare={"Other"}) == 0
    assert trader.expire_offers(now=6.0, only=["Other"]) == 1
    assert [o.service_type for o in trader.offers.all()] == ["CarRentalService"]
    assert trader.expire_offers(now=6.0, spare={"Other"}) == 1


def test_sweep_keeps_equality_index_consistent(trader):
    offer_id = trader.export(
        "CarRentalService", ref(), PROPS, now=0.0, lease_seconds=5.0
    )
    store = trader.offers
    indexed = {
        oid for per_value in store._eq_index.values() for ids in per_value.values()
        for oid in ids
    }
    assert offer_id in indexed
    trader.expire_offers(now=6.0)
    indexed = {
        oid for per_value in store._eq_index.values() for ids in per_value.values()
        for oid in ids
    }
    assert offer_id not in indexed
    # Constraint matching through the index no longer sees the offer.
    offers = trader.import_(
        ImportRequest("CarRentalService", constraint="ChargeCurrency == 'USD'"),
        now=6.0,
    )
    assert offers == []


def test_renew_after_sweep_raises_offer_not_found(trader):
    offer_id = trader.export(
        "CarRentalService", ref(), PROPS, now=0.0, lease_seconds=5.0
    )
    trader.expire_offers(now=6.0)
    with pytest.raises(OfferNotFound):
        trader.renew(offer_id, now=6.0)


# -- the RENEW wire operation -------------------------------------------------


def test_renew_over_rpc(net, make_server, make_client):
    clock = {"now": 0.0}
    service = TraderService(make_server("trader-host"), now=lambda: clock["now"])
    client = TraderClient(make_client(), service.address)
    client.add_type(rental_type())
    offer_id = client.export("CarRentalService", ref(), PROPS, lease_seconds=5.0)
    clock["now"] = 4.0
    assert client.renew(offer_id) == 9.0
    service.trader.expire_offers(now=20.0)
    with pytest.raises(OfferNotFound):
        client.renew(offer_id)


def test_services_built_without_now_judge_leases_on_the_transport_clock(
    net, make_server, make_client
):
    """No lease is served past expiry: without ``now=`` both services read
    the server transport's clock, so virtual time lapses a 5 s lease."""
    server = make_server("trader-host")
    shard = TraderShard("s0")
    service = TraderService(server, trader=shard)
    ShardReplicationService(server, shard)
    rpc = make_client()
    client = TraderClient(rpc, service.address)
    client.add_type(rental_type())
    client.export("CarRentalService", ref(), PROPS, lease_seconds=5.0)
    request = ImportRequest("CarRentalService")
    assert len(client.import_(request)) == 1
    net.clock.run_for(100.0)
    assert client.import_(request) == []
    assert rpc.call(service.address, SHARDING_PROGRAM, 1, 6, {}) == 1  # EXPIRE


def test_pre_lease_peer_spelling_of_the_grant_is_still_honoured(make_server, make_client):
    """Peers older than leases send the grant as ``lifetime``; the service
    folds it in at the wire, the only place the word survives."""
    service = TraderService(make_server("trader-host"), now=lambda: 2.0)
    rpc = make_client()
    TraderClient(rpc, service.address).add_type(rental_type())
    offer_id = rpc.call(
        service.address, TRADER_PROGRAM, 1, 1,  # EXPORT, as an old stub sends it
        {"service_type": "CarRentalService", "ref": ref().to_wire(),
         "properties": PROPS, "lifetime": 5.0},
    )
    offer = service.trader.offers.get(offer_id)
    assert (offer.lease_seconds, offer.expires_at) == (5.0, 7.0)


# -- the exporter-side heartbeat ---------------------------------------------


def test_heartbeat_interval_formula():
    assert heartbeat_interval(6.0) == 6.0 / BEATS_PER_LEASE


def test_heartbeat_beats_and_counts():
    renewed = []
    heartbeat = LeaseHeartbeat(renewed.append, "o1", interval=1.0)
    assert heartbeat.beat()
    assert heartbeat.beat()
    assert renewed == ["o1", "o1"]
    assert heartbeat.beats == 2
    heartbeat.stop()
    assert not heartbeat.beat()
    assert heartbeat.beats == 2


def test_heartbeat_swallows_transport_errors():
    def flaky(offer_id):
        raise ConnectionError("network down")

    heartbeat = LeaseHeartbeat(flaky, "o1", interval=1.0)
    assert not heartbeat.beat()  # never propagates
    assert heartbeat.failures == 1


def test_heartbeat_reexports_swept_offer():
    def renew(offer_id):
        if offer_id == "old":
            raise OfferNotFound("swept")

    heartbeat = LeaseHeartbeat(renew, "old", interval=1.0, reexport=lambda: "new")
    assert heartbeat.beat()  # lost -> re-exported
    assert heartbeat.offer_id == "new"
    assert heartbeat.reexports == 1
    assert heartbeat.beat()  # the fresh offer renews normally


def test_heartbeat_without_reexport_reports_the_lost_offer():
    def renew(offer_id):
        raise OfferNotFound("swept")

    heartbeat = LeaseHeartbeat(renew, "o1", interval=1.0)
    assert not heartbeat.beat()  # lost, and nothing to re-export it with
    assert (heartbeat.failures, heartbeat.reexports) == (1, 0)


def test_heartbeat_reexport_failure_is_contained():
    def renew(offer_id):
        raise OfferNotFound("swept")

    def explode():
        raise ConnectionError("trader unreachable")

    heartbeat = LeaseHeartbeat(renew, "o1", interval=1.0, reexport=explode)
    assert not heartbeat.beat()  # swallowed; retried next beat
    assert heartbeat.reexports == 0


def test_keep_alive_on_virtual_clock_keeps_offer_matchable(net, trader):
    clock = net.clock
    offer_id = trader.export(
        "CarRentalService", ref(), PROPS, now=clock.now, lease_seconds=3.0
    )
    heartbeat = keep_alive(
        lambda oid: trader.renew(oid, clock.now), offer_id, 3.0, clock=clock
    )
    clock.run_for(10.0)  # several lease periods
    assert not trader.offers.get(offer_id).expired(clock.now)
    heartbeat.stop()
    assert clock.pending() == 0  # the next beat is withdrawn, not a no-op
    clock.run_for(4.0)  # > one lease period without renewal
    assert trader.offers.get(offer_id).expired(clock.now)
    assert trader.expire_offers(clock.now) == 1


def test_keep_tradable_exports_and_reexports(net, trader):
    clock = net.clock
    sid = load_service_description(CAR_RENTAL_SIDL)
    heartbeat = keep_tradable(sid, ref(), trader, lease_seconds=3.0, clock=clock)
    first = heartbeat.offer_id
    assert len(trader.import_(ImportRequest("CarRentalService"), now=clock.now)) == 1
    # Simulate a partition long enough for the sweep: withdraw behind the
    # heartbeat's back, as expire_offers would.
    clock.run_for(2.0)
    trader.withdraw(heartbeat.offer_id)
    clock.run_for(2.0)  # next beat finds the offer gone and re-exports
    assert heartbeat.offer_id != first
    assert heartbeat.reexports == 1
    assert len(trader.import_(ImportRequest("CarRentalService"), now=clock.now)) == 1
    heartbeat.stop()
