"""Chaos: a shard primary crashes mid-workload; the replica takes over.

A four-shard, one-replica-each router serves a paced import grid while
leased exporters heartbeat RENEW through it.  At ``crash_at`` the
primary of the shard owning the workload's service type starts refusing
every call; the next touch trips its breaker (threshold 1 — a warm
replica is standing by) and promotes the replica, whose catch-up sweep
expires the lease that lapsed after the anti-entropy sweeps stopped.

Pinned claims, swept across the CI seed matrix:

* **availability is 1.0** — every call in every phase succeeds; the
  failover window is one breaker trip, not a visible outage;
* **the crash is invisible in the data** — per-call import results are
  identical to a control run that never crashes;
* **no stale mediation** — no import ever returns a lease-lapsed offer,
  and the *promoted replica's store* holds none either (the promotion
  sweep, not just lazy exclusion, evicted it);
* **same seed, same run** — fingerprints replay identically.
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import CommunicationError
from repro.naming.refs import ServiceRef
from repro.net import SimNetwork
from repro.net.endpoints import Address
from repro.sidl.types import DOUBLE, InterfaceType, LONG, OperationType
from repro.telemetry.metrics import METRICS
from repro.trader.service_types import ServiceType
from repro.trader.sharding import build_local_router
from repro.trader.trader import ImportRequest

from tests.chaos.harness import ChaosRun

SHARDS = ("s0", "s1", "s2", "s3")
LEASE = 0.6
SPACING = 0.25
CRASH_AT = 1.45
SWEEP_STOP = 0.8
STALE_STOP = 0.7
CALLS = 20


class _CrashedPrimary:
    """Every call fails the way a dead process does."""

    def __getattr__(self, name):
        def refuse(*args, **kwargs):
            raise CommunicationError("shard primary crashed")

        return refuse


def _service_type(name):
    return ServiceType(
        name,
        InterfaceType("I", [OperationType("Use", [], LONG)]),
        [("ChargePerDay", DOUBLE)],
    )


def run_shard_failover_workload(seed: int, crash: bool = True) -> ChaosRun:
    net = SimNetwork(seed=seed)
    clock = net.clock
    router = build_local_router(
        SHARDS, replicas=1, router_id="ch", offer_prefix="ch",
        seed=seed, clock=lambda: clock.now,
    )
    router.add_type(_service_type("CarRentalService"))
    router.add_type(_service_type("BikeRental"))
    victim = router.map.owner("CarRentalService")
    bystander = router.map.owner("BikeRental")

    exporters = [("CarRentalService", f"car-{n}", 20.0 + n) for n in range(4)]
    exporters += [("BikeRental", f"bike-{n}", 5.0 + n) for n in range(2)]
    offer_ids: Dict[str, str] = {}
    for type_name, name, charge in exporters:
        offer_ids[name] = router.export(
            type_name,
            ServiceRef.create(name, Address(name, 1), 1),
            {"ChargePerDay": charge},
            now=clock.now,
            lease_seconds=LEASE,
        )

    # ``car-0``'s exporter goes dark at STALE_STOP: its heartbeats stop,
    # so its lease lapses at last-renew + LEASE with nobody sweeping
    # (sweeps stop at SWEEP_STOP) — the promotion sweep must catch it.
    def heartbeat(name: str) -> None:
        if name == "car-0" and clock.now > STALE_STOP:
            return
        router.renew(offer_ids[name], now=clock.now)
        clock.schedule(LEASE / 2, lambda: heartbeat(name))

    for _, name, _ in exporters:
        clock.schedule(LEASE / 2, lambda n=name: heartbeat(n))

    def sweep() -> None:
        if clock.now > SWEEP_STOP:
            return
        router.expire_offers(clock.now)
        clock.schedule(LEASE / 2, sweep)

    clock.schedule(LEASE / 2, sweep)

    if crash:
        clock.schedule_at(
            CRASH_AT, lambda: setattr(router.handle(victim), "primary", _CrashedPrimary())
        )

    failovers_before = METRICS.counter("sharding.failovers", ("ch", victim))
    car_request = ImportRequest("CarRentalService", "ChargePerDay < 60", "min ChargePerDay")
    bike_request = ImportRequest("BikeRental", "", "max ChargePerDay")

    outcomes: Dict[str, str] = {}
    results: Dict[str, List[str]] = {}
    expired_imports = 0
    for index in range(CALLS):
        start = index * SPACING
        if clock.now < start:
            clock.schedule_at(start, lambda: None)
            clock.run_until(lambda: clock.now >= start)
        phase = "before" if clock.now < CRASH_AT else "crashed"
        call_id = f"c{index:02d}"
        try:
            cars = router.import_(car_request, now=clock.now)
            bikes = router.import_(bike_request, now=clock.now)
            expired_imports += sum(1 for o in cars + bikes if o.expired(clock.now))
            results[call_id] = [o.offer_id for o in cars] + [o.offer_id for o in bikes]
            outcome = "success"
        except Exception as failure:  # noqa: BLE001 - any failure is an outage
            outcome = f"error:{type(failure).__name__}"
        outcomes[call_id] = f"{phase}:{outcome}"

    clock.run_for(LEASE)  # drain the last scheduled heartbeats
    status = router.status()
    victim_store = [o.offer_id for o in router.handle(victim).primary.list_offers()]
    return ChaosRun(
        outcomes=outcomes,
        executions=[
            f"{shard_id}:{router.handle(shard_id).primary.applied_seq}"
            for shard_id in SHARDS
        ],
        extra={
            "results": results,
            "expired_imports": expired_imports,
            "victim": victim,
            "bystander": bystander,
            "failovers": METRICS.counter("sharding.failovers", ("ch", victim))
            - failovers_before,
            "victim_replicas_left": status["shards"][victim]["replicas"],
            "victim_store": sorted(victim_store),
            "map_version": status["map_version"],
        },
    )


def test_replica_promotion_keeps_availability_at_one(chaos_seed):
    run = run_shard_failover_workload(chaos_seed, crash=True)
    assert all(outcome.endswith(":success") for outcome in run.outcomes.values()), (
        run.outcomes
    )
    assert run.extra["failovers"] == 1
    assert run.extra["victim_replicas_left"] == 0  # the warm spare was spent
    # The workload actually crossed the crash: both phases are populated.
    phases = {outcome.split(":")[0] for outcome in run.outcomes.values()}
    assert phases == {"before", "crashed"}


def test_crash_is_invisible_in_import_results(chaos_seed):
    crashed = run_shard_failover_workload(chaos_seed, crash=True)
    control = run_shard_failover_workload(chaos_seed, crash=False)
    assert crashed.extra["results"] == control.extra["results"]
    assert crashed.outcomes == control.outcomes
    assert control.extra["failovers"] == 0


def test_no_lease_lapsed_offer_is_ever_imported(chaos_seed):
    run = run_shard_failover_workload(chaos_seed, crash=True)
    assert run.extra["expired_imports"] == 0
    # Stronger than lazy exclusion: the promotion sweep *evicted* the
    # dark exporter's offer from the promoted replica's store.
    assert "ch:CarRentalService:1" not in run.extra["victim_store"]
    # The live exporters' offers all survived on their shards (the
    # bike partition may or may not cohabit the victim shard).
    expected = 3 + (2 if run.extra["bystander"] == run.extra["victim"] else 0)
    assert len(run.extra["victim_store"]) == expected


def test_sharded_failover_replays_identically(chaos_seed):
    first = run_shard_failover_workload(chaos_seed, crash=True)
    second = run_shard_failover_workload(chaos_seed, crash=True)
    assert first.fingerprint() == second.fingerprint()
    assert first.extra == second.extra
