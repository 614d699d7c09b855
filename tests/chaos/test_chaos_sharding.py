"""Chaos: a shard primary crashes mid-workload; the replica takes over.

A four-shard, one-replica-each router serves a paced import grid while
leased exporters heartbeat RENEW through it.  At ``crash_at`` the
primary of the shard owning the workload's service type dies; the next
touch trips its breaker (threshold 1 — a warm replica is standing by)
and promotes the replica, whose catch-up sweep expires the lease that
lapsed after the anti-entropy sweeps stopped.

The workload runs on both shapes ``build_router`` builds.  In-process,
the dead primary is a stand-in that refuses every call; remote, every
primary and replica is a node of its own on the ``SimNetwork`` and the
primary's host crashes, so the router's shard hop and the replica push
cross the simulated network.  Every call carries a deadline
(``CALL_BUDGET``), so the dead primary forfeits only its slice of it.

Pinned claims, swept across the CI seed matrix, on both shapes:

* **availability is 1.0** — every call in every phase succeeds; the
  failover window is one breaker trip, not a visible outage;
* **the crash is invisible in the data** — per-call import results are
  identical to a control run that never crashes;
* **no stale mediation** — no import ever returns a lease-lapsed offer,
  and the *promoted replica's store* holds none either (the promotion
  sweep, not just lazy exclusion, evicted it);
* **same seed, same run** — fingerprints replay identically.

One more remote run drops and duplicates datagrams on every hop and
checks only what faults cannot excuse: no lease-lapsed offer imported,
and the promoted replica holding every export whose lease an
acknowledged RENEW still vouches for.
"""

from __future__ import annotations

from typing import Dict, List

from repro.naming.refs import ServiceRef
from repro.net import SimNetwork
from repro.net.endpoints import Address
from repro.sidl.types import DOUBLE, InterfaceType, LONG, OperationType
from repro.telemetry.metrics import METRICS
from repro.trader.service_types import ServiceType
from repro.trader.sharding import build_router
from repro.trader.trader import ImportRequest

from tests.chaos.harness import (
    REPLY_LATENCY,
    ChaosRun,
    SerialClient,
    primary_crasher,
    shard_nodes,
)

SHARDS = ("s0", "s1", "s2", "s3")
LEASE = 0.6
SPACING = 0.25
CRASH_AT = 1.45
SWEEP_STOP = 0.8
STALE_STOP = 0.7
CALLS = 20
DROP = 0.05
DUPLICATE = 0.05


def _service_type(name):
    return ServiceType(
        name,
        InterfaceType("I", [OperationType("Use", [], LONG)]),
        [("ChargePerDay", DOUBLE)],
    )


def run_shard_failover_workload(
    seed: int,
    crash: bool = True,
    shape: str = "local",
    drop: float = 0.0,
    duplicate: float = 0.0,
) -> ChaosRun:
    net = SimNetwork(seed=seed)
    clock = net.clock
    client = SerialClient(clock)
    flight = REPLY_LATENCY[shape]
    router = build_router(
        SHARDS, clock=lambda: clock.now, replicas=1, router_id="ch",
        offer_prefix="ch", node=shard_nodes(net, shape),
    )
    router.add_type(_service_type("CarRentalService"))
    router.add_type(_service_type("BikeRental"))
    victim = router.map.owner("CarRentalService")
    bystander = router.map.owner("BikeRental")
    crash_victim = primary_crasher(net, router, victim, shape)
    net.faults.drop_probability = drop
    net.faults.duplicate_probability = duplicate

    exporters = [("CarRentalService", f"car-{n}", 20.0 + n) for n in range(4)]
    exporters += [("BikeRental", f"bike-{n}", 5.0 + n) for n in range(2)]
    offer_ids: Dict[str, str] = {}
    #: The lease each exporter was last told it holds, by offer id.
    acked: Dict[str, float] = {}
    for type_name, name, charge in exporters:
        stamped = clock.now
        offer_ids[name] = client.call(
            router.export,
            type_name,
            ServiceRef.create(name, Address(name, 1), 1),
            {"ChargePerDay": charge},
            now=clock.now,
            lease_seconds=LEASE,
        )
        acked[offer_ids[name]] = stamped + LEASE
    heartbeat_failures: List[str] = []

    # ``car-0``'s exporter goes dark at STALE_STOP: its heartbeats stop,
    # so its lease lapses at last-renew + LEASE with nobody sweeping
    # (sweeps stop at SWEEP_STOP) — the promotion sweep must catch it.
    def heartbeat(name: str) -> None:
        if name == "car-0" and clock.now > STALE_STOP:
            return
        offer_id = offer_ids[name]
        try:
            acked[offer_id] = client.call(router.renew, offer_id, now=clock.now)
        except Exception as failure:  # noqa: BLE001 - the exporter retries next beat
            heartbeat_failures.append(f"{clock.now:.3f}:{name}:{type(failure).__name__}")
        client.later(LEASE / 2, lambda: heartbeat(name))

    for _, name, _ in exporters:
        client.later(LEASE / 2, lambda n=name: heartbeat(n))

    def sweep() -> None:
        if clock.now > SWEEP_STOP:
            return
        client.call(router.expire_offers, clock.now)
        client.later(LEASE / 2, sweep)

    client.later(LEASE / 2, sweep)

    if crash:
        clock.schedule_at(CRASH_AT, crash_victim)

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
            # Each answer is judged as it arrives, less its flight back.
            cars = client.call(router.import_, car_request, now=clock.now)
            expired_imports += sum(1 for o in cars if o.expired(clock.now - flight))
            bikes = client.call(router.import_, bike_request, now=clock.now)
            expired_imports += sum(1 for o in bikes if o.expired(clock.now - flight))
            results[call_id] = [o.offer_id for o in cars] + [o.offer_id for o in bikes]
            outcome = "success"
        except Exception as failure:  # noqa: BLE001 - any failure is an outage
            outcome = f"error:{type(failure).__name__}"
        outcomes[call_id] = f"{phase}:{outcome}"

    clock.run_for(LEASE)  # drain the last scheduled heartbeats
    # The fault window closes before the run is read back.
    net.faults.drop_probability = net.faults.duplicate_probability = 0.0
    status = router.status()
    read_at = clock.now
    victim_store = [o.offer_id for o in router.handle(victim).primary.list_offers()]
    return ChaosRun(
        outcomes=outcomes,
        executions=[
            f"{shard_id}:{router.handle(shard_id).primary.status()['applied_seq']}"
            for shard_id in SHARDS
        ],
        dropped=net.faults.dropped_count,
        duplicated=net.faults.duplicated_count,
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
        observed={
            "heartbeat_failures": heartbeat_failures,
            "vouched_for": sorted(
                offer_id for offer_id, expires in acked.items()
                if expires is not None and expires > read_at
            ),
        },
    )


def test_replica_promotion_keeps_availability_at_one(chaos_seed, shape):
    run = run_shard_failover_workload(chaos_seed, crash=True, shape=shape)
    assert all(outcome.endswith(":success") for outcome in run.outcomes.values()), (
        run.outcomes
    )
    assert run.observed["heartbeat_failures"] == []
    assert run.extra["failovers"] == 1  # the crash was felt
    assert run.extra["victim_replicas_left"] == 0  # the warm spare was spent
    # The workload actually crossed the crash: both phases are populated.
    phases = {outcome.split(":")[0] for outcome in run.outcomes.values()}
    assert phases == {"before", "crashed"}


def test_crash_is_invisible_in_import_results(chaos_seed, shape):
    crashed = run_shard_failover_workload(chaos_seed, crash=True, shape=shape)
    control = run_shard_failover_workload(chaos_seed, crash=False, shape=shape)
    assert crashed.extra["results"] == control.extra["results"]
    assert crashed.outcomes == control.outcomes
    assert control.extra["failovers"] == 0


def test_no_lease_lapsed_offer_is_ever_imported(chaos_seed, shape):
    run = run_shard_failover_workload(chaos_seed, crash=True, shape=shape)
    assert run.extra["expired_imports"] == 0
    # Stronger than lazy exclusion: the promotion sweep *evicted* the
    # dark exporter's offer from the promoted replica's store.
    assert "ch:CarRentalService:1" not in run.extra["victim_store"]
    # The live exporters' offers all survived on their shards (the
    # bike partition may or may not cohabit the victim shard).
    expected = 3 + (2 if run.extra["bystander"] == run.extra["victim"] else 0)
    assert len(run.extra["victim_store"]) == expected


def test_sharded_failover_replays_identically(chaos_seed, shape):
    first = run_shard_failover_workload(chaos_seed, crash=True, shape=shape)
    second = run_shard_failover_workload(chaos_seed, crash=True, shape=shape)
    assert first.fingerprint() == second.fingerprint()
    assert first.extra == second.extra


def test_remote_replica_push_under_drop_and_duplicate(chaos_seed):
    """Every hop — router to shard and primary to replica — drops and
    duplicates datagrams at a rate the clients' retries cover.  Calls may
    fail; what no fault excuses is an imported offer whose lease lapsed,
    or a promoted replica missing an export whose lease an acknowledged
    RENEW still vouches for."""
    run = run_shard_failover_workload(
        chaos_seed, shape="remote", drop=DROP, duplicate=DUPLICATE
    )
    assert run.dropped > 0 and run.duplicated > 0
    assert run.extra["failovers"] > 0
    assert run.extra["expired_imports"] == 0
    on_victim = ("ch:CarRentalService:",) + (
        ("ch:BikeRental:",) if run.extra["bystander"] == run.extra["victim"] else ()
    )
    vouched = [o for o in run.observed["vouched_for"] if o.startswith(on_victim)]
    assert vouched  # the check is not vacuous
    assert sorted(set(vouched) - set(run.extra["victim_store"])) == []
