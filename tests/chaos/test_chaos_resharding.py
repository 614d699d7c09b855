"""Chaos: live resharding survives a crash at *every* migration step.

A three-shard, one-replica-each router serves leased exporters with
renew heartbeats while a fourth shard joins and the coordinator streams
every moved type across, one ``step()`` at a time.  Between steps the
workload keeps hammering the moving types: an import of each, plus an
export/renew/withdraw round-trip on the type in flight — the calls the
dual-ownership window exists to protect.

The workload runs on both shapes ``build_router`` builds: in-process,
and with every primary and replica a node of its own on the
``SimNetwork`` (the joining shard too), each call under a deadline
(``CALL_BUDGET``).  Each crash flavour is injected at every step index
in turn:

* **donor** — the migrating type's source primary dies (in-process a
  stand-in refuses every call; remote, its host crashes); the breaker
  trips and promotes the replica, which inherited the
  migration record (snapshot list, seal, counters) from the delta log,
  so the interrupted step retries there transparently;
* **coordinator** — the coordinator process dies; a brand-new one
  resumes from the shared checkpoint store and idempotently redoes the
  interrupted step.

Pinned claims, swept across the CI seed matrix:

* **availability is 1.0** — every probe call in every run (baseline and
  all crash variants) succeeds;
* **the crash is invisible in the data** — per-probe import results are
  identical to the crash-free resharding run, and the final offer set
  is identical to a control run that never resharded at all;
* **no stale mediation** — no probe ever returns a lease-lapsed offer;
* **same seed, same run** — fingerprints replay identically.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.naming.refs import ServiceRef
from repro.net import SimNetwork
from repro.net.endpoints import Address
from repro.sidl.types import DOUBLE, InterfaceType, LONG, OperationType
from repro.trader.service_types import ServiceType
from repro.trader.sharding import MemoryCheckpoints, MigrationCoordinator, build_router
from repro.trader.trader import ImportRequest

from tests.chaos.harness import (
    REPLY_LATENCY,
    ChaosRun,
    SerialClient,
    primary_crasher,
    shard_nodes,
)

SHARDS = ("s0", "s1", "s2")
LEASE = 0.6
SPACING = 0.2


def _service_type(name):
    return ServiceType(
        name,
        InterfaceType("I", [OperationType("Use", [], LONG)]),
        [("ChargePerDay", DOUBLE)],
    )


def run_resharding_workload(
    seed: int,
    reshard: bool = True,
    crash_kind: Optional[str] = None,
    crash_step: Optional[int] = None,
    shape: str = "local",
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

    exporters = [("CarRentalService", f"car-{n}", 20.0 + n) for n in range(4)]
    exporters += [("BikeRental", f"bike-{n}", 5.0 + n) for n in range(2)]
    offer_ids: Dict[str, str] = {}
    for type_name, name, charge in exporters:
        offer_ids[name] = client.call(
            router.export,
            type_name,
            ServiceRef.create(name, Address(name, 1), 1),
            {"ChargePerDay": charge},
            now=clock.now,
            lease_seconds=LEASE,
        )

    def heartbeat(name: str) -> None:
        client.call(router.renew, offer_ids[name], now=clock.now)
        client.later(LEASE / 2, lambda: heartbeat(name))

    for _, name, _ in exporters:
        client.later(LEASE / 2, lambda n=name: heartbeat(n))

    def sweep() -> None:
        client.call(router.expire_offers, clock.now)
        client.later(LEASE / 2, sweep)

    client.later(LEASE / 2, sweep)

    car_request = ImportRequest("CarRentalService", "ChargePerDay < 60", "min ChargePerDay")
    bike_request = ImportRequest("BikeRental", "", "max ChargePerDay")

    outcomes: Dict[str, str] = {}
    results: Dict[str, List[str]] = {}
    stats = {"expired_imports": 0}

    def probe(call_id: str, moving: Optional[str] = None) -> None:
        try:
            # Each answer is judged as it arrives, less its flight back.
            cars = client.call(router.import_, car_request, now=clock.now)
            stats["expired_imports"] += sum(1 for o in cars if o.expired(clock.now - flight))
            bikes = client.call(router.import_, bike_request, now=clock.now)
            stats["expired_imports"] += sum(1 for o in bikes if o.expired(clock.now - flight))
            results[call_id] = [o.offer_id for o in cars] + [o.offer_id for o in bikes]
            if moving is not None:
                # The writes the window protects: a full mutate round-trip
                # on the very type mid-flight — minted, renewed, withdrawn.
                temp = client.call(
                    router.export,
                    moving,
                    ServiceRef.create("temp", Address("temp", 1), 1),
                    {"ChargePerDay": 1.0},
                    now=clock.now,
                    lease_seconds=LEASE,
                )
                assert client.call(router.renew, temp, now=clock.now) is not None
                client.call(router.withdraw, temp)
            outcomes[call_id] = "success"
        except Exception as failure:  # noqa: BLE001 - any failure is an outage
            outcomes[call_id] = f"error:{type(failure).__name__}"

    for index in range(3):
        clock.run_for(SPACING)
        probe(f"pre{index}")

    steps = 0
    migrated: List[str] = []
    if reshard:
        # The joining shard's nodes already exist when it joins: built
        # alike, by a router of their own that the live router takes
        # them from.
        joining = build_router(
            ["s10"], clock=lambda: clock.now, replicas=1, router_id="ch",
            offer_prefix="ch", node=shard_nodes(net, shape),
        ).handle("s10")
        # "s10" wins rendezvous for both workload types against s0-s2, so
        # the join moves everything — the interesting case.
        moved = router.add_shard("s10", joining.primary, joining.replicas)
        checkpoints = MemoryCheckpoints()
        coordinator = MigrationCoordinator(router, checkpoints=checkpoints, chunk_size=1)
        for type_name in sorted(moved):
            state = coordinator.begin(type_name, router.map.owner(type_name))
            migrated.append(type_name)
            while not state.finished:
                if steps == crash_step and crash_kind == "donor":
                    primary_crasher(net, router, state.source, shape)()
                if steps == crash_step and crash_kind == "coordinator":
                    coordinator = MigrationCoordinator(
                        router, checkpoints=checkpoints, chunk_size=1
                    )
                    state = coordinator.resume(state.migration_id)
                    if state.finished:
                        break
                client.call(coordinator.step, state, now=clock.now)
                steps += 1
                clock.run_for(SPACING)
                probe(f"mig{steps:02d}", moving=state.service_type)

    for index in range(3):
        clock.run_for(SPACING)
        probe(f"post{index}")

    clock.run_for(LEASE)
    final_store = sorted(o.offer_id for o in router.offers.all())
    return ChaosRun(
        outcomes=outcomes,
        executions=[
            f"{shard_id}:{router.handle(shard_id).primary.status()['applied_seq']}"
            for shard_id in router.map.shard_ids
        ],
        extra={
            "results": results,
            "expired_imports": stats["expired_imports"],
            "steps": steps,
            "migrated": migrated,
            "final_store": final_store,
            "pins": router.status()["pins"],
            "open_migrations": sorted(router.status()["migrations"]),
        },
    )


def test_resharding_baseline_moves_types_without_an_outage(chaos_seed, shape):
    run = run_resharding_workload(chaos_seed, shape=shape)
    assert all(outcome == "success" for outcome in run.outcomes.values()), run.outcomes
    assert run.extra["migrated"], "rendezvous moved nothing — the test is vacuous"
    assert run.extra["steps"] >= len(run.extra["migrated"]) * 4
    assert run.extra["expired_imports"] == 0
    assert run.extra["pins"] == {}
    assert run.extra["open_migrations"] == []
    control = run_resharding_workload(chaos_seed, reshard=False, shape=shape)
    assert run.extra["final_store"] == control.extra["final_store"]


def test_donor_crash_at_every_step_is_invisible(chaos_seed, shape):
    baseline = run_resharding_workload(chaos_seed, shape=shape)
    for step in range(baseline.extra["steps"]):
        crashed = run_resharding_workload(
            chaos_seed, crash_kind="donor", crash_step=step, shape=shape
        )
        label = f"donor crash at step {step}"
        assert all(
            outcome == "success" for outcome in crashed.outcomes.values()
        ), (label, crashed.outcomes)
        assert crashed.extra["results"] == baseline.extra["results"], label
        assert crashed.extra["final_store"] == baseline.extra["final_store"], label
        assert crashed.extra["expired_imports"] == 0, label


def test_coordinator_crash_at_every_step_is_invisible(chaos_seed, shape):
    baseline = run_resharding_workload(chaos_seed, shape=shape)
    for step in range(baseline.extra["steps"]):
        crashed = run_resharding_workload(
            chaos_seed, crash_kind="coordinator", crash_step=step, shape=shape
        )
        label = f"coordinator crash at step {step}"
        assert all(
            outcome == "success" for outcome in crashed.outcomes.values()
        ), (label, crashed.outcomes)
        assert crashed.extra["results"] == baseline.extra["results"], label
        assert crashed.extra["final_store"] == baseline.extra["final_store"], label
        assert crashed.extra["open_migrations"] == [], label


def test_resharding_replays_identically(chaos_seed, shape):
    first = run_resharding_workload(
        chaos_seed, crash_kind="donor", crash_step=2, shape=shape
    )
    second = run_resharding_workload(
        chaos_seed, crash_kind="donor", crash_step=2, shape=shape
    )
    assert first.fingerprint() == second.fingerprint()
    assert first.extra == second.extra
