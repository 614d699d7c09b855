"""Live resharding at 100k offers: migrate a hot type under import load.

The ISSUE-10 robustness claim: a :class:`MigrationCoordinator` streams a
hot service type's entire 100k-offer cohort from one shard to another
while a live workload keeps importing, exporting, renewing, and
withdrawing against that very type — and **not one call fails**, because
the dual-ownership window keeps the donor authoritative until FLIP and
forwards stragglers afterwards.  The only write-visible pause is the
FLIP step itself (seal + final tail replay + pin repoint), and it must
stay **under 100 ms** — the copy cost is paid incrementally by the COPY
chunks, never at cutover.

Between every coordinator step the workload fires a probe batch:
an import of the moving type (must keep answering with the same best
offer), an import of a cold type on the same router, and a full
export → renew → withdraw round-trip on the moving type.  Failures are
counted, not raised; the run asserts the count is zero.

Run standalone to emit ``BENCH_resharding.json`` (the CI smoke step uses
``--smoke`` for a reduced corpus)::

    PYTHONPATH=src python benchmarks/bench_resharding.py [--smoke]
"""

from __future__ import annotations

import argparse
import gc
import json
import time
from typing import Any, Dict, List

from repro.naming.refs import ServiceRef
from repro.net.clock import SimClock
from repro.net.endpoints import Address
from repro.sidl.types import DOUBLE, InterfaceType, LONG, OperationType
from repro.trader.service_types import ServiceType
from repro.trader.sharding import MigrationCoordinator, build_router
from repro.trader.trader import ImportRequest

HOT = "HotRentalService"
COLD = "ColdRentalService"


def service_type(name: str) -> ServiceType:
    return ServiceType(
        name,
        InterfaceType("I", [OperationType("Use", [], LONG)]),
        [("ChargePerDay", DOUBLE)],
    )


def build_world(total_offers: int):
    clock = SimClock()  # every stamp below is an explicit now=
    router = build_router(
        ("s0", "s1"), clock=lambda: clock.now, router_id="bench", offer_prefix="m"
    )
    router.add_type(service_type(HOT))
    router.add_type(service_type(COLD))
    for index in range(total_offers):
        router.export(
            HOT,
            ServiceRef.create(f"hot-{index}", Address(f"h{index % 50}", 1), 4711),
            {"ChargePerDay": 10.0 + (index % 97)},
            now=0.0,
            lease_seconds=3600.0,
        )
    for index in range(100):
        router.export(
            COLD,
            ServiceRef.create(f"cold-{index}", Address("c", 1), 4711),
            {"ChargePerDay": 50.0 + index},
            now=0.0,
            lease_seconds=3600.0,
        )
    return router


def probe(router, counters: Dict[str, int], baseline_best: str) -> None:
    """One live-traffic batch: the calls the dual-ownership window must
    keep serving mid-migration.  Failures count, they don't raise."""
    request = ImportRequest(HOT, "ChargePerDay < 11", "min ChargePerDay")
    try:
        best = router.import_(request, now=1.0)[0].offer_id
        assert best == baseline_best, f"stale mediation: {best}"
        router.import_(ImportRequest(COLD, "", "max ChargePerDay"), now=1.0)
        temp = router.export(
            HOT,
            ServiceRef.create("temp", Address("t", 1), 4711),
            {"ChargePerDay": 999.0},
            now=1.0,
            lease_seconds=3600.0,
        )
        assert router.renew(temp, now=1.0) is not None
        router.withdraw(temp)
        counters["calls"] += 5
    except Exception:  # noqa: BLE001 - any failure is the headline number
        counters["calls"] += 5
        counters["failed"] += 1


def run_sweep(smoke: bool = False) -> Dict[str, Any]:
    total_offers = 5_000 if smoke else 100_000
    gc.collect()
    router = build_world(total_offers)
    donor = router.effective_owner(HOT)
    target = "s1" if donor == "s0" else "s0"
    baseline_best = router.import_(
        ImportRequest(HOT, "ChargePerDay < 11", "min ChargePerDay"), now=1.0
    )[0].offer_id
    before_ids = sorted(offer.offer_id for offer in router.offers.all())

    coordinator = MigrationCoordinator(router, chunk_size=2048)
    counters = {"calls": 0, "failed": 0}
    state = coordinator.begin(HOT, target)
    step_times: List[Dict[str, Any]] = []
    copy_started = time.perf_counter()
    while not state.finished:
        step_start = time.perf_counter()
        coordinator.step(state, now=1.0)
        step_times.append(
            {"phase": state.phase, "seconds": time.perf_counter() - step_start}
        )
        probe(router, counters, baseline_best)
    migration_elapsed = time.perf_counter() - copy_started

    after_ids = sorted(offer.offer_id for offer in router.offers.all())
    assert after_ids == before_ids, "migration lost or duplicated offers"
    assert state.offers_copied == total_offers, state.offers_copied
    assert router.effective_owner(HOT) == target
    donor_residual = [
        offer
        for offer in router.handle(donor).primary.list_offers()
        if offer.service_type == HOT
    ]
    assert donor_residual == [], "donor still holds migrated offers"

    # The cutover pause is the one step that runs FLIP: seal, final tail
    # replay, pin repoint.  Every other step is incremental copy.
    flip_steps = [row for row in step_times if row["phase"] == "DRAIN"]
    cutover_pause_s = max(row["seconds"] for row in flip_steps)
    return {
        "benchmark": "bench_resharding",
        "smoke": smoke,
        "offers_migrated": state.offers_copied,
        "deltas_replayed": state.deltas_replayed,
        "steps": len(step_times),
        "migration_s": round(migration_elapsed, 3),
        "copy_offers_per_s": round(total_offers / migration_elapsed, 1),
        "cutover_pause_ms": round(cutover_pause_s * 1000.0, 3),
        "live_calls": counters["calls"],
        "failed_calls": counters["failed"],
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="reduced CI corpus")
    parser.add_argument("--out", default="BENCH_resharding.json")
    args = parser.parse_args()
    report = run_sweep(smoke=args.smoke)
    print(
        f"migrated {report['offers_migrated']} offers in {report['migration_s']}s "
        f"({report['copy_offers_per_s']}/s) over {report['steps']} steps"
    )
    print(
        f"live traffic: {report['live_calls']} calls, "
        f"{report['failed_calls']} failed; "
        f"cutover pause {report['cutover_pause_ms']}ms"
    )
    # The asserted ISSUE-10 claims; loud failure keeps CI honest.
    assert report["failed_calls"] == 0, report
    assert report["cutover_pause_ms"] < 100.0, report
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2)
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
