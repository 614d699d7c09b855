"""Sharded trader at 1M offers: 1 vs 4 shards vs the seed single store.

The ISSUE-9 perf claim: a 4-shard router whose shards keep sorted range
indexes serves selective range imports (``ChargePerDay < 12`` with a
``min`` preference) at **≥ 3× the seed's import throughput**, and its
range-query p95 beats the seed's by the same factor.  The seed arm is
the pre-sharding trader — one flat ``OfferStore``, no range index — so
every query pays a linear scan of the queried type's cohort.

Everything runs on one core, so the win is structural, not parallelism:
the range index replaces the linear scan, and partitioning keeps each
shard's store (and its indexes) to a fraction of the corpus.  The
``router1`` arm isolates the index effect from the partitioning effect.

Every arm answers the same query list and must return byte-identical
offer ids (placement-independent per-type counters make sharded ids
equal to single-store ids); metric deltas confirm which matching path
each arm actually exercised.

Run standalone to emit ``BENCH_sharding.json`` (the CI smoke step uses
``--smoke`` for a reduced corpus)::

    PYTHONPATH=src python benchmarks/bench_trader_sharding.py [--smoke]
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import time
from typing import Any, Dict, List

from repro.naming.refs import ServiceRef
from repro.net.endpoints import Address
from repro.sidl.types import DOUBLE, InterfaceType, LONG, OperationType, STRING
from repro.telemetry.metrics import METRICS
from repro.trader.service_types import ServiceType
from repro.trader.sharding import build_local_router
from repro.trader.trader import ImportRequest, LocalTrader

TYPE_NAMES = [f"RentalService{index}" for index in range(8)]
SELECTIVE = "ChargePerDay < 12"  # 2 of the 97 charge values: ~2% selectivity
PREFERENCE = "min ChargePerDay"


def service_type(name: str) -> ServiceType:
    return ServiceType(
        name,
        InterfaceType("I", [OperationType("Use", [], LONG)]),
        [("ChargePerDay", DOUBLE), ("City", STRING)],
    )


def build_arm(arm: str):
    """Every arm shares the offer prefix ``m`` so the sharded arms mint
    exactly the ids the single store would (the parity check relies on
    it); the ``offers.*`` counters are keyed by that prefix, and the
    arms run one at a time, so per-arm deltas stay isolated."""
    if arm == "seed":
        trader = LocalTrader("seed", offer_prefix="m", range_index=False)
    else:
        shard_count = int(arm.removeprefix("router"))
        shard_ids = [f"s{index}" for index in range(shard_count)]
        trader = build_local_router(
            shard_ids, router_id=arm, offer_prefix="m"
        )
    for name in TYPE_NAMES:
        trader.add_type(service_type(name))
    return trader


def populate(trader, total: int) -> float:
    """Export ``total`` offers round-robin across the types; returns
    exports/sec through the arm's own write surface."""
    started = time.perf_counter()
    for index in range(total):
        trader.export(
            TYPE_NAMES[index % len(TYPE_NAMES)],
            ServiceRef.create(f"p-{index}", Address(f"h{index % 50}", 1), 4711),
            {"ChargePerDay": 10.0 + (index % 97), "City": f"C{index % 10}"},
        )
    return total / (time.perf_counter() - started)


def query_list(queries: int) -> List[ImportRequest]:
    return [
        ImportRequest(
            TYPE_NAMES[index % len(TYPE_NAMES)],
            SELECTIVE,
            PREFERENCE,
            max_matches=10,
        )
        for index in range(queries)
    ]


def _store_counters(arm: str) -> Dict[str, float]:
    counters = {
        name: METRICS.counter(f"offers.{name}", ("m",))
        for name in ("index_hits", "range_hits", "fallback_scans")
    }
    if arm == "seed":
        store_ids = ["seed"]
    else:
        count = int(arm.removeprefix("router"))
        store_ids = [f"{arm}/s{index}" for index in range(count)]
    counters["ordered_scans"] = sum(
        METRICS.counter("trader.ordered_scans", (store_id,)) for store_id in store_ids
    )
    return counters


def measure_arm(arm: str, total_offers: int, queries: int) -> Dict[str, Any]:
    # Drop the previous arm's million-offer heap first: leftover cyclic
    # garbage would otherwise charge this arm's tail latencies with GC
    # pauses over a corpus it never built.
    gc.collect()
    trader = build_arm(arm)
    export_rate = populate(trader, total_offers)
    requests = query_list(queries)
    before = _store_counters(arm)
    latencies: List[float] = []
    answers: List[List[str]] = []
    started = time.perf_counter()
    for request in requests:
        query_start = time.perf_counter()
        offers = trader.import_(request)
        latencies.append(time.perf_counter() - query_start)
        answers.append([offer.offer_id for offer in offers])
    elapsed = time.perf_counter() - started
    after = _store_counters(arm)
    latencies.sort()
    p95 = latencies[max(0, int(len(latencies) * 0.95) - 1)]
    return {
        "arm": arm,
        "offers": total_offers,
        "queries": queries,
        "export_per_s": round(export_rate, 1),
        "import_per_s": round(queries / elapsed, 2),
        "query_p50_s": round(statistics.median(latencies), 6),
        "query_p95_s": round(p95, 6),
        "range_hits": after["range_hits"] - before["range_hits"],
        "ordered_scans": after["ordered_scans"] - before["ordered_scans"],
        "fallback_scans": after["fallback_scans"] - before["fallback_scans"],
        "answers": answers,
    }


def run_sweep(smoke: bool = False) -> Dict[str, Any]:
    total_offers, queries = (40_000, 24) if smoke else (1_000_000, 48)
    rows = [measure_arm(arm, total_offers, queries) for arm in ("seed", "router1", "router4")]
    # Parity first: every arm answered every query with the same ids, in
    # the same preference order — the speedup is not a different answer.
    baseline = rows[0].pop("answers")
    assert all(ids for ids in baseline), "selective query matched nothing"
    for row in rows[1:]:
        assert row.pop("answers") == baseline, f"{row['arm']} diverged from seed"
    seed, router4 = rows[0], rows[2]
    return {
        "benchmark": "bench_trader_sharding",
        "smoke": smoke,
        "constraint": SELECTIVE,
        "preference": PREFERENCE,
        "service_types": len(TYPE_NAMES),
        "arms": rows,
        "throughput_gain_4shard": round(
            router4["import_per_s"] / seed["import_per_s"], 2
        ),
        "p95_gain_4shard": round(seed["query_p95_s"] / router4["query_p95_s"], 2),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="reduced CI corpus")
    parser.add_argument("--out", default="BENCH_sharding.json")
    args = parser.parse_args()
    report = run_sweep(smoke=args.smoke)
    for row in report["arms"]:
        print(
            f"{row['arm']:8s} offers={row['offers']} "
            f"export={row['export_per_s']}/s import={row['import_per_s']}/s "
            f"p50={row['query_p50_s']}s p95={row['query_p95_s']}s "
            f"range_hits={row['range_hits']} ordered={row['ordered_scans']} "
            f"fallback={row['fallback_scans']}"
        )
    print(
        f"4-shard vs seed: throughput {report['throughput_gain_4shard']}x, "
        f"p95 {report['p95_gain_4shard']}x"
    )
    # The asserted ISSUE-9 claims; loud failure keeps CI honest.
    seed, router1, router4 = report["arms"]
    assert report["throughput_gain_4shard"] >= 3.0, report["throughput_gain_4shard"]
    assert report["p95_gain_4shard"] >= 3.0, report["p95_gain_4shard"]
    # Counter deltas prove the paths: the seed linear-scans every query;
    # the sharded arms serve every query off the sorted indexes (the
    # ordered min/max fast path or the range pre-filter), never the
    # linear fallback.
    assert seed["fallback_scans"] > 0 and seed["range_hits"] == 0, seed
    assert seed["ordered_scans"] == 0, seed
    for row in (router1, router4):
        assert row["range_hits"] + row["ordered_scans"] > 0, row
        assert row["fallback_scans"] == 0, row
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2)
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
