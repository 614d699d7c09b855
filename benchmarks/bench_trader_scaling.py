"""Trader scaling sweep: offers × links × constraint complexity.

Two perf claims are tracked per PR (ISSUE 2, ROADMAP "Federation-wide
budget splitting"):

* **Fan-out** — with 4+ remote federated links to slow peers over real
  TCP, a sweep keeping every forward in flight completes an import in
  ≈ max(per-link latency) where a window of one pays the sum.
* **Local matching** — importing against 10k offers with a cached,
  index-pre-filtered constraint beats the seed's fresh-parse linear scan.

Run standalone to emit ``BENCH_trader.json`` (the CI smoke step uses
``--smoke`` for a reduced configuration)::

    PYTHONPATH=src python benchmarks/bench_trader_scaling.py [--smoke]

or under pytest-benchmark for interactive numbers::

    PYTHONPATH=src python -m pytest benchmarks/bench_trader_scaling.py
"""

from __future__ import annotations

import argparse
import json
import statistics
import time
from typing import Any, Dict, List, Tuple

from repro.naming.refs import ServiceRef
from repro.net.endpoints import Address
from repro.rpc.client import RpcClient
from repro.rpc.server import RpcServer
from repro.rpc.transport import TcpTransport
from repro.sidl.types import DOUBLE, InterfaceType, LONG, OperationType, STRING
from repro.telemetry.metrics import METRICS
from repro.trader.constraints import Constraint, _Parser, _tokenize
from repro.trader.service_types import ServiceType
from repro.trader.trader import ImportRequest, LocalTrader, TraderService


def rental_type() -> ServiceType:
    return ServiceType(
        "CarRentalService",
        InterfaceType("I", [OperationType("SelectCar", [], LONG)]),
        [("ChargePerDay", DOUBLE), ("City", STRING), ("Model", STRING)],
    )


def populate(trader: LocalTrader, count: int) -> None:
    for index in range(count):
        trader.export(
            "CarRentalService",
            ServiceRef.create(
                f"{trader.trader_id}-{index}", Address(trader.trader_id, 1), 4711
            ),
            {
                "ChargePerDay": 10.0 + (index % 97),
                # coprime cycles: every City × Model pair actually occurs
                "City": f"C{index % 10}",
                "Model": f"M{index % 7}",
            },
        )


# -- federation fan-out ------------------------------------------------------


def _slowed(import_wire, delay: float):
    def slow_import(request_wire, now=0.0, ctx=None):
        time.sleep(delay)
        return import_wire(request_wire, now, ctx)

    return slow_import


def build_hub(
    latencies: List[float], offers_per_peer: int, workers: int
) -> Tuple[LocalTrader, List[TcpTransport]]:
    """A hub trader federated with slow peers over real TCP.

    Each peer's IMPORT handler sleeps its link latency before answering.
    The hub forwards over remote links, keeping up to ``workers`` of them
    in flight.  Returns the hub and every transport, for closing.
    """
    transports = [TcpTransport(), TcpTransport()]
    hub = TraderService(
        RpcServer(transports[0]),
        trader=LocalTrader("hub", fanout_workers=workers),
        client=RpcClient(transports[1], timeout=5.0, retries=0),
    )
    hub.trader.add_type(rental_type())
    for index, delay in enumerate(latencies):
        peer = LocalTrader(f"peer{index}")
        peer.add_type(rental_type())
        populate(peer, offers_per_peer)
        peer.import_wire = _slowed(peer.import_wire, delay)
        transports.append(TcpTransport())
        peer_service = TraderService(RpcServer(transports[-1]), trader=peer)
        hub.link_to(peer_service.address, f"to-{index}")
    return hub.trader, transports


def measure_fanout(latencies: List[float], offers_per_peer: int, repeats: int) -> Dict[str, Any]:
    request = ImportRequest("CarRentalService", hop_limit=1)
    expected = len(latencies) * offers_per_peer
    timings: Dict[str, List[float]] = {"serial": [], "parallel": []}
    for mode, workers in (("serial", 1), ("parallel", 8)):
        hub, transports = build_hub(latencies, offers_per_peer, workers)
        try:
            for _ in range(repeats):
                started = time.perf_counter()
                offers = hub.import_(request)
                timings[mode].append(time.perf_counter() - started)
                assert len(offers) == expected, (len(offers), expected)
        finally:
            for transport in transports:
                transport.close()
    serial = statistics.median(timings["serial"])
    parallel = statistics.median(timings["parallel"])
    return {
        "links": len(latencies),
        "per_link_latency_s": latencies,
        "latency_sum_s": round(sum(latencies), 6),
        "latency_max_s": round(max(latencies), 6),
        "offers_per_peer": offers_per_peer,
        "serial_import_s": round(serial, 6),
        "parallel_import_s": round(parallel, 6),
        "speedup": round(serial / parallel, 2) if parallel else None,
    }


# -- local matching ----------------------------------------------------------

CONSTRAINTS = {
    # conjunct count counts the indexable `Prop == literal` pins
    0: "ChargePerDay < 30",
    1: "City == 'C7' and ChargePerDay < 30",
    2: "City == 'C7' and Model == 'M3' and ChargePerDay < 30",
}


def fresh_parse(text: str) -> Constraint:
    """The seed's per-import compile: a brand-new parse, no cache."""
    parser = _Parser(_tokenize(text))
    root = parser.parse_or()
    parser.expect("\0")
    return Constraint(text, root)


def seed_scan(trader: LocalTrader, text: str) -> List[Any]:
    """The seed's import hot path: a fresh parse per query, then a linear
    scan of every typed offer with the full match pipeline (expiry check,
    dynamic resolution, constraint, dedup, preference)."""
    from repro.trader.dynamic import resolve_properties
    from repro.trader.policies import parse_preference

    constraint = fresh_parse(text)
    preference = parse_preference("")
    type_names = trader.types.matching_types("CarRentalService")
    matched = []
    for offer in trader.offers.of_types(type_names):
        if offer.expired(0.0):
            continue
        resolved = resolve_properties(offer.properties, trader.dynamic_evaluator)
        if constraint.evaluate(resolved):
            matched.append(offer)
    unique = {}
    for offer in matched:
        unique.setdefault(offer.offer_id, offer)
    return preference.apply(list(unique.values()), trader.rng)


def measure_local(offer_count: int, conjuncts: int, repeats: int) -> Dict[str, Any]:
    trader = LocalTrader("local")
    trader.add_type(rental_type())
    populate(trader, offer_count)
    text = CONSTRAINTS[conjuncts]
    request = ImportRequest("CarRentalService", text)
    expected = {offer.offer_id for offer in seed_scan(trader, text)}

    def timed(fn) -> float:
        samples = []
        for _ in range(repeats):
            started = time.perf_counter()
            result = fn()
            samples.append(time.perf_counter() - started)
            assert {offer.offer_id for offer in result} == expected
        return statistics.median(samples)

    seed = timed(lambda: seed_scan(trader, text))
    # The offer store counts how each import was served: equality pins go
    # through the property index, pin-free constraints go through the
    # sorted index when they pin a range and fall back to the full type
    # scan otherwise.  Deltas confirm which path the row measured.
    hits_before = METRICS.counter("offers.index_hits", (trader.trader_id,))
    ranges_before = METRICS.counter("offers.range_hits", (trader.trader_id,))
    scans_before = METRICS.counter("offers.fallback_scans", (trader.trader_id,))
    indexed = timed(lambda: trader.import_(request))
    return {
        "offers": offer_count,
        "eq_conjuncts": conjuncts,
        "constraint": text,
        "matched": len(expected),
        "seed_linear_s": round(seed, 6),
        "indexed_s": round(indexed, 6),
        "speedup": round(seed / indexed, 2) if indexed else None,
        "index_hits": METRICS.counter("offers.index_hits", (trader.trader_id,))
        - hits_before,
        "range_hits": METRICS.counter("offers.range_hits", (trader.trader_id,))
        - ranges_before,
        "fallback_scans": METRICS.counter("offers.fallback_scans", (trader.trader_id,))
        - scans_before,
    }


# -- the sweep ---------------------------------------------------------------


def run_sweep(smoke: bool = False) -> Dict[str, Any]:
    if smoke:
        latency_models = [[0.005, 0.005, 0.005, 0.02]]
        offer_counts = [2000]
        fan_repeats, local_repeats = 3, 5
    else:
        latency_models = [
            [0.01, 0.01, 0.01, 0.04],
            [0.01] * 7 + [0.05],
        ]
        offer_counts = [1000, 10000]
        fan_repeats, local_repeats = 5, 9
    report: Dict[str, Any] = {
        "benchmark": "bench_trader_scaling",
        "smoke": smoke,
        "fanout": [measure_fanout(m, 25, fan_repeats) for m in latency_models],
        "local_matching": [
            measure_local(count, conjuncts, local_repeats)
            for count in offer_counts
            for conjuncts in sorted(CONSTRAINTS)
        ],
    }
    return report


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="reduced CI configuration")
    parser.add_argument("--out", default="BENCH_trader.json")
    args = parser.parse_args()
    report = run_sweep(smoke=args.smoke)
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2)
    for row in report["fanout"]:
        print(
            f"fanout links={row['links']} serial={row['serial_import_s']}s "
            f"parallel={row['parallel_import_s']}s "
            f"(sum={row['latency_sum_s']}s max={row['latency_max_s']}s, "
            f"speedup {row['speedup']}x)"
        )
    for row in report["local_matching"]:
        print(
            f"local offers={row['offers']} conjuncts={row['eq_conjuncts']} "
            f"seed={row['seed_linear_s']}s indexed={row['indexed_s']}s "
            f"(speedup {row['speedup']}x)"
        )
    # The perf claims this PR tracks; loud failure keeps CI honest.
    for row in report["fanout"]:
        assert row["parallel_import_s"] < row["serial_import_s"], row
        # ≈ max(per-link latency), far from the serial sum.
        assert row["parallel_import_s"] < row["latency_sum_s"], row
    big = [r for r in report["local_matching"] if r["eq_conjuncts"] > 0]
    assert any(r["speedup"] and r["speedup"] > 1.0 for r in big), big
    # Counter deltas must agree with the path each row claims to measure.
    for row in report["local_matching"]:
        if row["eq_conjuncts"] > 0:
            assert row["index_hits"] > 0 and row["fallback_scans"] == 0, row
        else:
            assert row["fallback_scans"] + row["range_hits"] > 0, row
            assert row["index_hits"] == 0, row
    print(f"wrote {args.out}")


# -- pytest-benchmark hooks (explicit runs only; not part of tier-1) ---------


def test_local_matching_indexed(benchmark):
    trader = LocalTrader("bench")
    trader.add_type(rental_type())
    populate(trader, 2000)
    request = ImportRequest("CarRentalService", CONSTRAINTS[2])
    offers = benchmark(lambda: trader.import_(request))
    assert offers


def test_local_matching_seed_scan(benchmark):
    trader = LocalTrader("bench")
    trader.add_type(rental_type())
    populate(trader, 2000)
    offers = benchmark(lambda: seed_scan(trader, CONSTRAINTS[2]))
    assert offers


def test_parallel_fanout_slow_peer(benchmark):
    hub, transports = build_hub(
        [0.005, 0.005, 0.005, 0.02], offers_per_peer=10, workers=8
    )
    request = ImportRequest("CarRentalService", hop_limit=1)
    try:
        offers = benchmark.pedantic(
            lambda: hub.import_(request), rounds=3, iterations=1
        )
    finally:
        for transport in transports:
            transport.close()
    assert len(offers) == 40


if __name__ == "__main__":
    main()
