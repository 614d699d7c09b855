"""The layer-latency report: Fig. 6's cost breakdown from live traces.

Grown out of ``bench_fig6_full_stack.py``'s span-based cost accounting:
instead of eyeballing one trace, this module drives repeated traced
import → bind → invoke cascades across simulated stacks — one per
(latency model, fleet size) cell — flushes every finished chain through
a :class:`~repro.telemetry.exporters.RingExporter`, and aggregates the
per-layer elapsed times into p50/p95/max tables.  A companion
``recovery`` table runs a crash-and-recover cell per latency model and
reports the failure-recovery layer's footprint: failover attempts,
breaker opens, and lease expirations.

The tables render through the existing :mod:`repro.uims` backends (the
same widget model that renders generated service forms), so the report
is available as text and as a self-contained HTML page::

    python -m repro telemetry-report --out report.html --json BENCH_telemetry_report.json

Virtual seconds throughout: the simulated network advances a virtual
clock, so numbers are deterministic and describe the *modelled* network,
not host scheduling noise.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.context import CallContext
from repro.core import GenericClient, make_tradable
from repro.core.integration import export_properties
from repro.core.rebind import RebindingClient
from repro.errors import CosmError
from repro.net import (
    FixedLatency,
    JitteredLatency,
    LanWanLatency,
    LatencyModel,
    SimNetwork,
)
from repro.rpc.client import RpcClient
from repro.rpc.resilience import BackoffPolicy, BreakerPolicy, ResilientCaller
from repro.rpc.server import RpcServer
from repro.rpc.transport import SimTransport
from repro.services.car_rental import start_car_rental
from repro.telemetry.exporters import RingExporter, TraceChain
from repro.telemetry.hub import use_exporter
from repro.telemetry.metrics import METRICS
from repro.trader.service_types import service_type_from_sid
from repro.trader.trader import (
    ImportRequest,
    LocalTrader,
    TraderClient,
    TraderService,
)
from repro.uims.html import render_page_html
from repro.uims.render import render
from repro.uims.widgets import Label, Table, Widget

# The latency models compared side by side.  ``lan-wan`` names hosts so
# the user sits on one site and the services on another — every
# client-side RPC crosses the WAN while server-side traffic stays local.
LATENCY_MODELS: Dict[str, Callable[[], LatencyModel]] = {
    "lan": lambda: FixedLatency(0.0005),
    "wan": lambda: FixedLatency(0.02),
    "jitter": lambda: JitteredLatency(base=0.002, jitter=0.004),
    "lan-wan": lambda: LanWanLatency(lan=0.0005, wan=0.02),
}

DEFAULT_MODELS = ("lan", "wan", "lan-wan")
DEFAULT_FLEETS = (4, 32)
DEFAULT_REPEATS = 12

SELECTION = {"CarModel": "AUDI", "BookingDate": "1994-06-21", "Days": 2}


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile of ``values`` (0 <= q <= 1)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


def aggregate_layers(chains: Sequence[TraceChain]) -> Dict[str, Dict[str, Any]]:
    """Per-layer latency summary over every span in ``chains``."""
    samples: Dict[str, List[float]] = {}
    for chain in chains:
        for span in chain.spans:
            samples.setdefault(span.layer, []).append(span.elapsed)
    return {
        layer: {
            "count": len(values),
            "p50": percentile(values, 0.50),
            "p95": percentile(values, 0.95),
            "max": max(values),
        }
        for layer, values in sorted(samples.items())
    }


def run_cell(
    model: str,
    fleet: int,
    repeats: int,
    seed: int = 1994,
) -> Dict[str, Any]:
    """Measure one (latency model, fleet size) cell.

    Builds a fresh simulated stack — rental service, hub trader with a
    federated peer trader, generic client — exports ``fleet`` offers
    split across the two traders, and runs ``repeats`` traced
    import → bind → invoke → unbind cascades.  Every finished chain
    (client side via :meth:`~repro.context.CallContext.finish`, server
    side at each dispatch boundary) lands in a ring exporter; the cell
    result aggregates them per layer.
    """
    net = SimNetwork(latency=LATENCY_MODELS[model](), seed=seed)

    def server(host: str) -> RpcServer:
        return RpcServer(SimTransport(net, host))

    def client(host: str) -> RpcClient:
        return RpcClient(SimTransport(net, host), timeout=5.0, retries=1)

    rental = start_car_rental(server("rental.site-b"))
    rental.implementation.fleet = {"AUDI": 10**9, "FIAT-Uno": 10**9, "VW-Golf": 10**9}
    hub = TraderService(server("trader.site-b"), client=client("trader.site-b"))
    peer = TraderService(server("peer.site-b"), client=client("peer.site-b"))
    hub.link_to(peer.address, name="peer")

    user = client("user.site-a")
    importer = TraderClient(user, hub.address)
    peer_stub = TraderClient(client("user.site-a"), peer.address)
    # First export derives and registers the service type at the hub …
    make_tradable(rental.sid, rental.ref, importer)
    # … the peer needs the same type before it can hold offers.
    service_type = service_type_from_sid(rental.sid)
    peer_stub.add_type(service_type)
    properties = export_properties(rental.sid)
    for index in range(max(0, fleet - 1)):
        target = importer if index % 2 == 0 else peer_stub
        target.export(service_type.name, rental.ref, dict(properties))

    generic = GenericClient(user)
    ring = RingExporter(capacity=max(64, repeats * 16))
    request = ImportRequest(service_type.name, hop_limit=2)
    with use_exporter(ring):
        for _ in range(repeats):
            ctx = CallContext.with_timeout(60.0, user.transport.now())
            try:
                offers = importer.import_(request, ctx=ctx)
                binding = generic.bind(offers[0].service_ref(), ctx=ctx)
                binding.invoke("SelectCar", {"selection": SELECTION}, ctx=ctx)
                binding.unbind()
            finally:
                ctx.finish()
    chains = ring.chains()
    return {
        "model": model,
        "fleet": fleet,
        "repeats": repeats,
        "chains": len(chains),
        "traces": len({chain.trace_id for chain in chains}),
        "layers": aggregate_layers(chains),
    }


# The recovery-layer series surfaced in the report: the same counters
# the chaos suite and bench_failover assert on.
RECOVERY_COUNTERS = {
    "failovers": "rpc.failover.attempts",
    "breaker_opens": "rpc.breaker.opens",
    "lease_expirations": "trader.offers.expired",
}


def run_recovery_cell(model: str, repeats: int, seed: int = 1994) -> Dict[str, Any]:
    """Crash-and-recover under ``model``: the recovery layer's footprint.

    Two leased exporters serve a :class:`RebindingClient`; midway the
    trader's ranked-first exporter crashes.  Failover rides out the
    crash window, the dead lease lapses (lazy exclusion, then an
    explicit sweep), and the re-import lands on the survivor.  The cell
    reports how far the recovery counters moved, so the layer shows up
    in the same dashboard as the latency grid.
    """
    net = SimNetwork(latency=LATENCY_MODELS[model](), seed=seed)
    clock = net.clock
    mediator = TraderService(
        RpcServer(SimTransport(net, "trader.site-b")),
        trader=LocalTrader("td", clock=lambda: clock.now),
        now=lambda: clock.now,
    )
    rpc = RpcClient(SimTransport(net, "user.site-a"), timeout=0.5, retries=1)
    rebinder = RebindingClient(
        rpc,
        TraderClient(rpc, mediator.address),
        resilient=ResilientCaller(
            rpc,
            backoff=BackoffPolicy(base=0.01, cap=0.1),
            breaker=BreakerPolicy(failure_threshold=2, probe_interval=0.5),
            seed=seed,
        ),
        generic=GenericClient(rpc, enforce_fsm=False),
    )

    def spawn(host: str) -> None:
        runtime = start_car_rental(
            RpcServer(SimTransport(net, host)), enforce_fsm=False
        )
        make_tradable(
            runtime.sid, runtime.ref, mediator.trader,
            now=clock.now, lease_seconds=2.0,
        )

    spawn("w1.site-b")
    spawn("w2.site-b")
    # The trader's ranking decides who takes the traffic — crash that
    # one; every other exporter stays live (its lease keeps renewing).
    ranked = mediator.trader.import_(ImportRequest("CarRentalService"), now=clock.now)
    primary = ranked[0].ref["host"]
    survivors = [o.offer_id for o in ranked if o.ref["host"] != primary]

    before = {
        name: METRICS.counter_total(series)
        for name, series in RECOVERY_COUNTERS.items()
    }
    calls = max(6, repeats)
    succeeded = 0
    for index in range(calls):
        if index == calls // 2:
            net.faults.crash(primary)
        for offer_id in survivors:  # stand-in for the exporter heartbeat
            mediator.trader.renew(offer_id, now=clock.now)
        ctx = CallContext(deadline=clock.now + 2.0)
        try:
            rebinder.invoke(
                "CarRentalService", "SelectCar",
                {"selection": SELECTION}, ctx=ctx,
            )
            succeeded += 1
        except CosmError:
            pass
        finally:
            ctx.finish()
    # Idle past the lease horizon: the survivors keep heartbeating, the
    # crashed exporter cannot — its lease is the one the sweep reclaims.
    clock.run_for(2.5)
    for offer_id in survivors:
        mediator.trader.renew(offer_id, now=clock.now)
    mediator.trader.expire_offers(clock.now)
    moved = {
        name: int(METRICS.counter_total(series) - before[name])
        for name, series in RECOVERY_COUNTERS.items()
    }
    return {
        "model": model,
        "calls": calls,
        "succeeded": succeeded,
        "rebinds": rebinder.rebinds,
        "reimports": rebinder.imports,
        **moved,
    }


#: Program number of the wire-cell echo service.
WIRE_PROGRAM = 662200


def run_wire_cell(model: str, repeats: int, seed: int = 1994) -> Dict[str, Any]:
    """The wire fast lane's footprint: call batching and compiled codecs.

    An :class:`~repro.rpc.client.RpcClient` fires a burst of identical
    small calls at an echo server over the simulated network with
    ``call_many``: the burst leaves as BATCH envelopes, the server
    admits the whole batch before executing, and its replies coalesce
    into shared writes.  The echo procedure's signature is registered
    with the compiled codec, so the same burst also exercises the
    compiled encode/decode lane; one deliberately dynamic call shows the
    tagged fallback staying live beside it.  The cell reports writes
    saved in both directions, codec hit/fallback counters, and the
    static-vs-tagged body size of the fixture arguments.
    """
    from repro.rpc.codec import CODECS
    from repro.rpc.server import RpcProgram
    from repro.rpc.xdr import encode_value
    from repro.sidl import layout

    net = SimNetwork(latency=LATENCY_MODELS[model](), seed=seed)
    server = RpcServer(SimTransport(net, "wire.site-b"))
    program = RpcProgram(WIRE_PROGRAM, 1, "report-wire")
    program.register(1, lambda args: args, "echo")
    program.register(2, lambda args: args, "echo_dynamic")
    server.serve(program)
    # Idempotent across cells: re-registering the identical spec is a no-op.
    echo_spec = layout.struct(key=layout.string(), value=layout.i64())
    CODECS.register(WIRE_PROGRAM, 1, 1, args=echo_spec, result=echo_spec)

    payload = {"key": "fig6", "value": 21}
    calls = max(8, repeats)
    hits_before = METRICS.counter_total("rpc.codec.compiled_hits")
    fallback_before = METRICS.counter_total("rpc.codec.fallback")
    replies_before = METRICS.histogram("rpc.server.batch_replies") or {
        "count": 0, "sum": 0.0,
    }

    client = RpcClient(SimTransport(net, "wire.site-a"), timeout=5.0, retries=1)
    outcomes = client.call_many(
        server.address, [(WIRE_PROGRAM, 1, 1, dict(payload))] * calls
    )
    succeeded = sum(
        1 for outcome in outcomes if not isinstance(outcome, Exception)
    )
    # One dynamic-marshalling call beside the fast lane: an unregistered
    # signature rides the tagged codec through the same client.
    client.call(
        server.address, WIRE_PROGRAM, 1, 2, {"nested": {"mixed": [1, 2.5, "x"]}}
    )

    replies_after = METRICS.histogram("rpc.server.batch_replies") or {
        "count": 0, "sum": 0.0,
    }
    reply_writes = replies_after["count"] - replies_before["count"]
    replies_sent = replies_after["sum"] - replies_before["sum"]
    return {
        "model": model,
        "calls": calls + 1,
        "succeeded": succeeded,
        "call_writes": client.batches_sent,
        "batch_mean": calls / client.batches_sent if client.batches_sent else 0.0,
        "replies_per_write": (
            replies_sent / reply_writes if reply_writes else 1.0
        ),
        "compiled_hits": int(
            METRICS.counter_total("rpc.codec.compiled_hits") - hits_before
        ),
        "codec_fallbacks": int(
            METRICS.counter_total("rpc.codec.fallback") - fallback_before
        ),
        "args_bytes_compiled": len(CODECS.encode_args(WIRE_PROGRAM, 1, 1, payload)),
        "args_bytes_tagged": len(encode_value(payload)),
    }


def build_report(
    models: Sequence[str] = DEFAULT_MODELS,
    fleets: Sequence[int] = DEFAULT_FLEETS,
    repeats: int = DEFAULT_REPEATS,
) -> Dict[str, Any]:
    """The full grid: one :func:`run_cell` per (model, fleet) pair."""
    cells = [
        run_cell(model, fleet, repeats)
        for model in models
        for fleet in fleets
    ]
    return {
        "benchmark": "telemetry_layer_latency",
        "unit": "virtual seconds",
        "models": list(models),
        "fleets": [int(fleet) for fleet in fleets],
        "repeats": repeats,
        "cells": cells,
        "recovery": [run_recovery_cell(model, repeats) for model in models],
        "wire": [run_wire_cell(model, repeats) for model in models],
    }


def report_widgets(report: Dict[str, Any]) -> List[Widget]:
    """Render the report grid as UIMS widgets (one table per model)."""
    widgets: List[Widget] = [
        Label(
            "summary",
            "Per-layer latency across {} traced cascades per cell "
            "(virtual seconds; import -> bind -> invoke on a simulated "
            "COSM stack).".format(report["repeats"]),
        )
    ]
    for model in report["models"]:
        table = Table(
            f"latency model: {model}",
            ["fleet", "layer", "spans", "p50", "p95", "max"],
        )
        for cell in report["cells"]:
            if cell["model"] != model:
                continue
            for layer, stats in cell["layers"].items():
                table.add_row(
                    cell["fleet"],
                    layer,
                    stats["count"],
                    stats["p50"],
                    stats["p95"],
                    stats["max"],
                )
        widgets.append(table)
    recovery = Table(
        "recovery (crash-and-recover, per model)",
        [
            "model", "calls", "ok", "failovers", "breaker opens",
            "lease expirations", "re-imports", "rebinds",
        ],
    )
    for cell in report.get("recovery", []):
        recovery.add_row(
            cell["model"],
            cell["calls"],
            cell["succeeded"],
            cell["failovers"],
            cell["breaker_opens"],
            cell["lease_expirations"],
            cell["reimports"],
            cell["rebinds"],
        )
    if report.get("recovery"):
        widgets.append(recovery)
    wire_table = Table(
        "wire path (call batching + compiled codecs, per model)",
        [
            "model", "calls", "ok", "call writes", "mean batch",
            "replies/write", "compiled hits", "fallbacks",
            "args bytes (compiled)", "args bytes (tagged)",
        ],
    )
    for cell in report.get("wire", []):
        wire_table.add_row(
            cell["model"],
            cell["calls"],
            cell["succeeded"],
            cell["call_writes"],
            round(cell["batch_mean"], 2),
            round(cell["replies_per_write"], 2),
            cell["compiled_hits"],
            cell["codec_fallbacks"],
            cell["args_bytes_compiled"],
            cell["args_bytes_tagged"],
        )
    if report.get("wire"):
        widgets.append(wire_table)
    return widgets


def render_report_html(report: Dict[str, Any]) -> str:
    return render_page_html(
        "COSM layer-latency report",
        report_widgets(report),
        state=f"models: {', '.join(report['models'])}  "
        f"fleets: {report['fleets']}",
    )


def render_report_text(report: Dict[str, Any]) -> str:
    return "\n\n".join(render(widget) for widget in report_widgets(report))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro telemetry-report",
        description="Per-layer latency report from traced COSM cascades.",
    )
    parser.add_argument(
        "--models",
        default=",".join(DEFAULT_MODELS),
        help="comma-separated latency models (%s)" % ", ".join(LATENCY_MODELS),
    )
    parser.add_argument(
        "--fleets",
        default=",".join(str(fleet) for fleet in DEFAULT_FLEETS),
        help="comma-separated offer-pool sizes",
    )
    parser.add_argument("--repeats", type=int, default=DEFAULT_REPEATS)
    parser.add_argument("--out", default=None, help="write the HTML report here")
    parser.add_argument("--json", default=None, help="write the raw grid here")
    parser.add_argument(
        "--smoke", action="store_true", help="small grid for CI (2 models, 1 fleet)"
    )
    args = parser.parse_args(argv)

    models: Tuple[str, ...] = tuple(
        name.strip() for name in args.models.split(",") if name.strip()
    )
    fleets = tuple(int(item) for item in args.fleets.split(",") if item.strip())
    repeats = args.repeats
    if args.smoke:
        models, fleets, repeats = models[:2], fleets[:1], min(repeats, 5)
    unknown = [name for name in models if name not in LATENCY_MODELS]
    if unknown:
        parser.error(f"unknown latency models: {unknown}")

    report = build_report(models, fleets, repeats)
    print(render_report_text(report))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(render_report_html(report))
        print(f"\nhtml report -> {args.out}", file=sys.stderr)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
        print(f"json grid   -> {args.json}", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    raise SystemExit(main())
