"""Telemetry across the live stack: traced cascades, fault counters, report."""

import json

import pytest

from repro.context import CallContext
from repro.core import GenericClient, make_tradable
from repro.rpc.errors import RpcError
from repro.services.car_rental import CAR_RENTAL_SIDL, start_car_rental
from repro.sidl.builder import load_service_description
from repro.telemetry import report
from repro.telemetry.exporters import JsonlExporter, OtlpExporter
from repro.telemetry.hub import use_exporter
from repro.telemetry.metrics import METRICS
from repro.trader.service_types import service_type_from_sid
from repro.trader.trader import ImportRequest, TraderClient, TraderService
from tests.conftest import SELECTION


def test_traced_cascade_exports_one_connected_trace(
    net, make_server, make_client, rental, tmp_path
):
    """The Fig. 6 cascade (import -> bind -> invoke) under one context
    flushes through both file exporters as a single connected trace
    covering the trader, binder, generic, rpc, and server layers."""
    trader_service = TraderService(make_server("hub-trader"), client=make_client())
    client = make_client()
    trader = TraderClient(client, trader_service.address)
    make_tradable(rental.sid, rental.ref, trader)
    generic = GenericClient(client)

    path = tmp_path / "traces.jsonl"
    jsonl = JsonlExporter(str(path))
    otlp = OtlpExporter()
    with use_exporter(jsonl), use_exporter(otlp):
        ctx = CallContext.with_timeout(30.0, client.transport.now())
        offers = trader.import_(ImportRequest("CarRentalService"), ctx=ctx)
        assert offers
        binding = generic.bind(offers[0].service_ref(), ctx=ctx)
        result = binding.invoke("SelectCar", {"selection": SELECTION}, ctx=ctx)
        assert result.value["available"] is True
        ctx.finish()
    jsonl.close()

    chains = [json.loads(line) for line in path.read_text().splitlines()]
    assert chains
    # one trace: the wire context carries the id, so server-side chains
    # flushed at dispatch boundaries share it with the client chain
    assert {chain["trace_id"] for chain in chains} == {ctx.trace_id}
    layers = {span["layer"] for chain in chains for span in chain["spans"]}
    assert {"trader", "binder", "generic", "rpc", "server"} <= layers
    # the client-side chain is internally connected by parent links
    client_chain = max(chains, key=lambda chain: len(chain["spans"]))
    child_spans = [span for span in client_chain["spans"] if span["parent_id"]]
    assert child_spans, "no span in the cascade chain has a parent link"
    span_ids = {span["span_id"] for span in client_chain["spans"]}
    assert all(span["parent_id"] in span_ids for span in child_spans)

    # the OTLP exporter saw the same chains, as JSON-clean batches
    assert len(otlp.batches) == len(chains)
    batch = max(
        otlp.batches,
        key=lambda b: len(b["resourceSpans"][0]["scopeSpans"][0]["spans"]),
    )
    assert json.loads(json.dumps(batch)) == batch
    otlp_spans = batch["resourceSpans"][0]["scopeSpans"][0]["spans"]
    assert any("parentSpanId" in span for span in otlp_spans)


def test_expired_call_is_rejected_and_counted_server_side(net, make_server, make_client):
    """A call arriving after its wire deadline is rejected before the
    handler runs, counted under the (program, proc) label."""
    from repro.rpc.message import RpcCall
    from repro.rpc.server import RpcProgram

    server = make_server("deadline-host")
    program = RpcProgram(4242, 1, "deadline-prog")
    program.register(1, lambda args: "never runs")
    server.serve(program)
    client = make_client()
    call = RpcCall(
        xid=99, prog=4242, vers=1, proc=1, body=b"",
        deadline=net.clock.now - 1.0, trace_id="t-expired",
    )
    before = METRICS.counter("rpc.server.deadline_rejected", ("4242", "1"))
    server.handle_call(client.transport.local_address, call)
    assert server.deadlines_rejected == 1
    assert METRICS.counter("rpc.server.deadline_rejected", ("4242", "1")) == before + 1


def test_deadline_spent_in_flight_bumps_client_counter(net, make_server, make_client, rental):
    """When the budget runs out mid-call the client gives up and counts a
    deadline rejection under its own (program, proc) label."""
    client = make_client(retries=0)
    before = METRICS.counter(
        "rpc.client.deadline_exceeded", (str(rental.prog), "1")
    )
    # shorter than the one-way simulated latency: alive at send time,
    # expired before any reply can arrive
    ctx = CallContext.with_timeout(0.0005, net.clock.now)
    with pytest.raises(RpcError):
        client.call(rental.ref.address, rental.prog, 1, 1, context=ctx)
    assert (
        METRICS.counter("rpc.client.deadline_exceeded", (str(rental.prog), "1"))
        == before + 1
    )


def test_dead_federation_peer_counts_unreachable_link(net, make_server, make_client):
    alive = TraderService(
        make_server("alive-t"), client=make_client(timeout=0.02, retries=0)
    )
    dead = TraderService(make_server("dead-t"), client=make_client())
    alive_client = TraderClient(make_client(), alive.address)
    sid = load_service_description(CAR_RENTAL_SIDL)
    alive_client.add_type(service_type_from_sid(sid))
    alive.link_to(dead.address, name="doomed-link")
    net.faults.crash("dead-t")
    before = METRICS.counter("federation.link", ("doomed-link", "unreachable"))
    offers = alive_client.import_(ImportRequest("CarRentalService", hop_limit=1))
    assert offers == []
    assert METRICS.counter("federation.link", ("doomed-link", "unreachable")) == before + 1


def test_live_federation_peer_counts_ok_link(net, make_server, make_client, rental):
    hub = TraderService(make_server("hub-ok"), client=make_client())
    peer = TraderService(make_server("peer-ok"), client=make_client())
    hub_client = TraderClient(make_client(), hub.address)
    peer_client = TraderClient(make_client(), peer.address)
    service_type = service_type_from_sid(rental.sid)
    hub_client.add_type(service_type)
    peer_client.add_type(service_type)
    make_tradable(rental.sid, rental.ref, peer_client)
    hub.link_to(peer.address, name="good-link")
    before = METRICS.counter("federation.link", ("good-link", "ok"))
    offers = hub_client.import_(ImportRequest("CarRentalService", hop_limit=1))
    assert len(offers) == 1
    assert METRICS.counter("federation.link", ("good-link", "ok")) == before + 1


def test_duplicate_replies_are_counted(net, make_server, make_client):
    """A retransmission whose original reply was merely *slow* produces a
    second reply for a retired xid — dropped and counted."""
    rental = start_car_rental(make_server())
    # per-attempt timeout (1.5 ms) < round trip (2 ms): attempt 1 times
    # out, the retransmission is answered from the duplicate cache, and
    # the late first reply completes the call — the second reply is then
    # a duplicate for a retired xid.
    client = make_client(timeout=0.0015, retries=2)
    before = METRICS.counter_total("rpc.client.duplicate_replies_dropped")
    assert client.call(rental.ref.address, rental.prog, 1, 0) is None  # NULL proc
    # the straggler reply is still in the network; a later call pumps the
    # virtual clock far enough to deliver it
    assert client.call(rental.ref.address, rental.prog, 1, 0) is None
    assert METRICS.counter_total("rpc.client.duplicate_replies_dropped") > before


def test_offer_index_hit_and_fallback_counters(rental):
    from repro.trader.trader import LocalTrader

    trader = LocalTrader("t-idx")
    service_type = service_type_from_sid(rental.sid)
    trader.add_type(service_type)
    from repro.core.integration import export_properties

    properties = export_properties(rental.sid)
    trader.export(service_type.name, rental.ref, properties)
    hits = METRICS.counter("offers.index_hits", ("t-idx",))
    ranges = METRICS.counter("offers.range_hits", ("t-idx",))
    scans = METRICS.counter("offers.fallback_scans", ("t-idx",))
    # equality conjunct -> served off the property index
    model = properties["CarModel"]
    assert trader.import_(ImportRequest(service_type.name, f"CarModel == '{model}'"))
    assert METRICS.counter("offers.index_hits", ("t-idx",)) == hits + 1
    # range conjunct -> served off the sorted index
    assert trader.import_(ImportRequest(service_type.name, "ChargePerDay < 100"))
    assert METRICS.counter("offers.range_hits", ("t-idx",)) == ranges + 1
    # no exploitable conjunct -> full type scan
    assert trader.import_(ImportRequest(service_type.name, "ChargePerDay != 100"))
    assert METRICS.counter("offers.fallback_scans", ("t-idx",)) == scans + 1


def test_server_handler_latency_histogram_is_recorded(net, make_server, make_client, rental):
    client = make_client()
    ctx = CallContext.with_timeout(10.0, net.clock.now)
    client.call(rental.ref.address, rental.prog, 1, 1, context=ctx)  # GET_SID
    series = METRICS.snapshot()["histograms"]
    assert any(name.startswith("rpc.server.handler_seconds") for name in series)


# -- the layer-latency report ------------------------------------------------


def test_report_grid_compares_models_and_renders_html(tmp_path):
    grid = report.build_report(models=("lan", "wan"), fleets=(2,), repeats=2)
    assert [cell["model"] for cell in grid["cells"]] == ["lan", "wan"]
    for cell in grid["cells"]:
        assert cell["traces"] >= 2  # every cascade produced a distinct trace
        for layer in ("trader", "binder", "generic", "rpc", "server", "federation"):
            assert layer in cell["layers"], f"missing layer {layer!r}"
        stats = cell["layers"]["rpc"]
        assert stats["count"] > 0
        assert stats["p50"] <= stats["p95"] <= stats["max"]
    # the wan model's rpc latency dominates the lan model's
    lan, wan = grid["cells"]
    assert wan["layers"]["rpc"]["p50"] > lan["layers"]["rpc"]["p50"]

    html = report.render_report_html(grid)
    assert "<table>" in html and "latency model: lan" in html
    text = report.render_report_text(grid)
    assert "latency model: wan" in text

    out = tmp_path / "report.html"
    out_json = tmp_path / "BENCH_telemetry.json"
    code = report.main(
        [
            "--models", "lan,wan", "--fleets", "2", "--repeats", "2",
            "--out", str(out), "--json", str(out_json),
        ]
    )
    assert code == 0
    assert "<table>" in out.read_text()
    payload = json.loads(out_json.read_text())
    assert payload["benchmark"] == "telemetry_layer_latency"
    assert len(payload["cells"]) == 2


def test_report_recovery_cell_shows_the_recovery_layer():
    cell = report.run_recovery_cell("lan", repeats=6)
    # The crash window never dents availability: failover + rebind
    # carried every call, and each recovery series demonstrably moved.
    assert cell["succeeded"] == cell["calls"]
    assert cell["failovers"] >= 1
    assert cell["breaker_opens"] >= 1
    assert cell["lease_expirations"] >= 1
    assert cell["reimports"] >= 1
    # Deterministic: same seed, same virtual world, same counters.
    assert report.run_recovery_cell("lan", repeats=6) == cell


def test_report_renders_recovery_columns():
    grid = report.build_report(models=("lan",), fleets=(2,), repeats=2)
    assert [cell["model"] for cell in grid["recovery"]] == ["lan"]
    text = report.render_report_text(grid)
    assert "recovery (crash-and-recover, per model)" in text
    for column in ("failovers", "breaker opens", "lease expirations"):
        assert column in text
    html = report.render_report_html(grid)
    assert "lease expirations" in html


def test_report_percentile_interpolates():
    assert report.percentile([], 0.5) == 0.0
    assert report.percentile([3.0], 0.95) == 3.0
    assert report.percentile([1.0, 2.0, 3.0, 4.0], 0.5) == pytest.approx(2.5)
    assert report.percentile([1.0, 2.0, 3.0, 4.0], 1.0) == 4.0
