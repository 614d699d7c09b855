"""Concurrent federated fan-out over remote links, simulated and real.

A :class:`TraderService` forwards federated imports over its remote
links with its client's split-phase pair: every IMPORT is started, then
all are gathered, so the links are in flight at once without threads or
an event loop.  These tests prove the concurrency is real — per-link
spans overlap in virtual time, and a sweep over real TCP peers costs one
slow peer's latency, not the sum — and that results match a sweep with a
window of one exactly.
"""

import threading
import time

import pytest

from repro.context import CallContext
from repro.naming.refs import ServiceRef
from repro.net import SimNetwork
from repro.net.endpoints import Address
from repro.net.latency import FixedLatency
from repro.rpc.client import RpcClient
from repro.rpc.server import RpcServer
from repro.rpc.transport import SimTransport, TcpTransport
from repro.telemetry.metrics import METRICS
from repro.sidl.types import DOUBLE, InterfaceType, LONG, OperationType
from repro.trader.service_types import ServiceType
from repro.trader.trader import (
    ImportRequest,
    LocalTrader,
    TraderClient,
    TraderService,
)


def rental():
    return ServiceType(
        "CarRentalService",
        InterfaceType("I", [OperationType("SelectCar", [], LONG)]),
        [("ChargePerDay", DOUBLE)],
    )


def make_service(net, host, *offer_names):
    server = RpcServer(SimTransport(net, host))
    client = RpcClient(SimTransport(net, host), timeout=1.0, retries=3)
    service = TraderService(
        server,
        trader=LocalTrader(host),
        client=client,
        now=lambda: net.clock.now,
    )
    service.trader.add_type(rental())
    for name in offer_names:
        service.trader.export(
            "CarRentalService",
            ServiceRef.create(name, Address(host, 1), 4711),
            {"ChargePerDay": 5.0},
            now=net.clock.now,
        )
    return service


def federated_world(latency=0.05, peers=4):
    net = SimNetwork(seed=1994, latency=FixedLatency(latency))
    hub = make_service(net, "hub", "hub-1")
    for i in range(peers):
        peer = make_service(net, f"peer{i}", f"peer{i}-1")
        hub.link_to(peer.address, name=f"peer{i}")
    return net, hub


def link_spans(ctx):
    return [
        (s.operation, s.started_at, s.started_at + (s.elapsed or 0.0))
        for s in ctx.spans
        if s.layer == "federation" and s.operation.startswith("link ")
    ]


def test_sim_fanout_is_concurrent_and_spans_overlap():
    net, hub = federated_world(latency=0.05, peers=4)
    ctx = CallContext(deadline=net.clock.now + 10.0, trace_id="fanout")
    start = net.clock.now
    offers = hub.trader.import_(
        ImportRequest("CarRentalService", hop_limit=1), now=start, ctx=ctx
    )
    elapsed = net.clock.now - start
    assert sorted(o.service_ref().name for o in offers) == [
        "hub-1", "peer0-1", "peer1-1", "peer2-1", "peer3-1",
    ]
    # One link's RPC round trip is ~0.1 virtual seconds; a serial sweep
    # over four links would take ~0.4.  Concurrent fan-out pays for the
    # slowest link only.
    assert elapsed < 0.2
    spans = link_spans(ctx)
    assert len(spans) == 4
    # Every pair of link spans overlaps in virtual time.
    for __, a_start, a_end in spans:
        for __, b_start, b_end in spans:
            assert a_start < b_end and b_start < a_end


def test_sim_fanout_matches_serial_results():
    net_a, hub_a = federated_world()
    offers_async = hub_a.trader.import_(
        ImportRequest("CarRentalService", hop_limit=1),
        now=net_a.clock.now,
        ctx=CallContext(deadline=net_a.clock.now + 10.0),
    )
    net_s, hub_s = federated_world()
    hub_s.trader.fanout_workers = 1  # one forward in flight at a time
    offers_serial = hub_s.trader.import_(
        ImportRequest("CarRentalService", hop_limit=1),
        now=net_s.clock.now,
        ctx=CallContext(deadline=net_s.clock.now + 10.0),
    )
    assert (
        sorted(o.service_ref().name for o in offers_async)
        == sorted(o.service_ref().name for o in offers_serial)
    )


def test_sim_fanout_through_rpc_import():
    """End to end: a TraderClient import triggers the concurrent sweep."""
    net, hub = federated_world(latency=0.02, peers=3)
    importer = TraderClient(
        RpcClient(SimTransport(net, "importer"), timeout=5.0, retries=1),
        hub.address,
    )
    start = net.clock.now
    offers = importer.import_(ImportRequest("CarRentalService", hop_limit=1))
    elapsed = net.clock.now - start
    assert sorted(o.service_ref().name for o in offers) == [
        "hub-1", "peer0-1", "peer1-1", "peer2-1",
    ]
    # Client->hub RTT (~0.04) plus ONE concurrent link RTT (~0.04), not
    # three serial ones.
    assert elapsed < 0.15


def test_partition_cuts_the_hubs_forwards():
    """Forwards leave from the hub's own host, so a partition that cuts
    the hub cuts its federated forwards as well."""
    net, hub = federated_world(latency=0.01, peers=2)
    net.faults.partition("hub", "peer0")
    ctx = CallContext(deadline=net.clock.now + 2.0)
    offers = hub.trader.import_(
        ImportRequest("CarRentalService", hop_limit=1),
        now=net.clock.now,
        ctx=ctx,
    )
    names = sorted(o.service_ref().name for o in offers)
    assert "peer1-1" in names and "hub-1" in names
    assert "peer0-1" not in names


def test_nested_hops_still_resolve():
    """A two-level federation (hub -> mid -> leaf) completes: mid's
    sweep runs inside the hub's gather, as a nested wait."""
    net = SimNetwork(seed=7, latency=FixedLatency(0.01))
    hub = make_service(net, "hub", "hub-1")
    mid = make_service(net, "mid", "mid-1")
    leaf = make_service(net, "leaf", "leaf-1")
    hub.link_to(mid.address, name="mid")
    mid.link_to(leaf.address, name="leaf")
    ctx = CallContext(deadline=net.clock.now + 10.0)
    offers = hub.trader.import_(
        ImportRequest("CarRentalService", hop_limit=2),
        now=net.clock.now,
        ctx=ctx,
    )
    assert sorted(o.service_ref().name for o in offers) == [
        "hub-1", "leaf-1", "mid-1",
    ]


# -- real TCP: remote links overlap in wall time -------------------------------


@pytest.fixture
def tcp_world():
    """Builds TraderServices on real sockets; closes every transport once
    the slow handlers still sleeping have answered."""
    transports = []
    answered = []

    def transport():
        transports.append(TcpTransport())
        return transports[-1]

    def service(host, *offer_names, delay=0.0, client=None):
        trader = LocalTrader(host)
        trader.add_type(rental())
        for name in offer_names:
            trader.export(
                "CarRentalService",
                ServiceRef.create(name, Address(host, 1), 4711),
                {"ChargePerDay": 5.0},
            )
        if delay:
            answer = trader.import_wire

            def slow_import(request_wire, now=0.0, ctx=None):
                done = threading.Event()
                answered.append(done)
                try:
                    time.sleep(delay)
                    return answer(request_wire, now, ctx)
                finally:
                    done.set()

            trader.import_wire = slow_import
        return TraderService(RpcServer(transport()), trader=trader, client=client)

    def hub(*offer_names):
        client = RpcClient(transport(), timeout=1.0, retries=1)
        return service("hub", *offer_names, client=client)

    yield hub, service
    for done in answered:
        done.wait(2.0)
    time.sleep(0.05)  # let the last replies leave
    for each in transports:
        each.close()


def test_tcp_fanout_completes_in_max_not_sum_of_latencies(tcp_world):
    make_hub, make_peer = tcp_world
    hub = make_hub()
    delay = 0.08
    for index in range(4):
        peer = make_peer(f"peer{index}", f"p{index}-1", delay=delay)
        hub.link_to(peer.address, name=f"to-{index}")
    started = time.monotonic()
    offers = hub.trader.import_(ImportRequest("CarRentalService", hop_limit=1))
    elapsed = time.monotonic() - started
    assert sorted(o.service_ref().name for o in offers) == [
        "p0-1", "p1-1", "p2-1", "p3-1",
    ]
    # Serial would cost 4 * delay; the started forwards overlap.
    assert elapsed < 3 * delay


def test_tcp_slow_peer_exhausts_split_budget_partial_results(tcp_world):
    make_hub, make_peer = tcp_world
    hub = make_hub("local-1")
    slow = make_peer("slow", "slow-1", delay=0.5)
    hub.link_to(slow.address, name="to-slow")
    fast = LocalTrader("fast")
    fast.add_type(rental())
    fast.export(
        "CarRentalService",
        ServiceRef.create("fast-1", Address("fast", 1), 4711),
        {"ChargePerDay": 6.0},
    )
    hub.trader.link_local(fast)
    expired = METRICS.counter("federation.link", ("to-slow", "expired"))
    ctx = CallContext.with_timeout(0.1, time.monotonic(), hops=1)
    started = time.monotonic()
    offers = hub.trader.import_(ImportRequest("CarRentalService"), ctx=ctx)
    elapsed = time.monotonic() - started
    # The slow peer never beats its share of the 100 ms budget: the sweep
    # returns what it has instead of waiting the full 500 ms.
    assert sorted(o.service_ref().name for o in offers) == ["fast-1", "local-1"]
    assert elapsed < 0.4
    assert METRICS.counter("federation.link", ("to-slow", "expired")) == expired + 1
