"""Federation link-outcome accounting: ok / shed / unreachable / expired.

Every forward resolves to exactly one ``federation.link`` outcome, over a
hub whose links mix both forms: remote links (IMPORT over the hub's
``RpcClient``, started together and gathered) and in-process forwarders
(run inline while the remote ones are in flight).  The outcome table is
the same whatever the fan-out window: one remote forward in flight at a
time (``serial``), a small pool of them (``pooled``), or the trader's
default window, which starts every remote forward here before the first
is gathered (``async``).
"""

import pytest

from repro.context import CallContext
from repro.naming.refs import ServiceRef
from repro.net import SimNetwork
from repro.net.endpoints import Address
from repro.net.latency import FixedLatency
from repro.rpc.client import RpcClient
from repro.rpc.errors import DeadlineExceeded, ServerShedding
from repro.rpc.server import RpcServer
from repro.rpc.transport import SimTransport
from repro.sidl.types import DOUBLE, InterfaceType, LONG, OperationType
from repro.telemetry.metrics import METRICS
from repro.trader.federation import DEFAULT_FANOUT_WORKERS, TraderLink
from repro.trader.service_types import ServiceType
from repro.trader.trader import ImportRequest, LocalTrader, TraderService

OUTCOMES = ("ok", "shed", "unreachable", "expired")

#: Fan-out windows: remote link forwards kept in flight at once.
WINDOWS = {"serial": 1, "pooled": 2, "async": DEFAULT_FANOUT_WORKERS}


def rental_type():
    return ServiceType(
        "CarRentalService",
        InterfaceType("I", [OperationType("SelectCar", [], LONG)]),
        [("ChargePerDay", DOUBLE)],
    )


def make_trader(trader_id, *offer_names, **kwargs):
    trader = LocalTrader(trader_id, **kwargs)
    trader.add_type(rental_type())
    for name in offer_names:
        trader.export(
            "CarRentalService",
            ServiceRef.create(name, Address(trader_id, 1), 4711),
            {"ChargePerDay": 5.0},
        )
    return trader


def make_service(net, trader, client=None):
    return TraderService(
        RpcServer(SimTransport(net, trader.trader_id)),
        trader=trader,
        client=client,
        now=lambda: net.clock.now,
    )


def make_hub(net, *offer_names, fanout_workers=4):
    client = RpcClient(SimTransport(net, "hub-out"), timeout=0.05, retries=1)
    trader = make_trader("hub", *offer_names, fanout_workers=fanout_workers)
    return make_service(net, trader, client)


def mixed_outcome_hub(window):
    """A hub whose four links — two remote, two in-process — each
    resolve to a distinct outcome."""
    net = SimNetwork(seed=7, latency=FixedLatency(0.01))
    hub = make_hub(net, "local-1", fanout_workers=window)
    hub.link_to(make_service(net, make_trader("good", "good-1")).address, "good")

    def shedding(request_wire, ctx=None):
        raise ServerShedding("peer overloaded")

    def lapsing(request_wire, ctx=None):
        raise DeadlineExceeded("forward outlived its lease")

    hub.trader.link(TraderLink("busy", shedding))
    dead = make_service(net, make_trader("dead", "dead-1"))
    hub.link_to(dead.address, "dead")
    net.faults.crash("dead")
    hub.trader.link(TraderLink("slowpoke", lapsing))
    return net, hub


def link_counts(links):
    return {
        (name, outcome): METRICS.counter("federation.link", (name, outcome))
        for name in links
        for outcome in OUTCOMES
    }


def sweep(hub, ctx, request=None):
    before = link_counts(hub.trader.links)
    offers = hub.trader.import_(
        request or ImportRequest("CarRentalService", hop_limit=1),
        now=hub.trader.clock(),
        ctx=ctx,
    )
    after = link_counts(hub.trader.links)
    delta = {key: after[key] - before[key] for key in after if after[key] != before[key]}
    return sorted(o.service_ref().name for o in offers), delta


def link_spans(ctx):
    return {
        span.operation: span.outcome
        for span in ctx.spans
        if span.layer == "federation"
    }


@pytest.mark.parametrize("mode", WINDOWS)
def test_each_link_outcome_is_counted_distinctly(mode):
    net, hub = mixed_outcome_hub(WINDOWS[mode])
    ctx = CallContext.background()
    offer_names, delta = sweep(hub, ctx)
    # Partial merge: the healthy peer and the hub's own offer.
    assert offer_names == ["good-1", "local-1"]
    assert delta == {
        ("good", "ok"): 1,
        ("busy", "shed"): 1,
        ("dead", "unreachable"): 1,
        ("slowpoke", "expired"): 1,
    }
    assert link_spans(ctx) == {
        "link good": "ok",
        "link busy": "ServerShedding",
        "link dead": "RpcTimeout",
        "link slowpoke": "DeadlineExceeded",
    }


def test_all_sweep_flavours_agree():
    tables = []
    for window in WINDOWS.values():
        net, hub = mixed_outcome_hub(window)
        ctx = CallContext.background()
        tables.append((sweep(hub, ctx), link_spans(ctx)))
    assert tables[0] == tables[1] == tables[2]


@pytest.mark.parametrize("mode", WINDOWS)
def test_spent_budget_counts_every_link_expired(mode):
    net = SimNetwork(seed=7, latency=FixedLatency(0.01))
    hub = make_hub(net, "local-1", fanout_workers=WINDOWS[mode])
    hub.trader.link_local(make_trader("p1", "p1-1"))
    hub.link_to(make_service(net, make_trader("p2", "p2-1")).address, "p2")
    ctx = CallContext(deadline=net.clock.now - 1.0, hops=3)
    offer_names, delta = sweep(hub, ctx, ImportRequest("CarRentalService"))
    assert offer_names == ["local-1"]
    # Each link counted expired once, and nothing went on the wire.
    assert delta == {("p1", "expired"): 1, ("p2", "expired"): 1}
    assert hub._client.calls_sent == 0
    assert link_spans(ctx) == {"link p1": "expired", "link p2": "expired"}


def test_window_keeps_workers_remote_forwards_started():
    net = SimNetwork(seed=7, latency=FixedLatency(0.05))
    hub = make_hub(net, fanout_workers=2)
    hub._client.timeout = 1.0
    for index in range(4):
        peer = make_service(net, make_trader(f"peer{index}", f"peer{index}-1"))
        hub.link_to(peer.address, f"peer{index}")
    ctx = CallContext(deadline=net.clock.now + 10.0)
    started = net.clock.now
    offer_names, delta = sweep(hub, ctx)
    assert offer_names == ["peer0-1", "peer1-1", "peer2-1", "peer3-1"]
    assert set(delta.values()) == {1} and len(delta) == 4
    # Two windows of two overlapping round trips (0.1 s each).
    assert net.clock.now - started == 0.2
    spans = [s for s in ctx.spans if s.layer == "federation"]
    assert [s.started_at - started for s in spans] == [0.0, 0.0, 0.1, 0.1]


def test_enough_offers_retire_forwards_still_in_flight():
    net = SimNetwork(seed=7, latency=FixedLatency(0.01))
    hub = make_hub(net)
    hub._client.timeout = 1.0
    silent = make_service(net, make_trader("silent", "silent-1"))
    hub.link_to(silent.address, "silent")
    net.faults.crash("silent")
    hub.trader.link_local(make_trader("fast", "f-1", "f-2", "f-3"))
    hub.trader.link_local(make_trader("late", "late-1"))
    ctx = CallContext(deadline=net.clock.now + 10.0)
    offer_names, delta = sweep(
        hub, ctx, ImportRequest("CarRentalService", max_matches=2, hop_limit=1)
    )
    assert len(offer_names) == 2 and set(offer_names) <= {"f-1", "f-2", "f-3"}
    # The in-process link covered max_matches: the remote forward still in
    # flight is retired and the link after it never runs — neither counted.
    assert delta == {("fast", "ok"): 1}
    assert link_spans(ctx) == {"link silent": "retired", "link fast": "ok"}
    assert hub._client._awaited == set()


def test_remote_link_on_another_client_forwards_inline():
    """``gather`` settles one client's calls: a remote link built on some
    other client is forwarded inline (start, gather of one) instead."""
    net = SimNetwork(seed=7, latency=FixedLatency(0.01))
    hub = make_hub(net)
    hub.link_to(make_service(net, make_trader("paired", "paired-1")).address, "paired")
    other = RpcClient(SimTransport(net, "other-out"), timeout=1.0, retries=1)
    peer = make_service(net, make_trader("foreign", "foreign-1"))
    hub.trader.link(TraderLink("foreign", client=other, address=peer.address))
    ctx = CallContext(deadline=net.clock.now + 10.0)
    offer_names, delta = sweep(hub, ctx)
    assert offer_names == ["foreign-1", "paired-1"]
    assert delta == {("paired", "ok"): 1, ("foreign", "ok"): 1}
    assert other.calls_sent == 1 and hub._client.calls_sent == 1
