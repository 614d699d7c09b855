"""Async resilience, rebind, and event-loop timers on virtual time.

Covers the ``await`` side of the failure-recovery layer —
``ResilientCaller.call_async`` / ``run_async`` and
``RebindingClient.invoke_async``; outcome parity with the blocking side
lives in ``test_flavour_parity.py`` — plus the satellite guarantees that
:class:`LeaseHeartbeat` and the admission queue's dequeue-time aging run
on the event-loop sim clock with no wall-clock sleeps.
"""

import time

import asyncio

import pytest

from repro.context import CallContext
from repro.core.rebind import RebindingClient
from repro.core.integration import make_tradable
from repro.core.generic_client import GenericClient
from repro.net import SimNetwork, loop_for
from repro.net.latency import FixedLatency
from repro.rpc import AsyncRpcClient, RpcProgram, RpcServer
from repro.rpc.client import RpcClient
from repro.rpc.message import RpcCall
from repro.rpc.resilience import BackoffPolicy, BreakerPolicy, ResilientCaller
from repro.rpc.transport import SimTransport
from repro.services.car_rental import start_car_rental
from repro.trader.leases import LeaseHeartbeat, heartbeat_interval
from repro.trader.trader import LocalTrader, TraderClient, TraderService

from tests.conftest import SELECTION

PROG = 662000


@pytest.fixture
def net():
    return SimNetwork(seed=1994, latency=FixedLatency(0.01))


def run_sim(net, coro):
    return loop_for(net.clock).run_until_complete(coro)


def echo_server(net, host):
    server = RpcServer(SimTransport(net, host))
    program = RpcProgram(PROG, 1, "echo")
    program.register(1, lambda args: {"host": host, "echo": args})
    server.serve(program)
    return server


def make_caller(net, **overrides):
    options = dict(
        backoff=BackoffPolicy(base=0.05, cap=0.2),
        breaker=BreakerPolicy(failure_threshold=2, probe_interval=1.0),
        seed=7,
    )
    options.update(overrides)
    client = AsyncRpcClient(SimTransport(net, "cli"), timeout=0.2, retries=1)
    return ResilientCaller(client, **options)


# -- ResilientCaller.call_async --------------------------------------------


def test_call_async_fails_over_to_live_endpoint(net):
    dead = echo_server(net, "dead")
    live = echo_server(net, "live")
    net.faults.crash("dead")
    caller = make_caller(net)
    ctx = CallContext(deadline=net.clock.now + 5.0)
    wall = time.perf_counter()
    result = run_sim(
        net,
        caller.call_async(
            [dead.address, live.address], PROG, 1, 1, {"n": 1}, ctx=ctx
        ),
    )
    wall = time.perf_counter() - wall
    assert result["host"] == "live"
    assert caller.failovers >= 1
    # The backoff pause between attempts was virtual, not slept.
    assert caller.backoff_sleeps > 0
    assert wall < 1.0


def test_concurrent_failover_rounds_share_the_loop(net):
    """Many resilient calls interleave: total virtual time is one call's
    backoff schedule, not the sum over callers."""
    dead = echo_server(net, "dead")
    live = echo_server(net, "live")
    net.faults.crash("dead")
    caller = make_caller(net)

    async def main():
        start = net.clock.now
        out = await asyncio.gather(*[
            caller.call_async(
                [dead.address, live.address], PROG, 1, 1, {"n": i}
            )
            for i in range(10)
        ])
        return out, net.clock.now - start

    out, elapsed = run_sim(net, main())
    assert all(r["host"] == "live" for r in out)
    # Serial failover (10 callers x ~0.25s timeout+backoff) would need
    # ~2.5 virtual seconds; concurrent rounds overlap.
    assert elapsed < 1.0


# -- RebindingClient.invoke_async ------------------------------------------


@pytest.fixture
def stack(net):
    clock = net.clock
    service = TraderService(
        RpcServer(SimTransport(net, "trader")),
        trader=LocalTrader("td", clock=lambda: clock.now),
        now=lambda: clock.now,
    )
    rpc = RpcClient(SimTransport(net, "cli"), timeout=0.2, retries=1)
    arpc = AsyncRpcClient(SimTransport(net, "acli"), timeout=0.2, retries=1)
    importer = TraderClient(rpc, service.address)
    rebinder = RebindingClient(
        rpc,
        importer,
        resilient=ResilientCaller(
            rpc,
            backoff=BackoffPolicy(base=0.01, cap=0.1),
            breaker=BreakerPolicy(failure_threshold=2, probe_interval=0.5),
            seed=7,
        ),
        generic=GenericClient(rpc, enforce_fsm=False),
        async_client=arpc,
    )

    def spawn(host, lease_seconds=None):
        runtime = start_car_rental(
            RpcServer(SimTransport(net, host)), enforce_fsm=False
        )
        make_tradable(
            runtime.sid, runtime.ref, service.trader,
            now=clock.now, lease_seconds=lease_seconds,
        )
        return runtime

    return net, service, rebinder, spawn


def select_async(net, rebinder, ctx=None):
    return run_sim(
        net,
        rebinder.invoke_async(
            "CarRentalService", "SelectCar", {"selection": SELECTION}, ctx=ctx
        ),
    )


def test_invoke_async_steady_state_caches_session(stack):
    net, service, rebinder, spawn = stack
    spawn("w1")
    assert select_async(net, rebinder) is not None
    assert select_async(net, rebinder) is not None
    assert rebinder.imports == 1
    assert len(rebinder._async_sessions) == 1  # BIND happened once


def test_invoke_async_fails_over_after_crash(stack):
    net, service, rebinder, spawn = stack
    spawn("w1")
    spawn("w2")
    net.faults.crash("w1")
    ctx = CallContext(deadline=net.clock.now + 2.0)
    assert select_async(net, rebinder, ctx) is not None
    assert rebinder.resilient.failovers >= 1
    assert rebinder.rebinds == 0


def test_invoke_async_rebinds_after_whole_cohort_crash(stack):
    net, service, rebinder, spawn = stack
    spawn("w1")
    assert select_async(net, rebinder) is not None
    net.faults.crash("w1")
    service.trader.withdraw(next(iter(service.trader.offers.all())).offer_id)
    spawn("w2")
    ctx = CallContext(deadline=net.clock.now + 5.0)
    assert select_async(net, rebinder, ctx) is not None
    assert rebinder.rebinds >= 1
    assert rebinder.imports == 2


def test_invoke_async_agrees_with_sync_invoke(stack):
    net, service, rebinder, spawn = stack
    spawn("w1")
    got_async = select_async(net, rebinder)
    got_sync = rebinder.invoke(
        "CarRentalService", "SelectCar", {"selection": SELECTION}
    )
    assert got_async == got_sync


# -- LeaseHeartbeat on the event-loop sim clock ----------------------------


def lease_world(net, lease_seconds=2.0):
    clock = net.clock
    trader = LocalTrader("td", clock=lambda: clock.now)
    from repro.trader.service_types import ServiceType
    from repro.sidl.types import DOUBLE, InterfaceType, LONG, OperationType
    from repro.naming.refs import ServiceRef
    from repro.net.endpoints import Address

    trader.add_type(
        ServiceType(
            "S", InterfaceType("I", [OperationType("Op", [], LONG)]),
            [("P", DOUBLE)],
        )
    )
    offer_id = trader.export(
        "S", ServiceRef.create("s-1", Address("w", 1), 4711), {"P": 1.0},
        now=clock.now, lease_seconds=lease_seconds,
    )
    return trader, offer_id


def test_heartbeat_task_keeps_lease_alive_in_virtual_time(net):
    trader, offer_id = lease_world(net, lease_seconds=2.0)
    heartbeat = LeaseHeartbeat(
        lambda oid: trader.renew(oid, net.clock.now),
        offer_id,
        heartbeat_interval(2.0),
    )
    loop = loop_for(net.clock)

    async def main():
        heartbeat.start_task()
        # An hour of virtual time: thousands of beats, zero wall sleeps.
        await asyncio.sleep(3600.0)
        trader.expire_offers(net.clock.now)
        alive = len(trader.offers.all())
        heartbeat.stop()
        return alive

    wall = time.perf_counter()
    alive = loop.run_until_complete(main())
    wall = time.perf_counter() - wall
    assert alive == 1
    assert heartbeat.beats >= 5000
    assert wall < 5.0


def test_stopped_heartbeat_task_lets_lease_lapse(net):
    trader, offer_id = lease_world(net, lease_seconds=2.0)
    heartbeat = LeaseHeartbeat(
        lambda oid: trader.renew(oid, net.clock.now),
        offer_id,
        heartbeat_interval(2.0),
    )
    loop = loop_for(net.clock)

    async def main():
        heartbeat.start_task()
        await asyncio.sleep(10.0)
        heartbeat.stop()
        await asyncio.sleep(10.0)
        return trader.expire_offers(net.clock.now)

    swept = loop.run_until_complete(main())
    assert swept == 1
    assert len(trader.offers.all()) == 0


# -- AdmissionQueue aging on the event-loop sim clock ----------------------


def test_queued_call_ages_out_at_virtual_dequeue_time(net):
    """An admitted call whose deadline lapses while queued is rejected
    when its turn comes — with the aging measured on the sim clock, not
    a wall clock."""
    server = RpcServer(SimTransport(net, "srv"))
    program = RpcProgram(PROG + 1, 1, "aged")
    program.register(1, lambda args: "ran")
    server.serve(program)
    loop = loop_for(net.clock)
    source = SimTransport(net, "src").local_address

    async def main():
        call = RpcCall(
            xid=991, prog=PROG + 1, vers=1, proc=1,
            deadline=net.clock.now + 0.5,
        )
        # Admit now; let virtual time pass the deadline before the
        # drain reaches the entry's dequeue-time re-check.
        assert server._admit(source, call, (source, call.xid))
        await asyncio.sleep(1.0)
        server._drain()
        return server.deadlines_rejected

    rejected = loop.run_until_complete(main())
    assert rejected == 1
    assert server.calls_handled == 0  # the handler never ran
