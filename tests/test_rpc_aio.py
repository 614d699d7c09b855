"""Tests for the coroutine RPC client: AsyncRpcClient against RpcServer.

Every case runs in virtual time, driving a :class:`SimEventLoop`
explicitly (no asyncio plugin needed).
"""

import asyncio

import pytest

from repro.context import CallContext
from repro.net import SimNetwork, loop_for
from repro.net.latency import FixedLatency
from repro.rpc import (
    AdmissionPolicy,
    AsyncRpcClient,
    RpcClient,
    RpcProgram,
    RpcServer,
)
from repro.rpc.errors import (
    DeadlineExceeded,
    ProgramUnavailable,
    RemoteFault,
    RpcTimeout,
    ServerShedding,
)
from repro.rpc.transport import SimTransport
from repro.telemetry.metrics import METRICS

PROG = 661000


@pytest.fixture
def net():
    return SimNetwork(seed=1994, latency=FixedLatency(0.01))


def make_async_stack(net, host="asrv", **server_options):
    server = RpcServer(SimTransport(net, host), **server_options)
    program = RpcProgram(PROG, 1, "aio")
    calls = {"count": 0}

    def echo(args):
        calls["count"] += 1
        return {"echo": args, "n": calls["count"]}

    def boom(args):
        raise ValueError("kaput")

    program.register(2, echo, "echo")
    program.register(3, boom, "boom")
    server.serve(program)
    client = AsyncRpcClient(SimTransport(net, "acli"), timeout=1.0, retries=3)
    return server, client, calls


def run_sim(net, coro):
    return loop_for(net.clock).run_until_complete(coro)


def test_async_call_roundtrip_on_sim(net):
    server, client, __ = make_async_stack(net)
    result = run_sim(net, client.call(server.address, PROG, 1, 2, {"x": 1}))
    assert result["echo"] == {"x": 1}


def test_concurrent_calls_overlap_in_virtual_time(net):
    server, client, calls = make_async_stack(net)

    async def main():
        start = net.clock.now
        out = await asyncio.gather(*[
            client.call(server.address, PROG, 1, 2, {"i": i}) for i in range(50)
        ])
        return out, net.clock.now - start

    out, elapsed = run_sim(net, main())
    assert len(out) == 50 and calls["count"] == 50
    # Serial calls would take 50 round trips: 1 virtual second.
    assert elapsed < 0.1


def test_remote_fault_surfaces(net):
    server, client, __ = make_async_stack(net)
    with pytest.raises(RemoteFault) as excinfo:
        run_sim(net, client.call(server.address, PROG, 1, 3))
    assert "kaput" in str(excinfo.value)


def test_unknown_program_raises(net):
    server, client, __ = make_async_stack(net)
    with pytest.raises(ProgramUnavailable):
        run_sim(net, client.call(server.address, 999999, 1, 1))


def test_timeout_when_unreachable(net):
    __, client, __c = make_async_stack(net)
    missing = SimTransport(net, "ghost").local_address
    with pytest.raises(RpcTimeout):
        run_sim(
            net,
            client.call(missing, PROG, 1, 1, timeout=0.1, retries=1),
        )


def test_retransmission_survives_drops(net):
    server, client, calls = make_async_stack(net)
    net.faults.drop_probability = 0.6

    async def main():
        return await asyncio.gather(*[
            client.call(
                server.address, PROG, 1, 2, {"x": i}, timeout=0.2, retries=40
            )
            for i in range(5)
        ])

    results = run_sim(net, main())
    assert [r["echo"]["x"] for r in results] == [0, 1, 2, 3, 4]
    assert client.retransmissions > 0
    # At-most-once: duplicates of retransmitted requests never re-ran.
    assert calls["count"] == 5


def test_deadline_expired_before_send(net):
    server, client, __ = make_async_stack(net)
    ctx = CallContext(deadline=net.clock.now - 1.0)
    with pytest.raises(DeadlineExceeded):
        run_sim(net, client.call(server.address, PROG, 1, 2, context=ctx))


def test_shed_surfaces_as_server_shedding(net):
    server, client, __ = make_async_stack(
        net, admission=AdmissionPolicy(min_samples=1, quantile=0.5)
    )
    # Teach the estimator that proc 2 takes 2 virtual seconds.
    server._service_times.observe("rpc.server.handler_seconds", 2.0, ("aio", "2"))
    ctx = CallContext(deadline=net.clock.now + 0.5)
    with pytest.raises(ServerShedding):
        run_sim(net, client.call(server.address, PROG, 1, 2, context=ctx))
    assert server.calls_shed == 1


def test_inflight_gauge_tracks_concurrency(net):
    server, client, __ = make_async_stack(net)
    seen = {}

    async def probe():
        await asyncio.sleep(0.005)  # inside the 0.02 s round trip
        seen["mid"] = METRICS.gauge("rpc.async.inflight")

    async def main():
        await asyncio.gather(
            probe(),
            *[client.call(server.address, PROG, 1, 2, {"i": i}) for i in range(10)],
        )

    run_sim(net, main())
    assert seen["mid"] == 10
    assert METRICS.gauge("rpc.async.inflight") == 0


def test_async_client_reaches_sync_server(net):
    """The wire format is shared: a plain program needs nothing async."""
    server = RpcServer(SimTransport(net, "ssrv"))
    program = RpcProgram(PROG + 1, 1, "sync")
    program.register(1, lambda args: {"double": args["x"] * 2})
    server.serve(program)
    client = AsyncRpcClient(SimTransport(net, "acli2"), timeout=1.0, retries=3)
    result = run_sim(net, client.call(server.address, PROG + 1, 1, 1, {"x": 21}))
    assert result["double"] == 42
    snapshot = run_sim(net, client.stats(server.address))
    assert snapshot["server"]["programs"]["sync"]["prog"] == PROG + 1


def test_ambient_context_crosses_tasks(net):
    """A handler's nested call, made while an async caller's task waits,
    inherits trace id and deadline."""
    inner_net = net
    backend = RpcServer(SimTransport(inner_net, "backend"))
    backend_prog = RpcProgram(PROG + 2, 1, "backend")
    traces = []

    def backend_handler(args):
        from repro.context import current_context

        ctx = current_context()
        traces.append(ctx.trace_id if ctx else None)
        return "pong"

    backend_prog.register(1, backend_handler)
    backend.serve(backend_prog)

    front = RpcServer(SimTransport(inner_net, "front"))
    front_prog = RpcProgram(PROG + 3, 1, "front")
    nested_client = RpcClient(
        SimTransport(inner_net, "front-out"), timeout=1.0, retries=3
    )

    def forward(args):
        return nested_client.call(backend.address, PROG + 2, 1, 1)

    front_prog.register(1, forward)
    front.serve(front_prog)

    client = AsyncRpcClient(SimTransport(inner_net, "acli3"), timeout=2.0, retries=3)
    ctx = CallContext(deadline=inner_net.clock.now + 5.0, trace_id="trace-xyz")
    result = run_sim(
        net, client.call(front.address, PROG + 3, 1, 1, context=ctx)
    )
    assert result == "pong"
    assert traces == ["trace-xyz"]
