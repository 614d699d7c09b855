"""Tests for the split-phase pair: several calls in flight on one RpcClient.

``start`` prepares a call and returns its handle; ``gather`` sends the
due handles and waits in virtual time until they are settled,
retransmitting each xid on its own timer; ``retire`` drops the ones
nobody waits for.
"""

import pytest

from repro.context import CallContext, RetryPolicy, current_context
from repro.net import SimNetwork
from repro.net.latency import FixedLatency
from repro.rpc.client import RpcClient
from repro.rpc.errors import (
    DeadlineExceeded,
    ProgramUnavailable,
    RemoteFault,
    RpcTimeout,
    ServerShedding,
)
from repro.rpc.server import AdmissionPolicy, RpcProgram, RpcServer
from repro.rpc.transport import SimTransport

PROG = 661000


@pytest.fixture
def net():
    return SimNetwork(seed=1994, latency=FixedLatency(0.01))


def pair_stack(net, **server_options):
    server = RpcServer(SimTransport(net, "srv"), **server_options)
    program = RpcProgram(PROG, 1, "pair")
    calls = {"count": 0}

    def echo(args):
        calls["count"] += 1
        return {"echo": args, "n": calls["count"]}

    def boom(args):
        raise ValueError("kaput")

    program.register(1, echo, "echo")
    program.register(2, boom, "boom")
    server.serve(program)
    client = RpcClient(SimTransport(net, "pair"), timeout=0.2, retries=3)
    return server, client, calls


def settle_one(client, call):
    client.gather([call])
    assert client._awaited == set() and client._pending == {}
    return call


def test_async_call_roundtrip_on_sim(net):
    server, client, __ = pair_stack(net)
    call = client.start(server.address, PROG, 1, 1, {"x": 1})
    assert not call.done
    settle_one(client, call)
    assert call.result()["echo"] == {"x": 1}
    assert net.clock.now == pytest.approx(0.02)


def test_concurrent_calls_overlap_in_virtual_time(net):
    server, client, calls = pair_stack(net)
    started = net.clock.now
    pending = [client.start(server.address, PROG, 1, 1, {"i": i}) for i in range(50)]
    client.gather(pending)
    # Serial calls would take 50 round trips: 1 virtual second.
    assert net.clock.now - started == pytest.approx(0.02)
    assert [call.result()["echo"] for call in pending] == [{"i": i} for i in range(50)]
    assert calls["count"] == 50 and client.calls_sent == 50


def test_retransmission_survives_drops(net):
    server, client, calls = pair_stack(net)
    net.faults.drop_probability = 0.6
    ctx = CallContext(
        deadline=net.clock.now + 10.0,
        retry=RetryPolicy(retries=40, attempt_timeout=0.05),
    )
    pending = [
        client.start(server.address, PROG, 1, 1, {"x": i}, context=ctx)
        for i in range(5)
    ]
    client.gather(pending)
    assert [call.result()["echo"]["x"] for call in pending] == [0, 1, 2, 3, 4]
    assert client.retransmissions > 0
    # At-most-once: retransmissions reuse their xid, so nothing re-ran.
    assert calls["count"] == 5
    events = [event["name"] for call in pending for event in call.span.events]
    assert events.count("rpc.client.retransmissions") == client.retransmissions


def test_gather_needed_leaves_the_rest_live_until_retired(net):
    server, client, __ = pair_stack(net)
    ghost = SimTransport(net, "ghost").local_address
    answered = client.start(server.address, PROG, 1, 1, "here")
    silent = client.start(ghost, PROG, 1, 1, "nobody")
    client.gather([answered, silent], needed=1)
    assert answered.done and answered.result()["echo"] == "here"
    assert not silent.done and silent.xid in client._awaited
    client.retire([answered, silent])
    assert silent.done and silent.reply is None and silent.error is None
    assert silent.span.outcome == "retired"
    assert silent.xid not in client._awaited


def test_remote_fault_surfaces(net):
    server, client, __ = pair_stack(net)
    call = settle_one(client, client.start(server.address, PROG, 1, 2))
    with pytest.raises(RemoteFault, match="kaput"):
        call.result()


def test_unknown_program_raises(net):
    server, client, __ = pair_stack(net)
    call = settle_one(client, client.start(server.address, PROG + 99, 1, 1))
    with pytest.raises(ProgramUnavailable):
        call.result()


def test_timeout_when_unreachable(net):
    __, client, __c = pair_stack(net)
    ghost = SimTransport(net, "ghost").local_address
    call = settle_one(client, client.start(ghost, PROG, 1, 1))
    assert isinstance(call.error, RpcTimeout)
    assert call.span.outcome == "RpcTimeout"
    with pytest.raises(RpcTimeout):
        call.result()


def test_deadline_expired_before_send(net):
    server, client, __ = pair_stack(net)
    ctx = CallContext(deadline=net.clock.now - 1.0)
    call = client.start(server.address, PROG, 1, 1, context=ctx)
    assert call.done and isinstance(call.error, DeadlineExceeded)
    assert client.calls_sent == 0
    client.gather([call])  # nothing left to wait for
    assert [span.outcome for span in ctx.spans] == ["DeadlineExceeded"]


def test_shed_surfaces_as_server_shedding(net):
    server, client, __ = pair_stack(
        net, admission=AdmissionPolicy(min_samples=1, quantile=0.5)
    )
    # Teach the estimator that proc 1 takes 2 virtual seconds.
    server._service_times.observe("rpc.server.handler_seconds", 2.0, ("pair", "1"))
    ctx = CallContext(deadline=net.clock.now + 0.5)
    call = settle_one(client, client.start(server.address, PROG, 1, 1, context=ctx))
    with pytest.raises(ServerShedding):
        call.result()
    assert server.calls_shed == 1


def test_started_call_inherits_the_ambient_context(net):
    """A call started inside a handler carries the caller's trace and
    deadline to the next server."""
    backend = RpcServer(SimTransport(net, "backend"))
    backend_prog = RpcProgram(PROG + 30, 1, "backend")
    seen = []

    def backend_handler(args):
        seen.append(current_context())
        return "pong"

    backend_prog.register(1, backend_handler)
    backend.serve(backend_prog)
    front = RpcServer(SimTransport(net, "front"))
    front_prog = RpcProgram(PROG + 31, 1, "front")
    forwarder = RpcClient(SimTransport(net, "front-out"), timeout=1.0, retries=3)

    def forward(args):
        call = forwarder.start(backend.address, PROG + 30, 1, 1)
        forwarder.gather([call])
        return call.result()

    front_prog.register(1, forward)
    front.serve(front_prog)
    client = RpcClient(SimTransport(net, "edge"), timeout=2.0, retries=3)
    ctx = CallContext(deadline=net.clock.now + 5.0, trace_id="trace-xyz")
    assert client.call(front.address, PROG + 31, 1, 1, context=ctx) == "pong"
    (inner,) = seen
    assert inner.trace_id == "trace-xyz" and inner.deadline <= ctx.deadline
