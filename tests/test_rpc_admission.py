"""Admission control and load shedding: queue properties + server behaviour.

The :class:`~repro.rpc.server.AdmissionQueue` invariants are checked with
hypothesis against a shadow model; server-level tests drive real calls
through a simulated network and assert the SHED protocol semantics
documented in docs/PROTOCOL.md — arrival sheds, dequeue re-checks,
no caching of SHED, duplicate coalescing, and federation degrading a
shed link to a partial result.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.naming.refs import ServiceRef
from repro.net.endpoints import Address
from repro.rpc.errors import RpcError, RpcTimeout, ServerShedding
from repro.rpc.message import ReplyStatus, RpcCall, decode_message
from repro.rpc.server import AdmissionPolicy, AdmissionQueue, RpcProgram, RpcServer
from repro.rpc.transport import SimTransport
from repro.rpc.xdr import encode_value
from repro.sidl.types import DOUBLE, InterfaceType, LONG, OperationType
from repro.telemetry.metrics import METRICS
from repro.trader.federation import TraderLink
from repro.trader.service_types import ServiceType
from repro.trader.trader import ImportRequest, LocalTrader


# -- AdmissionQueue properties ----------------------------------------------

# Small sampled values force deadline ties; None means "no deadline".
deadline_values = st.one_of(
    st.none(),
    st.sampled_from([0.0, 1.0, 2.0]),
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
)


def sort_key(deadline, index):
    return (math.inf if deadline is None else deadline, index)


@settings(max_examples=200, deadline=None)
@given(st.lists(deadline_values, max_size=30))
def test_pop_order_is_the_deadline_arrival_total_order(deadlines):
    queue = AdmissionQueue(capacity=len(deadlines) + 1)
    for index, deadline in enumerate(deadlines):
        assert queue.push(index, deadline) is None  # roomy queue never sheds
    popped = []
    while True:
        item = queue.pop()
        if item is None:
            break
        popped.append(item)
    expected = sorted(
        range(len(deadlines)), key=lambda i: sort_key(deadlines[i], i)
    )
    assert popped == expected
    assert queue.pop() is None  # empty queue keeps returning None


@settings(max_examples=200, deadline=None)
@given(st.lists(deadline_values, max_size=40), st.integers(min_value=1, max_value=8))
def test_every_push_lands_exactly_once_in_shed_or_popped(deadlines, capacity):
    queue = AdmissionQueue(capacity=capacity)
    shed = []
    for index, deadline in enumerate(deadlines):
        loser = queue.push(index, deadline, key=index)
        if loser is not None:
            shed.append(loser)
            assert not queue.pending(loser)  # eviction releases the key
        else:
            assert queue.pending(index)
        assert len(queue) <= capacity  # the bound holds at every step
    popped = []
    while True:
        item = queue.pop()
        if item is None:
            break
        popped.append(item)
        assert not queue.pending(item)  # pop releases the key
    # Conservation: no item is lost, none is both shed and popped.
    assert sorted(shed + popped) == list(range(len(deadlines)))
    assert len(popped) == min(len(deadlines), capacity)


def test_urgent_arrival_displaces_patient_entry():
    queue = AdmissionQueue(capacity=1)
    assert queue.push("patient", 10.0) is None
    assert queue.push("urgent", 1.0) == "patient"
    assert queue.pop() == "urgent"


def test_latest_deadline_arrival_sheds_itself():
    queue = AdmissionQueue(capacity=1)
    assert queue.push("urgent", 1.0) is None
    assert queue.push("patient", 10.0) == "patient"
    assert queue.pop() == "urgent"


def test_no_deadline_sorts_after_any_deadline():
    queue = AdmissionQueue(capacity=4)
    queue.push("lazy", None)
    queue.push("soon", 0.5)
    assert queue.pop() == "soon"
    assert queue.pop() == "lazy"


def test_capacity_must_be_positive():
    with pytest.raises(Exception):
        AdmissionQueue(capacity=0)


# -- server-level shedding ---------------------------------------------------


def serve_slow_program(net, host, service_time, admission, prog=900, name="work"):
    """A server whose handler burns ``service_time`` virtual seconds."""
    transport = SimTransport(net, host)
    server = RpcServer(transport, admission=admission)
    program = RpcProgram(prog, name=name)
    executed = []

    def slow(args):
        executed.append(args)
        transport.wait(lambda: False, service_time)
        return {"done": True}

    program.register(1, slow, "slow")
    server.serve(program)
    return server, executed


def probe_on(net, host="probe"):
    """A raw transport that records decoded replies by xid."""
    transport = SimTransport(net, host)
    replies = {}

    def on_payload(source, payload):
        message = decode_message(payload)
        replies.setdefault(message.xid, []).append(message.status)

    transport.set_receiver(on_payload)
    return transport, replies


def work_call(xid, deadline, prog=900, tag="x"):
    return RpcCall(xid, prog, 1, 1, encode_value({"tag": tag}), deadline=deadline)


def test_estimate_shed_on_tight_budget(net, make_server, make_client):
    server = make_server(admission=AdmissionPolicy(min_samples=3, quantile=0.5))
    program = RpcProgram(901, name="estimated")

    def busy(args):
        server.transport.wait(lambda: False, 0.4)
        return "ok"

    program.register(1, busy, "busy")
    server.serve(program)
    client = make_client()
    for __ in range(3):  # warm the service-time estimate past min_samples
        assert client.call(server.address, 901, 1, 1, None, timeout=2.0, retries=0) == "ok"
    shed_before = METRICS.counter("rpc.server.shed", ("arrival", "estimated", "1"))
    received_before = METRICS.counter("rpc.client.shed_received", ("901", "1"))
    with pytest.raises(ServerShedding):
        client.call(server.address, 901, 1, 1, None, timeout=0.05, retries=0)
    assert server.calls_shed == 1
    assert server.calls_handled == 3  # the shed call never executed
    assert METRICS.counter("rpc.server.shed", ("arrival", "estimated", "1")) == shed_before + 1
    assert METRICS.counter("rpc.client.shed_received", ("901", "1")) == received_before + 1


def test_shed_below_min_samples_never_triggers(net, make_server, make_client):
    server = make_server(admission=AdmissionPolicy(min_samples=50))
    program = RpcProgram(902, name="cold")

    def busy(args):
        server.transport.wait(lambda: False, 0.2)
        return "ok"

    program.register(1, busy, "busy")
    server.serve(program)
    client = make_client()
    assert client.call(server.address, 902, 1, 1, None, timeout=1.0, retries=0) == "ok"
    # A tight budget with no usable estimate is admitted, not shed: the
    # handler runs to completion and the reply simply arrives late.
    with pytest.raises((RpcTimeout, RpcError)):
        client.call(server.address, 902, 1, 1, None, timeout=0.05, retries=0)
    assert server.calls_shed == 0


def test_queued_call_aged_out_is_dropped_before_execution(net):
    policy = AdmissionPolicy(shed=False, defer_while_busy=True)
    server, executed = serve_slow_program(net, "srv", 0.5, policy)
    probe, replies = probe_on(net)
    t0 = net.clock.now
    probe.send(server.address, work_call(1, t0 + 10.0, tag="A").encode())
    call_b = work_call(2, t0 + 0.2, tag="B")
    net.clock.schedule(0.05, lambda: probe.send(server.address, call_b.encode()))
    net.clock.drain()
    assert replies[1] == [ReplyStatus.SUCCESS]
    # B aged out in the queue while A executed: dropped at dequeue, never run.
    assert replies[2] == [ReplyStatus.DEADLINE_EXCEEDED]
    assert [args["tag"] for args in executed] == ["A"]
    assert server.deadlines_rejected == 1


def test_queued_call_whose_budget_shrank_below_the_estimate_is_shed_at_dequeue(net):
    policy = AdmissionPolicy(defer_while_busy=True, min_samples=1, quantile=0.5)
    server, executed = serve_slow_program(net, "srv", 0.5, policy)
    server._service_times.observe("rpc.server.handler_seconds", 0.5, ("work", "1"))
    probe, replies = probe_on(net)
    shed_before = METRICS.counter("rpc.server.shed", ("dequeue", "work", "1"))
    t0 = net.clock.now
    probe.send(server.address, work_call(1, t0 + 10.0, tag="A").encode())
    # B's budget covers the service-time estimate when B arrives, but no
    # longer once A has run.
    call_b = work_call(2, t0 + 0.8, tag="B")
    net.clock.schedule(0.05, lambda: probe.send(server.address, call_b.encode()))
    net.clock.drain()
    assert replies == {1: [ReplyStatus.SUCCESS], 2: [ReplyStatus.SHED]}
    assert [args["tag"] for args in executed] == ["A"]
    assert METRICS.counter("rpc.server.shed", ("dequeue", "work", "1")) == shed_before + 1


def test_queue_overflow_sheds_latest_deadline_entry(net):
    policy = AdmissionPolicy(shed=False, defer_while_busy=True, capacity=1)
    server, executed = serve_slow_program(net, "srv", 0.5, policy)
    probe, replies = probe_on(net)
    shed_before = METRICS.counter("rpc.server.shed", ("queue_full", "work", "1"))
    t0 = net.clock.now
    probe.send(server.address, work_call(1, t0 + 10.0, tag="A").encode())
    call_b = work_call(2, t0 + 5.0, tag="B")
    call_c = work_call(3, t0 + 2.0, tag="C")
    net.clock.schedule(0.05, lambda: probe.send(server.address, call_b.encode()))
    net.clock.schedule(0.10, lambda: probe.send(server.address, call_c.encode()))
    net.clock.drain()
    assert replies[1] == [ReplyStatus.SUCCESS]
    # C's tighter deadline displaced B from the full queue.
    assert replies[2] == [ReplyStatus.SHED]
    assert replies[3] == [ReplyStatus.SUCCESS]
    assert [args["tag"] for args in executed] == ["A", "C"]
    assert server.calls_shed == 1
    assert METRICS.counter("rpc.server.shed", ("queue_full", "work", "1")) == shed_before + 1
    # SHED is not cached: retransmitting B now finds an idle server and runs.
    probe.send(server.address, call_b.encode())
    net.clock.drain()
    assert replies[2] == [ReplyStatus.SHED, ReplyStatus.SUCCESS]
    assert server.duplicates_suppressed == 0


def test_retransmission_of_queued_or_executing_call_is_coalesced(net):
    policy = AdmissionPolicy(shed=False, defer_while_busy=True)
    server, executed = serve_slow_program(net, "srv", 0.5, policy)
    probe, replies = probe_on(net)
    t0 = net.clock.now
    call_a = work_call(1, t0 + 10.0, tag="A")
    call_b = work_call(2, t0 + 10.0, tag="B")
    probe.send(server.address, call_a.encode())
    net.clock.schedule(0.05, lambda: probe.send(server.address, call_b.encode()))
    # Retransmissions while B is queued and while A is executing: no reply
    # for either duplicate — the originals answer once.
    net.clock.schedule(0.10, lambda: probe.send(server.address, call_b.encode()))
    net.clock.schedule(0.20, lambda: probe.send(server.address, call_a.encode()))
    net.clock.drain()
    assert replies[1] == [ReplyStatus.SUCCESS]
    assert replies[2] == [ReplyStatus.SUCCESS]
    assert [args["tag"] for args in executed] == ["A", "B"]
    assert server.duplicates_coalesced == 2


def test_disabled_shedding_burns_wasted_handler_seconds(net):
    policy = AdmissionPolicy(shed=False)
    server, executed = serve_slow_program(net, "srv", 0.5, policy)
    probe, replies = probe_on(net)
    wasted_before = METRICS.counter("rpc.server.wasted_handler_seconds", ("work", "1"))
    missed_before = METRICS.counter("rpc.server.missed_deadline_executions", ("work", "1"))
    t0 = net.clock.now
    probe.send(server.address, work_call(1, t0 + 0.1).encode())
    net.clock.drain()
    # Admitted (deadline was live on arrival), but the handler outlived it:
    # the reply still goes out and the waste is accounted.
    assert replies[1] == [ReplyStatus.SUCCESS]
    assert len(executed) == 1
    wasted = METRICS.counter("rpc.server.wasted_handler_seconds", ("work", "1"))
    assert wasted >= wasted_before + 0.5
    assert (
        METRICS.counter("rpc.server.missed_deadline_executions", ("work", "1"))
        == missed_before + 1
    )


def test_queue_depth_gauge_tracks_admissions(net):
    policy = AdmissionPolicy(shed=False, defer_while_busy=True)
    server, __ = serve_slow_program(net, "depth-host", 0.5, policy)
    probe, replies = probe_on(net)
    label = (f"{server.address.host}:{server.address.port}",)
    depths = []
    t0 = net.clock.now
    probe.send(server.address, work_call(1, t0 + 10.0).encode())
    for offset, xid in ((0.05, 2), (0.10, 3)):
        call = work_call(xid, t0 + 10.0, tag=str(xid))
        net.clock.schedule(offset, lambda c=call: probe.send(server.address, c.encode()))
    net.clock.schedule(
        0.15, lambda: depths.append(METRICS.gauge("rpc.server.queue_depth", label))
    )
    net.clock.drain()
    assert depths == [2.0]  # two parked behind the executing call
    assert METRICS.gauge("rpc.server.queue_depth", label) == 0.0  # drained


# -- shed errors and federation degradation ---------------------------------


def test_shed_error_is_retryable_and_not_a_timeout():
    assert issubclass(ServerShedding, RpcError)
    assert not issubclass(ServerShedding, RpcTimeout)
    assert ServerShedding.retryable is True


def rental_type():
    return ServiceType(
        "CarRentalService",
        InterfaceType("I", [OperationType("SelectCar", [], LONG)]),
        [("ChargePerDay", DOUBLE)],
    )


def make_trader(trader_id, *offer_specs, **options):
    trader = LocalTrader(trader_id, **options)
    trader.add_type(rental_type())
    for name, charge in offer_specs:
        trader.export(
            "CarRentalService",
            ServiceRef.create(name, Address(trader_id, 1), 4711),
            {"ChargePerDay": charge},
        )
    return trader


def shedding_forwarder(request_wire, ctx=None):
    raise ServerShedding("peer overloaded")


def test_serial_federation_shed_link_degrades_to_partial():
    hamburg = make_trader("hamburg", ("hh-1", 80.0))
    hamburg.link(TraderLink("bremen", shedding_forwarder))
    before = METRICS.counter("federation.link", ("bremen", "shed"))
    offers = hamburg.import_(ImportRequest("CarRentalService", hop_limit=1))
    assert [offer.service_ref().name for offer in offers] == ["hh-1"]
    assert METRICS.counter("federation.link", ("bremen", "shed")) == before + 1


def test_fanout_federation_shed_link_keeps_other_links_results():
    hamburg = make_trader("hamburg", ("hh-1", 80.0))
    bremen = make_trader("bremen", ("hb-1", 70.0))
    hamburg.link_local(bremen)
    hamburg.link(TraderLink("kiel", shedding_forwarder))
    before = METRICS.counter("federation.link", ("kiel", "shed"))
    offers = hamburg.import_(ImportRequest("CarRentalService", hop_limit=1))
    assert sorted(offer.service_ref().name for offer in offers) == ["hb-1", "hh-1"]
    assert METRICS.counter("federation.link", ("kiel", "shed")) == before + 1
