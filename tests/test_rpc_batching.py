"""Call batching: BATCH envelopes from ``gather``, ``call_many``
semantics, reply coalescing, and mixed-version interop.

The BATCH envelope is nothing but self-delimiting messages laid
back-to-back, so correctness splits cleanly: ``gather`` decides *how*
frames leave (one envelope per destination per round, cut at
``BATCH_FRAMES`` frames or ``BATCH_BYTES`` bytes), ``call_many`` decides
*what the caller sees* (ordered outcomes, typed error instances), and
the server side proves replies coalesce without ever deadlocking a
reentrant topology.  The envelope tests count the writes a transport
sees.
"""

import pytest

from repro.errors import CommunicationError
from repro.net import SimNetwork
from repro.net.endpoints import Address
from repro.net.latency import FixedLatency
from repro.rpc import RpcProgram, RpcServer
from repro.rpc.client import BATCH_BYTES, BATCH_FRAMES, RpcClient
from repro.rpc.errors import ProgramUnavailable, RemoteFault, RpcTimeout
from repro.rpc.message import decode_messages
from repro.rpc.transport import SimTransport, TcpTransport
from repro.telemetry.metrics import METRICS

PROG = 771000


@pytest.fixture
def net():
    return SimNetwork(seed=1994, latency=FixedLatency(0.01))


def echo_program():
    program = RpcProgram(PROG, 1, "batch-echo")
    program.register(1, lambda args: {"echo": args}, "echo")

    def boom(args):
        raise ValueError("kaput")

    program.register(2, boom, "boom")
    return program


@pytest.fixture
def server(net):
    server = RpcServer(SimTransport(net, "bsrv"))
    server.serve(echo_program())
    return server


class CountingTransport(SimTransport):
    """A simulated transport that logs each write: (destination, frames)."""

    def __init__(self, network, host):
        super().__init__(network, host)
        self.writes = []

    def send(self, destination, payload):
        self.writes.append((destination, len(decode_messages(payload))))
        super().send(destination, payload)


def make_client(net, host="bcli", **options):
    options.setdefault("timeout", 1.0)
    options.setdefault("retries", 2)
    return RpcClient(CountingTransport(net, host), **options)


# -- envelopes ----------------------------------------------------------------


def test_started_calls_to_one_destination_leave_as_one_write(net, server):
    client = make_client(net)
    calls = [client.start(server.address, PROG, 1, 1, {"i": i}) for i in range(3)]
    assert client.transport.writes == []  # start only prepares
    client.gather(calls)
    assert client.transport.writes == [(server.address, 3)]
    assert [call.result()["echo"]["i"] for call in calls] == [0, 1, 2]
    assert client.batches_sent == 1


def test_destinations_stage_independently(net, server):
    """Calls to two destinations leave as two writes, one per destination."""
    other = RpcServer(SimTransport(net, "bsrv2"))
    other.serve(echo_program())
    client = make_client(net)
    calls = [
        client.start(address, PROG, 1, 1, {"i": i})
        for i, address in enumerate([server.address, other.address] * 2)
    ]
    client.gather(calls)
    assert client.transport.writes == [(server.address, 2), (other.address, 2)]
    assert all(call.reply is not None for call in calls)


def test_count_watermark_flushes(net, server):
    """17 calls leave as two envelopes: BATCH_FRAMES frames, then one."""
    assert BATCH_FRAMES == 16
    client = make_client(net)
    outcomes = client.call_many(
        server.address, [(PROG, 1, 1, {"i": i}) for i in range(17)]
    )
    assert [item["echo"]["i"] for item in outcomes] == list(range(17))
    assert client.transport.writes == [(server.address, 16), (server.address, 1)]
    assert client.batches_sent == 1  # the lone 17th is a plain frame


def test_bytes_watermark_flushes(net, server):
    """An envelope is cut before it would pass BATCH_BYTES."""
    client = make_client(net)
    bulky = "x" * (BATCH_BYTES // 3)
    outcomes = client.call_many(
        server.address, [(PROG, 1, 1, {"blob": bulky})] * 3
    )
    assert all(item["echo"]["blob"] == bulky for item in outcomes)
    assert client.transport.writes == [(server.address, 2), (server.address, 1)]


def test_lone_call_is_a_plain_frame(net, server):
    client = make_client(net)
    result = client.call(server.address, PROG, 1, 1, {"solo": 1})
    assert result["echo"] == {"solo": 1}
    assert client.transport.writes == [(server.address, 1)]
    assert client.batches_sent == 0  # plain single-frame write


def test_retransmission_round_is_one_write(net):
    """Three unanswered calls to one destination: each round re-sends
    them as one envelope, and every call keeps its own retransmission
    event and its own RpcTimeout."""
    ghost = Address("ghost", 9)
    client = make_client(net, timeout=0.1, retries=1)
    calls = [client.start(ghost, PROG, 1, 1, {"i": i}) for i in range(3)]
    client.gather(calls)
    assert client.transport.writes == [(ghost, 3), (ghost, 3)]
    assert client.retransmissions == 3 and client.calls_sent == 6
    for call in calls:
        assert isinstance(call.error, RpcTimeout)
        events = [event["name"] for event in call.span.events]
        assert events == ["rpc.client.retransmissions"]


def test_refused_connect_settles_the_whole_envelope():
    """A refused TCP connect fails the one write; every call in the
    envelope settles with the typed transient error."""
    refused = TcpTransport()
    refused.close()
    transport = TcpTransport()
    try:
        client = RpcClient(transport, timeout=2.0, retries=0)
        calls = [
            client.start(refused.local_address, PROG, 1, 1, {"i": i})
            for i in range(3)
        ]
        client.gather(calls)
        errors = {id(call.error) for call in calls}
        assert len(errors) == 1  # one failed write, one error, three calls
        assert all(isinstance(call.error, CommunicationError) for call in calls)
        assert client.calls_sent == 3 and client.retransmissions == 0
    finally:
        transport.close()


def test_gather_needed_zero_sends_without_waiting(net, server):
    client = make_client(net)
    calls = [client.start(server.address, PROG, 1, 1, {"i": i}) for i in range(3)]
    started_at = client.transport.now()
    client.gather(calls, needed=0)
    assert client.transport.writes == [(server.address, 3)]
    assert client.transport.now() == started_at  # no virtual time passed
    assert not any(call.done for call in calls)
    client.gather(calls)  # the calls already on the wire are not re-sent
    assert client.transport.writes == [(server.address, 3)]
    assert all(call.reply is not None for call in calls)


# -- call_many ----------------------------------------------------------------


def test_call_many_outcomes_in_order(net, server):
    client = make_client(net)
    request = [(PROG, 1, 1, {"n": index}) for index in range(10)]
    outcomes = client.call_many(server.address, request)
    assert [item["echo"]["n"] for item in outcomes] == list(range(10))
    # 10 calls → one BATCH write, not 10.
    assert client.batches_sent == 1
    assert client.transport.writes == [(server.address, 10)]


def test_call_many_mixes_results_and_typed_errors(net, server):
    client = make_client(net)
    outcomes = client.call_many(
        server.address,
        [
            (PROG, 1, 1, {"ok": True}),
            (PROG, 1, 2, {}),  # handler raises -> RemoteFault
            (PROG + 1, 1, 1, {}),  # unknown program
            (PROG, 1, 1, {"also": "fine"}),
        ],
    )
    assert outcomes[0]["echo"] == {"ok": True}
    assert isinstance(outcomes[1], RemoteFault)
    assert isinstance(outcomes[2], ProgramUnavailable)
    assert outcomes[3]["echo"] == {"also": "fine"}


def test_call_many_empty_is_empty(net, server):
    client = make_client(net)
    assert client.call_many(server.address, []) == []
    assert client.transport.writes == []


def test_call_many_unanswered_calls_time_out_like_single_calls(net):
    client = make_client(net, timeout=0.1, retries=1)
    outcomes = client.call_many(Address("ghost", 9), [(PROG, 1, 1, {})] * 2)
    assert all(isinstance(item, RpcTimeout) for item in outcomes)
    with pytest.raises(RpcTimeout):
        client.call(Address("ghost", 9), PROG, 1, 1, {}, timeout=0.1, retries=1)


def test_call_many_at_most_once_under_retransmission(net, server):
    """Batched xids obey the same at-most-once regime as lone calls."""
    client = make_client(net, timeout=2.0, retries=3)
    outcomes = client.call_many(
        server.address, [(PROG, 1, 1, {"i": i}) for i in range(6)]
    )
    assert all(not isinstance(item, Exception) for item in outcomes)
    assert server.duplicates_suppressed == 0
    assert server.duplicates_coalesced == 0


# -- server-side reply coalescing -------------------------------------------


def test_sync_server_coalesces_batch_replies(net, server):
    before = METRICS.histogram("rpc.server.batch_replies")
    count_before = before["count"] if before else 0
    client = make_client(net)
    outcomes = client.call_many(
        server.address, [(PROG, 1, 1, {"i": i}) for i in range(8)]
    )
    assert len(outcomes) == 8
    after = METRICS.histogram("rpc.server.batch_replies")
    assert after["count"] == count_before + 1  # one coalesced reply write
    assert after["max"] >= 8.0


def test_reentrant_nested_call_is_not_deadlocked_by_reply_buffering(net):
    """A handler that calls back into its own server mid-batch must see
    the nested reply immediately — only replies owed to the open batch
    payload may be buffered (the cyclic-federation liveness rule)."""
    server = RpcServer(SimTransport(net, "reentrant"))
    inner_client = RpcClient(SimTransport(net, "inner"), timeout=1.0, retries=2)

    program = RpcProgram(PROG, 1, "nested")
    program.register(1, lambda args: {"leaf": args["n"]}, "leaf")

    def outer(args):
        nested = inner_client.call(server.address, PROG, 1, 1, {"n": args["n"]})
        return {"outer": nested["leaf"]}

    program.register(2, outer, "outer")
    server.serve(program)

    client = make_client(net)
    outcomes = client.call_many(
        server.address, [(PROG, 1, 2, {"n": i}) for i in range(3)]
    )
    assert [item["outer"] for item in outcomes] == [0, 1, 2]


# -- mixed-version interop ---------------------------------------------------


def test_plain_client_unaffected_by_batching_server_side(net, server):
    """Old peer → new server: single CALL frames still serve."""
    plain = RpcClient(SimTransport(net, "plain"), timeout=1.0, retries=2)
    assert plain.call(server.address, PROG, 1, 1, {"v": 0})["echo"] == {"v": 0}


def test_batching_client_against_pre_batch_handler_path(net, server):
    """New peer → old server: a BATCH payload is nothing but valid
    back-to-back CALL frames, so a server that only ever understood
    single frames (handle_call) still answers every one."""
    # Simulate the old peer by downgrading the dispatcher's batch entry
    # point to per-call dispatch.
    from repro.rpc.dispatch import dispatcher_for

    dispatcher = dispatcher_for(server.transport)
    original = server.handle_batch
    server.handle_batch = lambda source, calls: [
        server.handle_call(source, call) for call in calls
    ]
    try:
        client = make_client(net)
        outcomes = client.call_many(
            server.address, [(PROG, 1, 1, {"i": i}) for i in range(5)]
        )
        assert [item["echo"]["i"] for item in outcomes] == list(range(5))
    finally:
        server.handle_batch = original
        assert dispatcher.server is server
