"""Client call batching: BatchBuffer watermarks, call_many semantics,
reply coalescing, and mixed-version interop.

The BATCH envelope is nothing but self-delimiting messages laid
back-to-back, so correctness splits cleanly: the buffer decides *when*
frames leave (watermarks, linger leadership), ``call_many`` decides
*what the caller sees* (ordered outcomes, typed error instances), and
the server side proves replies coalesce without ever deadlocking a
reentrant topology.
"""

import pytest

from repro.net import SimNetwork
from repro.net.latency import FixedLatency
from repro.rpc import RpcProgram, RpcServer
from repro.rpc.client import BatchBuffer, BatchingClient, RpcClient
from repro.rpc.errors import ProgramUnavailable, RemoteFault
from repro.rpc.transport import SimTransport
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


def make_batching(net, host="bcli", **options):
    options.setdefault("timeout", 1.0)
    options.setdefault("retries", 2)
    return BatchingClient(SimTransport(net, host), **options)


# -- BatchBuffer watermarks --------------------------------------------------


DEST = ("peer", 9)


def test_count_watermark_flushes():
    buffer = BatchBuffer(max_batch=3)
    assert buffer.add(DEST, b"a", None, 0.0) == ("lead", 0)
    assert buffer.add(DEST, b"b", None, 0.0) == ("wait", None)
    action, payloads = buffer.add(DEST, b"c", None, 0.0)
    assert action == "flush"
    assert payloads == [b"a", b"b", b"c"]


def test_bytes_watermark_flushes():
    buffer = BatchBuffer(max_batch=100, max_bytes=8)
    buffer.add(DEST, b"aaaa", None, 0.0)
    action, payloads = buffer.add(DEST, b"bbbb", None, 0.0)
    assert action == "flush"
    assert payloads == [b"aaaa", b"bbbb"]


def test_deadline_slack_watermark_flushes():
    """A staged call about to run out of budget cuts the linger short."""
    buffer = BatchBuffer(max_batch=100, flush_slack=0.005)
    buffer.add(DEST, b"a", deadline=10.0, now=0.0)
    action, payloads = buffer.add(DEST, b"b", deadline=9.999, now=9.996)
    assert action == "flush"
    assert payloads == [b"a", b"b"]


def test_generation_guards_double_take():
    """A leader whose batch a watermark already flushed takes nothing."""
    buffer = BatchBuffer(max_batch=2)
    action, generation = buffer.add(DEST, b"a", None, 0.0)
    assert action == "lead"
    buffer.add(DEST, b"b", None, 0.0)  # trips the watermark, flushes
    assert buffer.flushed(DEST, generation)
    assert buffer.take(DEST, generation) == []


def test_take_claims_own_generation():
    buffer = BatchBuffer(max_batch=10)
    action, generation = buffer.add(DEST, b"a", None, 0.0)
    assert not buffer.flushed(DEST, generation)
    assert buffer.take(DEST, generation) == [b"a"]
    # a fresh leader starts the next generation
    assert buffer.add(DEST, b"z", None, 0.0) == ("lead", generation + 1)


def test_destinations_stage_independently():
    buffer = BatchBuffer(max_batch=2)
    other = ("elsewhere", 1)
    buffer.add(DEST, b"a", None, 0.0)
    assert buffer.add(other, b"x", None, 0.0) == ("lead", 0)
    action, payloads = buffer.add(DEST, b"b", None, 0.0)
    assert (action, payloads) == ("flush", [b"a", b"b"])


# -- sync call_many ----------------------------------------------------------


def test_call_many_outcomes_in_order(net, server):
    client = make_batching(net, max_batch=4)
    request = [(PROG, 1, 1, {"n": index}) for index in range(10)]
    outcomes = client.call_many(server.address, request)
    assert [item["echo"]["n"] for item in outcomes] == list(range(10))
    # 10 calls at watermark 4 → 3 BATCH writes, not 10.
    assert client.batches_sent == 3


def test_call_many_mixes_results_and_typed_errors(net, server):
    client = make_batching(net)
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
    assert make_batching(net).call_many(server.address, []) == []


def test_call_many_at_most_once_under_retransmission(net, server):
    """Batched xids obey the same at-most-once regime as lone calls."""
    client = make_batching(net, timeout=2.0, retries=3)
    outcomes = client.call_many(
        server.address, [(PROG, 1, 1, {"i": i}) for i in range(6)]
    )
    assert all(not isinstance(item, Exception) for item in outcomes)
    assert server.duplicates_suppressed == 0
    assert server.duplicates_coalesced == 0


def test_transparent_linger_coalesces_lone_call(net, server):
    """With linger on, a lone call still leaves (leader flushes itself)."""
    client = make_batching(net, linger=0.05)
    result = client.call(server.address, PROG, 1, 1, {"solo": 1})
    assert result["echo"] == {"solo": 1}
    assert client.batches_sent == 1


def test_linger_zero_bypasses_the_buffer(net, server):
    client = make_batching(net, linger=0.0)
    result = client.call(server.address, PROG, 1, 1, {"solo": 1})
    assert result["echo"] == {"solo": 1}
    assert client.batches_sent == 0  # plain single-frame write


# -- server-side reply coalescing -------------------------------------------


def test_sync_server_coalesces_batch_replies(net, server):
    before = METRICS.histogram("rpc.server.batch_replies")
    count_before = before["count"] if before else 0
    client = make_batching(net, max_batch=8)
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

    client = make_batching(net, max_batch=4)
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
        client = make_batching(net, max_batch=4)
        outcomes = client.call_many(
            server.address, [(PROG, 1, 1, {"i": i}) for i in range(5)]
        )
        assert [item["echo"]["i"] for item in outcomes] == list(range(5))
    finally:
        server.handle_batch = original
        assert dispatcher.server is server
