"""Tests for RPC dispatch, retransmission, and at-most-once semantics."""

import gc
import tracemalloc
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.net import SimNetwork
from repro.net.endpoints import Address
from repro.rpc.client import RpcClient
from repro.rpc.errors import (
    ProcedureUnavailable,
    ProgramUnavailable,
    RemoteFault,
    RpcTimeout,
)
from repro.rpc.message import ReplyStatus, RpcCall, RpcReply, decode_messages
from repro.rpc.server import (
    _ENTRY_OVERHEAD,
    _SMALL_REPLY,
    REPLY_CACHE_BYTES,
    ReplyCache,
    RpcProgram,
    RpcServer,
)
from repro.rpc.transport import SimTransport
from repro.rpc.xdr import encode_value

PROG = 555000


def make_stack(net, at_most_once=True):
    server = RpcServer(SimTransport(net, "srv"), at_most_once=at_most_once)
    program = RpcProgram(PROG, 1, "test")
    calls = {"count": 0}

    def echo(args):
        calls["count"] += 1
        return {"echo": args, "n": calls["count"]}

    def boom(args):
        raise ValueError("kaput")

    program.register(1, echo, "echo")
    program.register(2, boom, "boom")
    server.serve(program)
    client = RpcClient(SimTransport(net, "cli"), timeout=0.05, retries=5)
    return server, program, client, calls


def test_successful_call_decodes_result(net):
    server, __, client, __calls = make_stack(net)
    result = client.call(server.address, PROG, 1, 1, {"x": 1})
    assert result["echo"] == {"x": 1}


def test_null_procedure_always_available(net):
    server, __, client, __calls = make_stack(net)
    assert client.call(server.address, PROG, 1, 0) is None
    assert client.ping(server.address, PROG)


def test_explicit_null_proc_can_be_overridden(net):
    server = RpcServer(SimTransport(net, "srv2"))
    program = RpcProgram(PROG + 1, 1)
    program.register(0, lambda args: "custom-null")
    server.serve(program)
    client = RpcClient(SimTransport(net, "cli2"))
    assert client.call(server.address, PROG + 1, 1, 0) == "custom-null"


def test_unknown_program_raises(net):
    server, __, client, __calls = make_stack(net)
    with pytest.raises(ProgramUnavailable):
        client.call(server.address, 999999, 1, 1)


def test_unknown_version_raises(net):
    server, __, client, __calls = make_stack(net)
    with pytest.raises(ProgramUnavailable):
        client.call(server.address, PROG, 2, 1)


def test_unknown_procedure_raises(net):
    server, __, client, __calls = make_stack(net)
    with pytest.raises(ProcedureUnavailable):
        client.call(server.address, PROG, 1, 42)


def test_remote_exception_surfaces_as_fault(net):
    server, __, client, __calls = make_stack(net)
    with pytest.raises(RemoteFault) as excinfo:
        client.call(server.address, PROG, 1, 2)
    assert excinfo.value.kind == "ValueError"
    assert "kaput" in excinfo.value.detail


def test_garbage_arguments_status(net):
    server, __, client, __calls = make_stack(net)
    reply = client.call_raw(server.address, PROG, 1, 1, b"\xff\xff\xff\xff")
    from repro.rpc.message import ReplyStatus

    assert reply.status is ReplyStatus.GARBAGE_ARGS


def test_unmarshallable_result_becomes_fault(net):
    server = RpcServer(SimTransport(net, "srv3"))
    program = RpcProgram(PROG + 2, 1)
    program.register(1, lambda args: object())
    server.serve(program)
    client = RpcClient(SimTransport(net, "cli3"))
    with pytest.raises(RemoteFault) as excinfo:
        client.call(server.address, PROG + 2, 1, 1)
    assert excinfo.value.kind == "XdrError"


def test_awaitable_handler_result_is_a_typed_fault(net):
    """An ``async def`` handler is never run: its coroutine is closed
    unawaited (no "never awaited" warning) and the call is answered
    ``REMOTE_FAULT(AwaitableResult)``; the next call is answered."""
    server = RpcServer(SimTransport(net, "srv5"))
    program = RpcProgram(PROG + 5, 1)
    ran = []

    async def coroutine_handler(args):
        ran.append(args)
        return {"ready": args}

    program.register(1, coroutine_handler)
    program.register(2, lambda args: {"plain": args})
    server.serve(program)
    client = RpcClient(SimTransport(net, "cli5"))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(RemoteFault) as excinfo:
            client.call(server.address, PROG + 5, 1, 1, 7)
        gc.collect()
    assert excinfo.value.kind == "AwaitableResult"
    assert ran == []
    assert client.call(server.address, PROG + 5, 1, 2, 8) == {"plain": 8}


def test_reply_bodies_from_a_foreign_peer_surface_typed(net, rogue_peer):
    """A REMOTE_FAULT body that is not ``{kind, detail}`` is still a
    RemoteFault; a SUCCESS body that does not decode is the XdrError."""
    from repro.rpc.errors import XdrError
    from repro.rpc.message import ReplyStatus
    from repro.rpc.xdr import encode_value
    from tests.conftest import BAD_UTF8_VALUE

    client = RpcClient(SimTransport(net, "cli4"))
    odd_fault = rogue_peer("odd-fault", ReplyStatus.REMOTE_FAULT, encode_value([1, 2]))
    with pytest.raises(RemoteFault) as excinfo:
        client.call(odd_fault, PROG, 1, 1)
    assert (excinfo.value.kind, excinfo.value.detail) == ("Error", "[1, 2]")
    garbled = rogue_peer("garbled", ReplyStatus.SUCCESS, BAD_UTF8_VALUE)
    with pytest.raises(XdrError, match="invalid UTF-8"):
        client.call(garbled, PROG, 1, 1)


def test_timeout_when_server_absent(net):
    client = RpcClient(SimTransport(net, "lonely"), timeout=0.01, retries=2)
    from repro.net.endpoints import Address

    with pytest.raises(RpcTimeout):
        client.call(Address("nowhere", 1), PROG, 1, 1)
    assert client.retransmissions == 2


def test_retransmission_succeeds_under_loss(net):
    server, __, client, calls = make_stack(net)
    net.faults.drop_probability = 0.4
    for i in range(30):
        assert client.call(server.address, PROG, 1, 1, i, retries=25)["echo"] == i
    assert client.retransmissions > 0


def test_at_most_once_suppresses_duplicate_execution(net):
    server, __, client, calls = make_stack(net)
    # Drop *replies only*: requests reach the server, replies vanish, the
    # client retransmits, and the dedup cache must answer from memory.
    original_should_drop = net.faults.should_drop

    def drop_replies(datagram, rng):
        if datagram.source.host == "srv":
            drop_replies.budget -= 1
            if drop_replies.budget >= 0:
                return True
        return original_should_drop(datagram, rng)

    drop_replies.budget = 2
    net.faults.should_drop = drop_replies
    result = client.call(server.address, PROG, 1, 1, "once")
    assert result["n"] == 1
    assert calls["count"] == 1
    assert server.duplicates_suppressed == 2


def test_without_at_most_once_duplicates_reexecute(net):
    server, __, client, calls = make_stack(net, at_most_once=False)
    original_should_drop = net.faults.should_drop

    def drop_replies(datagram, rng):
        if datagram.source.host == "srv":
            drop_replies.budget -= 1
            if drop_replies.budget >= 0:
                return True
        return original_should_drop(datagram, rng)

    drop_replies.budget = 2
    net.faults.should_drop = drop_replies
    client.call(server.address, PROG, 1, 1, "again")
    assert calls["count"] == 3  # executed once per (re)transmission


def test_reply_cache_bounded(net):
    """The bound is in bytes: each entry costs its payload plus overhead,
    and small replies get half of it."""
    charge = len(RpcReply(0, ReplyStatus.SUCCESS, encode_value(0)).encode()) + _ENTRY_OVERHEAD
    server = RpcServer(SimTransport(net, "srv4"))
    server._reply_cache = ReplyCache(2 * 4 * charge)
    program = RpcProgram(PROG + 3, 1)
    program.register(1, lambda args: args)
    server.serve(program)
    client = RpcClient(SimTransport(net, "cli4"))
    for i in range(10):
        client.call(server.address, PROG + 3, 1, 1, i)
    cache = server._reply_cache
    assert (len(cache), cache.charged, cache.evicted) == (4, 4 * charge, 6)


def test_small_replies_outlive_a_run_of_large_ones():
    """At the default bound the last 2 048 replies of at most 768 B stay
    cached, however many large replies pass between them."""
    peer = Address("10.0.0.1", 40000)
    ack, answer = b"a" * _SMALL_REPLY, b"i" * 100_000
    cache = ReplyCache(REPLY_CACHE_BYTES)
    cache.put((peer, 0), ack)
    for xid in range(1, 1001):
        cache.put((peer, xid), answer)
    assert cache.get((peer, 0)) == ack
    assert (len(cache), cache.evicted) == (1 + 20, 980)
    for xid in range(1001, 1001 + 2047):
        cache.put((peer, xid), ack)
    assert cache.get((peer, 0)) == ack
    cache.put((peer, 3048), ack)
    assert cache.get((peer, 0)) is None


# -- the at-most-once window under arbitrary reply sizes ----------------------

WINDOW = 4096  # bytes: 2 KiB for small replies, 2 KiB for large ones
reply_sizes = st.one_of(
    st.just(0),
    st.integers(1, 16),
    st.integers(17, 1600),  # small and large replies
    st.integers(WINDOW // 2, WINDOW),  # larger than its queue's bound alone
)


class _RawPeer:
    """Sends CALL frames with chosen xids and keeps every reply payload."""

    def __init__(self, net, host):
        self.transport = SimTransport(net, host)
        self.payloads = []
        self.transport.set_receiver(lambda source, payload: self.payloads.append(payload))

    def frames(self, destination, calls, run):
        """Send ``calls`` as one payload; the reply frames keyed by xid."""
        self.payloads.clear()
        self.transport.send(destination, b"".join(call.encode() for call in calls))
        run()
        replies = {}
        for payload in self.payloads:
            for message in decode_messages(payload):
                # Cut the raw frame out of the payload rather than trusting
                # a re-encode: the contract is byte identity.
                size = len(message.encode())
                replies[message.xid], payload = payload[:size], payload[size:]
        return replies


def _window_server(flavour, net):
    server = RpcServer(SimTransport(net, "window"))
    server._reply_cache = ReplyCache(WINDOW)
    executions = {}

    def payload(args):
        xid, size = args
        executions[xid] = executions.get(xid, 0) + 1
        return b"\x00" * size

    program = RpcProgram(PROG + 4, 1)
    program.register(1, payload)
    server.serve(program)
    return server, executions, net.clock.drain


def _queues(cache):
    """The (small, large) queues' entries, in eviction order."""
    return tuple(dict(queue) for queue in cache._queues)


@settings(max_examples=60, deadline=None)
@given(
    flavour=st.sampled_from(["sync", "batch"]),
    steps=st.lists(st.tuples(reply_sizes, st.integers(0, 10**6)), min_size=1, max_size=14),
)
def test_reply_cache_window_under_arbitrary_reply_sizes(flavour, steps):
    net = SimNetwork(seed=1994)
    server, executions, run = _window_server(flavour, net)
    peer = _RawPeer(net, "peer")
    cache, key = server._reply_cache, lambda xid: (peer.transport.local_address, xid)
    first, sizes = {}, []
    for xid, (size, pick) in enumerate(steps):
        sizes.append(size)
        before = _queues(cache)
        call = RpcCall(xid, PROG + 4, 1, 1, encode_value([xid, size]))
        first[xid] = peer.frames(server.address, [call], run)[xid]
        charge = len(first[xid]) + _ENTRY_OVERHEAD
        after = _queues(cache)
        charges = [sum(len(d) + _ENTRY_OVERHEAD for d in q.values()) for q in after]
        assert cache.charged == sum(charges) and max(charges) <= WINDOW // 2
        if charge > WINDOW // 2:  # not cached, and nothing else flushed
            assert after == before
        else:
            assert cache.get(key(xid)) == first[xid]
            # Only its own size class gives way: a large reply never
            # evicts a small one, nor a small reply a large one.
            other = 1 if len(first[xid]) <= _SMALL_REPLY else 0
            assert after[other] == before[other]
        # A retransmission of any earlier xid: replayed verbatim inside the
        # window, re-executed once evicted (or never cached).
        old = pick % (xid + 1)
        in_window = cache.get(key(old)) is not None
        runs_before = executions[old]
        retransmit = RpcCall(old, PROG + 4, 1, 1, encode_value([old, sizes[old]]))
        batch = [retransmit, RpcCall(10**6 + xid, PROG + 4, 1, 0, b"")]
        replies = peer.frames(
            server.address, batch if flavour == "batch" else batch[:1], run
        )
        if in_window:
            assert executions[old] == runs_before
            assert replies[old] == first[old]
        else:
            assert executions[old] == runs_before + 1
        assert cache.charged <= WINDOW


def test_reply_cache_reinsert_replaces_the_old_charge():
    """A second reply under a cached key (two executions raced past the
    cache check) replaces the first: one charge, newest position, in the
    queue of its own size."""
    first, second = (Address("h", 1), 7), (Address("h", 1), 8)
    cache = ReplyCache(2 * 2048)
    cache.put(first, b"a" * 100)
    cache.put(second, b"b" * 100)
    cache.put(first, b"c" * 10)
    assert [list(queue) for queue in _queues(cache)] == [[second, first], []]
    assert cache.charged == 110 + 2 * _ENTRY_OVERHEAD
    cache.put(first, b"d" * 1000)  # now a large reply: it changes queue
    assert [list(queue) for queue in _queues(cache)] == [[second], [first]]
    assert cache.charged == 1100 + 2 * _ENTRY_OVERHEAD
    cache.put(first, b"e" * 10_000)  # oversized: the stale reply goes too
    assert [list(queue) for queue in _queues(cache)] == [[second], []]
    assert (cache.charged, cache.evicted) == (100 + _ENTRY_OVERHEAD, 0)


def test_tiny_replies_cannot_outgrow_the_bound():
    """20 000 16-byte replies retain no more than 1.25x the byte bound:
    the per-entry charge covers what the payload total does not see."""
    bound = 256 * 1024
    peers = [Address("10.0.0.1", 40000 + n) for n in range(4)]
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        cache = ReplyCache(bound)
        for xid in range(20_000):
            cache.put((peers[xid % 4], xid), xid.to_bytes(16, "big"))
        retained = tracemalloc.get_traced_memory()[0] - baseline
    finally:
        tracemalloc.stop()
    assert cache.charged <= bound and cache.evicted > 0
    assert retained <= 1.25 * bound, retained


def test_duplicate_program_registration_rejected(net):
    server, program, __, __calls = make_stack(net)
    with pytest.raises(ConfigurationError):
        server.serve(RpcProgram(PROG, 1))


def test_duplicate_procedure_registration_rejected():
    program = RpcProgram(1, 1)
    program.register(1, lambda a: a)
    with pytest.raises(ConfigurationError):
        program.register(1, lambda a: a)


def test_program_withdraw_makes_unavailable(net):
    server, program, client, __calls = make_stack(net)
    server.withdraw(program)
    with pytest.raises(ProgramUnavailable):
        client.call(server.address, PROG, 1, 1)


def test_concurrent_programs_on_one_server(net):
    server = RpcServer(SimTransport(net, "multi"))
    for offset in range(3):
        program = RpcProgram(PROG + 10 + offset, 1)
        program.register(1, lambda args, o=offset: o)
        server.serve(program)
    client = RpcClient(SimTransport(net, "cli5"))
    assert [client.call(server.address, PROG + 10 + o, 1, 1) for o in range(3)] == [0, 1, 2]


def test_malformed_payload_counted_not_fatal(net):
    server, __, client, __calls = make_stack(net)
    from repro.rpc.dispatch import dispatcher_for

    client.transport.send(server.address, b"not an rpc message")
    net.clock.drain()
    assert dispatcher_for(server.transport).malformed_count == 1
    assert client.call(server.address, PROG, 1, 1, "still works")["echo"] == "still works"


def test_same_transport_client_and_server(net):
    """A node that is both client and server shares one transport."""
    transport = SimTransport(net, "both")
    server = RpcServer(transport)
    program = RpcProgram(PROG + 20, 1)
    program.register(1, lambda args: "self")
    server.serve(program)
    client = RpcClient(transport, timeout=0.1)
    peer_server, __, __c, __calls = make_stack(net)
    # outbound call works
    assert client.call(peer_server.address, PROG, 1, 1, 1)["echo"] == 1
    # inbound call works too
    other = RpcClient(SimTransport(net, "other"))
    assert other.call(transport.local_address, PROG + 20, 1, 1) == "self"


def test_late_duplicate_reply_is_dropped(net):
    """Replies for finished xids must not leak into the pending table."""
    from repro.rpc.message import ReplyStatus, RpcReply

    __, __, client, __calls = make_stack(net)
    client.retire_xid(4242)
    client.handle_reply(client.address, RpcReply(4242, ReplyStatus.SUCCESS, b""))
    assert 4242 not in client._pending
    assert client.duplicate_replies_dropped == 1


def test_completed_call_retires_its_xid(net):
    """Every call — success or timeout — retires its xid, so a straggler
    retransmission answer arriving afterwards is discarded."""
    from repro.rpc.message import ReplyStatus, RpcReply

    server, __, client, __calls = make_stack(net)
    assert client.call(server.address, PROG, 1, 1, "hi")["echo"] == "hi"
    last_xid = next(client._xid_counter) - 1
    # Replay the last reply as a late duplicate: it must be dropped.
    client.handle_reply(server.address, RpcReply(last_xid, ReplyStatus.SUCCESS, b""))
    assert client._pending == {}
    assert client.duplicate_replies_dropped == 1
