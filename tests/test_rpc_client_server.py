"""Tests for RPC dispatch, retransmission, and at-most-once semantics."""

import pytest

from repro.errors import ConfigurationError
from repro.rpc.client import RpcClient
from repro.rpc.errors import (
    ProcedureUnavailable,
    ProgramUnavailable,
    RemoteFault,
    RpcTimeout,
)
from repro.rpc.server import RpcProgram, RpcServer
from repro.rpc.transport import SimTransport

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
    server = RpcServer(SimTransport(net, "srv4"), reply_cache_size=4)
    program = RpcProgram(PROG + 3, 1)
    program.register(1, lambda args: args)
    server.serve(program)
    client = RpcClient(SimTransport(net, "cli4"))
    for i in range(10):
        client.call(server.address, PROG + 3, 1, 1, i)
    assert len(server._reply_cache) == 4


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
