"""Tests for the group manager and group calls.

A group call is a :class:`MulticastCaller` call on the group's members."""

import pytest

from repro.naming.groups import GroupClient, GroupManagerService
from repro.rpc.multicast import MulticastCaller
from repro.rpc.errors import RemoteFault
from repro.rpc.server import RpcProgram

PROG = 880000


@pytest.fixture
def groups(make_server, make_client):
    service = GroupManagerService(make_server("groups"))
    client = GroupClient(make_client(), service.address)
    return service, client


def test_create_and_list(groups):
    __, client = groups
    assert client.create("replicas")
    assert not client.create("replicas")  # already exists
    assert client.list() == ["replicas"]


def test_join_leave_members(groups, make_server):
    __, client = groups
    client.create("g")
    member = make_server("m1").address
    assert client.join("g", member)
    assert not client.join("g", member)  # idempotent join reports False
    assert client.members("g") == [member]
    assert client.leave("g", member)
    assert not client.leave("g", member)
    assert client.members("g") == []


def test_unknown_group_faults(groups, make_server):
    __, client = groups
    with pytest.raises(RemoteFault):
        client.members("ghost")
    with pytest.raises(RemoteFault):
        client.join("ghost", make_server().address)


def test_delete_group(groups):
    __, client = groups
    client.create("temp")
    assert client.delete("temp")
    assert not client.delete("temp")
    assert client.list() == []


def test_group_call_reaches_all_members(groups, make_server, make_client):
    __, client = groups
    client.create("workers")
    for index in range(3):
        server = make_server(f"worker-{index}")
        program = RpcProgram(PROG, 1)
        program.register(1, lambda args, i=index: {"worker": i})
        server.serve(program)
        client.join("workers", server.address)
    caller = MulticastCaller(make_client())
    result = caller.call(client.members("workers"), PROG, 1, 1, timeout=0.5)
    assert result.complete
    assert {r["worker"] for r in result.values()} == {0, 1, 2}


def test_group_call_with_quorum(groups, make_server, make_client, net):
    __, client = groups
    client.create("q")
    for index in range(3):
        server = make_server(f"qw-{index}")
        program = RpcProgram(PROG, 1)
        program.register(1, lambda args, i=index: i)
        server.serve(program)
        client.join("q", server.address)
    net.faults.crash("qw-2")
    caller = MulticastCaller(make_client())
    result = caller.call(client.members("q"), PROG, 1, 1, timeout=0.2, quorum=2)
    assert len(result.replies) == 2


def test_group_call_empty_group(groups, make_client):
    __, client = groups
    client.create("empty")
    result = MulticastCaller(make_client()).call(client.members("empty"), PROG, 1, 1)
    assert result.complete
    assert result.values() == []
