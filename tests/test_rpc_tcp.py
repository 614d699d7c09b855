"""Tests for the real-TCP transport: same RPC stack, real sockets.

Kept small (each test opens real listeners on 127.0.0.1) but proves the
transport abstraction holds: client, server, and the COSM layers above
run unchanged.
"""

import socket

import pytest

from repro.errors import CommunicationError
from repro.rpc.client import RpcClient
from repro.rpc.errors import RpcError
from repro.rpc.resilience import ResilientCaller, transient
from repro.rpc.server import RpcProgram, RpcServer
from repro.rpc.transport import TcpTransport

PROG = 710000


@pytest.fixture
def tcp_pair():
    server_transport = TcpTransport()
    client_transport = TcpTransport()
    yield server_transport, client_transport
    server_transport.close()
    client_transport.close()


def test_call_over_real_sockets(tcp_pair):
    server_transport, client_transport = tcp_pair
    server = RpcServer(server_transport)
    program = RpcProgram(PROG, 1)
    program.register(1, lambda args: {"pong": args})
    server.serve(program)
    client = RpcClient(client_transport, timeout=2.0, retries=0)
    assert client.call(server_transport.local_address, PROG, 1, 1, "ping") == {
        "pong": "ping"
    }


def test_many_sequential_calls(tcp_pair):
    server_transport, client_transport = tcp_pair
    server = RpcServer(server_transport)
    program = RpcProgram(PROG, 1)
    program.register(1, lambda args: args * 2)
    server.serve(program)
    client = RpcClient(client_transport, timeout=2.0, retries=0)
    for i in range(20):
        assert client.call(server_transport.local_address, PROG, 1, 1, i) == i * 2


def closed_port():
    """An address nothing listens on: a closed transport's port."""
    transport = TcpTransport()
    transport.close()
    return transport.local_address


def test_closed_transport_refuses_the_first_connect():
    address = closed_port()
    with pytest.raises(ConnectionRefusedError):
        socket.create_connection((address.host, address.port), timeout=1).close()


def test_timeout_against_dead_port(tcp_pair):
    __, client_transport = tcp_pair
    client = RpcClient(client_transport, timeout=0.1, retries=0)
    with pytest.raises(CommunicationError):
        client.call(closed_port(), PROG, 1, 1)


def test_refused_connect_is_a_transient_communication_error(tcp_pair):
    __, client_transport = tcp_pair
    client = RpcClient(client_transport, timeout=0.1, retries=0)
    with pytest.raises(CommunicationError) as excinfo:
        client.call(closed_port(), PROG, 1, 1)
    assert not isinstance(excinfo.value, RpcError)
    assert transient(excinfo.value)


def test_resilient_caller_fails_over_past_a_closed_port(tcp_pair):
    server_transport, client_transport = tcp_pair
    server = RpcServer(server_transport)
    program = RpcProgram(PROG, 1)
    program.register(1, lambda args: {"pong": args})
    server.serve(program)
    caller = ResilientCaller(RpcClient(client_transport, timeout=2.0, retries=0))
    targets = [closed_port(), server_transport.local_address]
    assert caller.call(targets, PROG, 1, 1, "ping") == {"pong": "ping"}
    assert caller.failovers == 1


def test_failed_write_drops_the_connection_and_the_next_call_redials(tcp_pair):
    server_transport, client_transport = tcp_pair
    server = RpcServer(server_transport)
    program = RpcProgram(PROG, 1)
    program.register(1, lambda args: args)
    server.serve(program)
    client = RpcClient(client_transport, timeout=2.0, retries=0)
    address = server_transport.local_address
    assert client.call(address, PROG, 1, 1, 1) == 1
    client_transport._connections[address].close()
    with pytest.raises(CommunicationError):
        client.call(address, PROG, 1, 1, 2)
    assert address not in client_transport._connections
    assert client.call(address, PROG, 1, 1, 3) == 3


def test_generic_client_over_tcp():
    """The whole mediation stack runs over real sockets too."""
    from repro.core import GenericClient
    from repro.services import start_car_rental

    server_transport = TcpTransport()
    client_transport = TcpTransport()
    try:
        runtime = start_car_rental(RpcServer(server_transport))
        generic = GenericClient(RpcClient(client_transport, timeout=2.0))
        binding = generic.bind(runtime.ref)
        result = binding.invoke(
            "SelectCar",
            {"selection": {"CarModel": "AUDI", "BookingDate": "x", "Days": 1}},
        )
        assert result.value["available"] is True
        binding.unbind()
    finally:
        server_transport.close()
        client_transport.close()


def test_nodelay_set_on_outgoing_connections(tcp_pair):
    """Nagle must stay off on the wire fast lane: a 100-byte CALL frame
    sitting in the kernel for 40 ms would dwarf every software win."""
    server_transport, client_transport = tcp_pair
    server = RpcServer(server_transport)
    program = RpcProgram(PROG, 1)
    program.register(1, lambda args: args, "echo")
    server.serve(program)
    client = RpcClient(client_transport, timeout=2.0)
    assert client.call(server.address, PROG, 1, 1, {"x": 1}) == {"x": 1}
    conns = list(client_transport._connections.values())
    assert conns, "expected a cached outgoing connection"
    for conn in conns:
        assert conn.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) == 1


def test_enable_nodelay_tolerates_non_tcp_sockets():
    from repro.rpc.transport import enable_nodelay

    left, right = socket.socketpair()  # AF_UNIX: no TCP_NODELAY option
    try:
        enable_nodelay(left)  # must not raise
        enable_nodelay(None)  # and must tolerate missing sockets
    finally:
        left.close()
        right.close()
