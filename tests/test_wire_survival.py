"""One malformed string must not cost a connection.

Real loopback TCP: a peer sends bytes that are well-framed but carry
invalid UTF-8 (in a trace id, in a tagged body) or a non-numeric hello,
and the connection — and every thread serving it — has to survive with
a typed outcome: counted and dropped, ``GARBAGE_ARGS``, or a closed
socket.  Before the decode rules were unified, ``UnicodeDecodeError``
and ``ValueError`` escaped the ``except XdrError`` boundaries and killed
the reader thread, so every later call on the connection timed out.
"""

import socket
import struct
import threading

import pytest

from repro.rpc.client import RpcClient
from repro.rpc.message import ReplyStatus, RpcCall
from repro.rpc.server import RpcProgram, RpcServer
from repro.rpc.transport import TcpTransport
from repro.telemetry.metrics import METRICS
from tests.conftest import BAD_UTF8_VALUE

PROG = 710100
BAD_UTF8 = b"\xff\xfe"


@pytest.fixture
def no_thread_dies(monkeypatch):
    """Fails the test if any thread ends in an uncaught exception."""
    died = []
    monkeypatch.setattr(threading, "excepthook", died.append)
    yield
    assert not died, [f"{args.thread.name}: {args.exc_value!r}" for args in died]


@pytest.fixture
def echo_over_tcp():
    server_transport, client_transport = TcpTransport(), TcpTransport()
    server = RpcServer(server_transport)
    program = RpcProgram(PROG, 1)
    program.register(1, lambda args: {"echo": args})
    server.serve(program)
    client = RpcClient(client_transport, timeout=2.0, retries=0)
    yield client, server_transport.local_address
    server_transport.close()
    client_transport.close()


def test_invalid_utf8_trace_id_is_counted_and_the_connection_lives(
    echo_over_tcp, no_thread_dies
):
    client, address = echo_over_tcp
    assert client.call(address, PROG, 1, 1, "before") == {"echo": "before"}
    good = RpcCall(7, PROG, 1, 1, b"", trace_id="ab").encode()
    assert good.count(b"ab") == 1
    malformed = METRICS.counter_total("rpc.dispatch.malformed")
    client.transport.send(address, good.replace(b"ab", BAD_UTF8))
    assert client.call(address, PROG, 1, 1, "after") == {"echo": "after"}
    assert METRICS.counter_total("rpc.dispatch.malformed") == malformed + 1


def test_invalid_utf8_in_a_tagged_body_is_garbage_args(echo_over_tcp, no_thread_dies):
    client, address = echo_over_tcp
    reply = client.call_raw(address, PROG, 1, 1, BAD_UTF8_VALUE)
    assert reply.status is ReplyStatus.GARBAGE_ARGS
    assert client.call(address, PROG, 1, 1, "after") == {"echo": "after"}


def _closed_by_peer(address) -> bool:
    """Open a connection, say ``abc`` for hello, and see whether the peer hangs up."""
    with socket.create_connection((address.host, address.port), timeout=2.0) as conn:
        conn.sendall(struct.pack(">I", 3) + b"abc")
        try:
            return conn.recv(1) == b""
        except socket.timeout:
            return False


def test_non_numeric_hello_closes_the_socket_threaded(echo_over_tcp, no_thread_dies):
    client, address = echo_over_tcp
    bad = METRICS.counter_total("rpc.transport.bad_hello")
    assert _closed_by_peer(address)
    assert METRICS.counter_total("rpc.transport.bad_hello") == bad + 1
    assert client.call(address, PROG, 1, 1, "after") == {"echo": "after"}
