"""Transports: how RPC messages reach peers.

The RPC client/server code is transport-agnostic; a :class:`Transport`
provides datagram-style send/receive plus a ``wait`` primitive that blocks
(simulated or real time) until a predicate holds.  Exactly two networks
run the one RPC stack:

* :class:`SimTransport` — over :class:`repro.net.SimNetwork`; ``wait``
  advances the shared virtual clock, keeping tests deterministic.
* :class:`TcpTransport` — real TCP sockets with length-prefixed frames,
  the only socket transport.  Every message, a reply included, travels
  on the sender's own outgoing connection to the receiver's advertised
  listener.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Callable, Dict, Optional

from repro.errors import CommunicationError
from repro.net.endpoints import Address, Datagram
from repro.net.sim import SimNetwork
from repro.rpc import xdr
from repro.rpc.errors import XdrError
from repro.telemetry.metrics import METRICS

Receiver = Callable[[Address, bytes], None]


def enable_nodelay(sock: Optional[socket.socket]) -> None:
    """Set ``TCP_NODELAY`` on a TCP socket, quietly skipping non-sockets.

    The RPC wire path is lockstep request/reply: with Nagle on, a small
    CALL sits in the kernel until the previous segment is ACKed, adding
    up to an RTT (or a 40 ms delayed-ACK stall) per call.  Batching
    makes its *own* flush decisions (count/byte/slack watermarks), so
    the TCP transport disables Nagle on both the connect and the accept
    side and owns its write boundaries.
    """
    if sock is None:
        return
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except OSError:
        # Not a TCP socket (e.g. a test double); nothing to disable.
        pass


class Transport:
    """Abstract datagram transport."""

    local_address: Address

    def send(self, destination: Address, payload: bytes) -> None:
        raise NotImplementedError

    def set_receiver(self, receiver: Receiver) -> None:
        raise NotImplementedError

    def wait(self, predicate: Callable[[], bool], timeout: float) -> bool:
        """Block until ``predicate()`` is true or ``timeout`` seconds pass."""
        raise NotImplementedError

    def now(self) -> float:
        """Current time on this transport's clock (virtual or wall)."""
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError


class SimTransport(Transport):
    """Datagram transport over the simulated network."""

    def __init__(self, network: SimNetwork, host: str, port: Optional[int] = None) -> None:
        self.network = network
        self._endpoint = network.bind(host, port)
        self.local_address = self._endpoint.address
        self._receiver: Optional[Receiver] = None
        self._endpoint.on_receive = self._on_datagram

    def send(self, destination: Address, payload: bytes) -> None:
        self._endpoint.send(destination, payload)

    def set_receiver(self, receiver: Receiver) -> None:
        self._receiver = receiver

    def wait(self, predicate: Callable[[], bool], timeout: float) -> bool:
        deadline = self.network.clock.now + timeout
        return self.network.clock.run_until(predicate, deadline)

    def now(self) -> float:
        return self.network.clock.now

    def close(self) -> None:
        self._endpoint.close()

    def _on_datagram(self, datagram: Datagram) -> None:
        if self._receiver is not None:
            self._receiver(datagram.source, datagram.payload)


class TcpTransport(Transport):
    """Datagram semantics over real TCP connections on localhost.

    Every transport runs one accept loop; frames and the hello that opens
    a connection are :mod:`repro.rpc.xdr`'s.  Outgoing connections are
    cached per destination and only ever written: the peer answers on its
    own connection to our listener.  Receive callbacks run on the reader
    thread of each accepted connection; a shared condition lets
    :meth:`wait` sleep until state changes.  Connect and write failures
    surface as :class:`~repro.errors.CommunicationError`.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        # Deep backlog: benchmark fleets open thousands of connections in
        # one burst, and a SYN dropped by a full backlog costs the caller
        # a full kernel retransmission timeout.
        self._listener.listen(1024)
        self.local_address = Address(host, self._listener.getsockname()[1])
        self._receiver: Optional[Receiver] = None
        self._connections: Dict[Address, socket.socket] = {}
        self._lock = threading.Lock()
        self.condition = threading.Condition(self._lock)
        self._closed = False
        self._accept_thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._accept_thread.start()

    def send(self, destination: Address, payload: bytes) -> None:
        frame = xdr.frame(payload)
        with self._lock:
            conn = self._connections.get(destination)
        try:
            if conn is None:
                conn = socket.create_connection(
                    (destination.host, destination.port), timeout=5
                )
                enable_nodelay(conn)
                # Announce our listener: the peer replies on its own
                # connection to it, never on this one.
                conn.sendall(xdr.hello(self.local_address.port))
                with self._lock:
                    self._connections[destination] = conn
            conn.sendall(frame)
        except OSError as exc:
            # A refused connect is as transient as a failed write.
            with self._lock:
                self._connections.pop(destination, None)
            if conn is not None:
                conn.close()
            raise CommunicationError(f"send to {destination} failed: {exc}") from exc

    def set_receiver(self, receiver: Receiver) -> None:
        self._receiver = receiver

    def wait(self, predicate: Callable[[], bool], timeout: float) -> bool:
        deadline = time.monotonic() + timeout
        with self.condition:
            while not predicate():
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self.condition.wait(remaining)
            return True

    def now(self) -> float:
        return time.monotonic()

    def close(self) -> None:
        self._closed = True
        try:
            # Closing alone does not wake the accept thread, which would
            # then accept one more connection; shutdown does.
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        with self._lock:
            connections = list(self._connections.values())
            self._connections.clear()
        for conn in connections:
            try:
                conn.close()
            except OSError:
                pass

    # -- internals --------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._closed:
            try:
                conn, peer = self._listener.accept()
            except OSError:
                return
            enable_nodelay(conn)
            threading.Thread(
                target=self._serve_connection, args=(conn, peer), daemon=True
            ).start()

    def _serve_connection(self, conn: socket.socket, peer) -> None:
        # First frame is the peer's listener port (its stable address).
        first = self._read_frame(conn)
        if first is None:
            return
        try:
            source = Address(peer[0], xdr.parse_hello(first))
        except XdrError:
            METRICS.inc("rpc.transport.bad_hello")
            conn.close()
            return
        self._read_loop(conn, source)

    def _read_loop(self, conn: socket.socket, source: Address) -> None:
        while not self._closed:
            payload = self._read_frame(conn)
            if payload is None:
                return
            receiver = self._receiver
            if receiver is not None:
                receiver(source, payload)
            with self.condition:
                self.condition.notify_all()

    def _read_frame(self, conn: socket.socket) -> Optional[bytes]:
        header = self._read_exact(conn, xdr.FRAME_HEADER_SIZE)
        if header is None:
            return None
        return self._read_exact(conn, xdr.frame_length(header))

    @staticmethod
    def _read_exact(conn: socket.socket, count: int) -> Optional[bytes]:
        chunks = []
        remaining = count
        while remaining:
            try:
                chunk = conn.recv(remaining)
            except OSError:
                return None
            if not chunk:
                return None
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)
