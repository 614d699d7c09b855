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

Both run one execution model (DESIGN.md §6a): a node runs its calls one
at a time, and a call blocked in ``wait`` keeps serving the calls that
reach its node meanwhile.  On the simulated network that holds by
construction; over TCP, :meth:`TcpTransport.execute` enforces it.
"""

from __future__ import annotations

import socket
import threading
import time
from collections import deque
from functools import partial
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.errors import CommunicationError
from repro.net.endpoints import Address, Datagram
from repro.net.sim import SimNetwork
from repro.rpc import xdr
from repro.rpc.errors import XdrError
from repro.telemetry.metrics import METRICS

Receiver = Callable[[Address, bytes], None]
Work = Callable[[], None]


class _Thread(threading.local):
    """What the current thread does for this process's TCP nodes: the
    executor follows a node's calls from thread to thread, so the role is
    the thread's own, as the ambient call context is (``repro.context``)."""

    #: The transport whose calls this thread runs, while it runs them.
    node: Optional["TcpTransport"] = None
    #: Hands the connection this thread reads to another reader thread.
    hand_on: Optional[Work] = None


_THREAD = _Thread()


def _run(work: Work) -> None:
    try:
        work()
    except CommunicationError:
        # The caller cannot be reached: its reply is lost, as a datagram
        # would be, and the caller retransmits or times out.
        pass


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

    def execute(self, work: Work) -> None:
        """Run one call this node received.  The simulated network runs
        one thing at a time anyway, so the call runs here and now."""
        work()

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
    own connection to our listener.  Each accepted connection has a
    reader thread that only reads: the dispatcher settles a reply where
    it lands and hands a call to :meth:`execute`, which runs the node's
    calls one at a time.  A condition per transport lets :meth:`wait`
    sleep until a reply lands.  Connect and write failures surface as
    :class:`~repro.errors.CommunicationError`.
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
        # The node's executor: ``_busy`` while some thread runs its calls.
        # Calls that arrive meanwhile queue in the inbox for that thread,
        # which wakes on ``_waker`` when it sleeps in ``wait``.
        self._inbox: Deque[Work] = deque()
        self._inbox_lock = threading.Lock()
        self._busy = False
        self._waker: Optional[threading.Condition] = None
        # Reader threads parked until a connection is handed on to them:
        # each slot is [a held lock the hand-on releases, (conn, source)].
        self._spares: List[List[Any]] = []
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
        """Block until ``predicate()`` is true or ``timeout`` seconds pass.

        A thread that runs a node's calls keeps running the calls queued
        for that node while it waits, whichever transport it waits on, as
        ``SimTransport.wait`` keeps pumping the clock.  A reader thread
        first hands its connection to another reader: the reply it waits
        for may come on that very connection.
        """
        deadline = time.monotonic() + timeout
        node, inbox = _THREAD.node, ()
        if node is not None:
            inbox = node._inbox
            hand_on, _THREAD.hand_on = _THREAD.hand_on, None
            if hand_on is not None:
                hand_on()
            saved, node._waker = node._waker, self.condition
        try:
            while True:
                with self.condition:
                    while not predicate():
                        if inbox:
                            break
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            return False
                        self.condition.wait(remaining)
                    else:
                        return True
                # A call for the node: run it, then wait on.  Only the
                # thread running the node's calls takes from its inbox.
                _run(inbox.popleft())
        finally:
            if node is not None:
                node._waker = saved

    def execute(self, work: Work) -> None:
        """Run one call this node received, never beside another of its
        calls.  An idle node runs it here, on the reader thread that
        brought it; a busy one queues it for the thread running its calls,
        which takes it in :meth:`wait` or when its current call ends."""
        with self._inbox_lock:
            queued = self._busy
            if queued:
                self._inbox.append(work)
            self._busy = True
        if not queued:
            self._serve(work)
            return
        waker = self._waker
        if waker is not None:
            with waker:
                waker.notify_all()

    def _serve(self, work: Optional[Work]) -> None:
        """The executor loop: run ``work`` and every call queued behind
        it, then leave the node idle."""
        _THREAD.node = self
        try:
            while work is not None:
                _run(work)
                with self._inbox_lock:
                    work = self._inbox.popleft() if self._inbox else None
                    self._busy = work is not None
        finally:
            _THREAD.node = None
            if work is not None:
                # A fault escaped a call (the server lets none escape):
                # free the node; what is queued runs after the next call.
                with self._inbox_lock:
                    self._busy = False

    def now(self) -> float:
        return time.monotonic()

    def close(self) -> None:
        self._closed = True
        with self._inbox_lock:
            spares, self._spares = self._spares, []
        for held, __ in spares:
            held.release()
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

    def _read_loop(self, conn: Optional[socket.socket], source: Address) -> None:
        """Read a connection until it or the transport closes.  A call run
        here that waits hands the connection on (:meth:`wait`); once its
        calls are done, the thread parks to take the next hand-on."""
        while conn is not None:
            _THREAD.hand_on = partial(self._hand_on, conn, source)
            while _THREAD.hand_on is not None:
                payload = None if self._closed else self._read_frame(conn)
                if payload is None:
                    return
                receiver = self._receiver
                if receiver is not None:
                    receiver(source, payload)
                with self.condition:
                    self.condition.notify_all()
            conn, source = self._park()

    def _hand_on(self, conn: socket.socket, source: Address) -> None:
        """Give a connection to a parked reader thread, or to a new one."""
        with self._inbox_lock:
            slot = self._spares.pop() if self._spares else None
        if slot is None:
            threading.Thread(
                target=self._read_loop, args=(conn, source), daemon=True
            ).start()
        else:
            slot[1] = (conn, source)
            slot[0].release()

    def _park(self) -> Tuple[Optional[socket.socket], Any]:
        """Wait for a hand-on; ``(None, None)`` once the transport closes."""
        slot: List[Any] = [threading.Lock(), (None, None)]
        slot[0].acquire()
        with self._inbox_lock:
            if self._closed:
                return None, None
            self._spares.append(slot)
        slot[0].acquire()
        return slot[1]

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
