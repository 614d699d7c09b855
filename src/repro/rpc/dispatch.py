"""Per-transport message demultiplexer.

A node in the COSM network is often client and server at the same time
(e.g. a browser answers registration calls *and* forwards queries to peer
browsers).  Both roles share one transport; the dispatcher routes incoming
CALL messages to the server half and REPLY messages to the client half.
"""

from __future__ import annotations

from typing import Optional

from repro.net.endpoints import Address
from repro.rpc.errors import XdrError
from repro.rpc.message import RpcCall, decode_messages
from repro.rpc.transport import Transport
from repro.telemetry.metrics import METRICS


class RpcDispatcher:
    """Routes decoded RPC messages to the attached client/server.

    The server — always an :class:`~repro.rpc.server.RpcServer` —
    receives every call intact: deadline rejection, shedding, and
    duplicate handling happen in one place, with one set of counters,
    *behind* the at-most-once cache (a cached reply replays even for a
    late retransmission).  A BATCH envelope is handed over whole so the
    server can drain every call before writing and coalesce the replies.
    """

    def __init__(self, transport: Transport) -> None:
        self.transport = transport
        self.server: Optional[object] = None
        self.client: Optional[object] = None
        self.malformed_count = 0
        transport.set_receiver(self._on_message)

    def _on_message(self, source: Address, payload: bytes) -> None:
        try:
            messages = decode_messages(payload)
        except XdrError:
            self.malformed_count += 1
            METRICS.inc("rpc.dispatch.malformed")
            return
        calls = []
        for message in messages:
            if isinstance(message, RpcCall):
                calls.append(message)
            elif self.client is not None:
                self.client.handle_reply(source, message)
        server = self.server
        if not calls or server is None:
            return
        # A reply settles on the thread that read it; calls run on the
        # node's executor, one at a time (DESIGN.md §6a).
        if len(calls) > 1:
            self.transport.execute(lambda: server.handle_batch(source, calls))
        else:
            call = calls[0]
            self.transport.execute(lambda: server.handle_call(source, call))


def dispatcher_for(transport: Transport) -> RpcDispatcher:
    """Return the transport's dispatcher, creating it on first use."""
    existing = getattr(transport, "_rpc_dispatcher", None)
    if existing is None:
        existing = RpcDispatcher(transport)
        transport._rpc_dispatcher = existing
    return existing
