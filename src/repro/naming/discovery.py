"""Broadcast service discovery — bootstrapping into an unknown network.

The paper assumes clients reach a "well-known" Browser; on a real 1994
LAN that knowledge came from broadcast.  This module implements it over
the simulated network's broadcast primitive: every host that wants to be
discoverable runs a :class:`DiscoveryResponder` on the well-known
discovery port; a joining client broadcasts one DISCOVER call and
collects the responders' advertised service references (browsers,
traders, name servers) until its deadline.

Broadcast exists only on the simulated (LAN-like) transport — exactly the
real-world situation, where WAN bootstrap needs configured addresses.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Union

from repro.context import CallContext
from repro.errors import LookupFailure
from repro.naming.refs import ServiceRef
from repro.net.sim import SimNetwork
from repro.rpc.client import RpcClient
from repro.rpc.errors import XdrError
from repro.rpc.message import ReplyStatus, RpcCall
from repro.rpc.server import RpcProgram, RpcServer
from repro.rpc.transport import SimTransport
from repro.rpc.xdr import decode_value, encode_value
from repro.telemetry.metrics import METRICS

DISCOVERY_PORT = 532
DISCOVERY_PROGRAM = 100100

_PROC_DISCOVER = 1


class DiscoveryResponder:
    """Answers broadcast DISCOVER calls with this host's advertised refs.

    One responder per host, bound to the well-known discovery port.
    Advertisements are tagged with a *role* ("browser", "trader",
    "nameserver", ...), so clients can ask for a specific kind.
    """

    def __init__(self, network: SimNetwork, host: str) -> None:
        self._advertised: List[Dict[str, object]] = []
        transport = SimTransport(network, host, DISCOVERY_PORT)
        self.server = RpcServer(transport)
        program = RpcProgram(DISCOVERY_PROGRAM, 1, "discovery")
        program.register(_PROC_DISCOVER, self._discover, "discover")
        self.server.serve(program)
        self.address = transport.local_address

    def advertise(self, role: str, ref: Union[ServiceRef, Dict[str, object]]) -> None:
        ref_wire = ref.to_wire() if isinstance(ref, ServiceRef) else dict(ref)
        self._advertised.append({"role": role, "ref": ref_wire})

    def withdraw(self, ref: Union[ServiceRef, Dict[str, object]]) -> bool:
        ref_wire = ref.to_wire() if isinstance(ref, ServiceRef) else dict(ref)
        before = len(self._advertised)
        self._advertised = [
            item for item in self._advertised if item["ref"] != ref_wire
        ]
        return len(self._advertised) != before

    def _discover(self, args) -> List[Dict[str, object]]:
        role = (args or {}).get("role", "")
        if not role:
            return list(self._advertised)
        return [item for item in self._advertised if item["role"] == role]


class BroadcastDiscoverer:
    """Client side: one broadcast, many replies, gathered by deadline."""

    _xids = itertools.count(0x7D000000)

    def __init__(self, network: SimNetwork, client: RpcClient) -> None:
        self._network = network
        self._client = client
        if not isinstance(client.transport, SimTransport):
            raise LookupFailure(
                "broadcast discovery needs the simulated (LAN) transport"
            )

    def discover(
        self,
        role: str = "",
        timeout: float = 0.05,
        ctx: Optional[CallContext] = None,
    ) -> List[Dict[str, object]]:
        """Broadcast a DISCOVER; returns ``{"role", "ref"}`` dicts.

        Waits the *full* timeout — unlike unicast there is no way to know
        how many answers are coming — unless a ``ctx`` with less budget
        remaining bounds the gather window.
        """
        wait = timeout
        if ctx is not None:
            wait = min(wait, ctx.remaining(self._client.transport.now()))
            if wait <= 0:
                return []
        xid = next(self._xids)
        call = RpcCall(
            xid, DISCOVERY_PROGRAM, 1, _PROC_DISCOVER, encode_value({"role": role}),
            deadline=ctx.deadline if ctx is not None else None,
            trace_id=ctx.trace_id if ctx is not None else "",
        )
        source = self._client.transport.local_address
        sent = self._network.broadcast(source, DISCOVERY_PORT, call.encode())
        if sent == 0:
            return []
        self._client._awaited.add(xid)
        gathered: List[Dict[str, object]] = []

        # Replies share one xid; the dispatcher keeps only the latest per
        # xid, so drain the pending slot as answers arrive.
        def drain() -> bool:
            reply = self._client._pending.pop(xid, None)
            if reply is not None and reply.status is ReplyStatus.SUCCESS:
                # Anyone on the LAN may answer a broadcast: skip what is
                # not a decodable list of advertisements.
                try:
                    items = decode_value(reply.body)
                except XdrError:
                    items = None
                if isinstance(items, list):
                    gathered.extend(items)
                else:
                    METRICS.inc("rpc.client.malformed_replies")
            return False  # never "done": collect until the deadline

        if ctx is not None:
            with ctx.span("discovery", f"broadcast {role or '*'}",
                          self._client.transport.now):
                self._client.transport.wait(drain, wait)
        else:
            self._client.transport.wait(drain, wait)
        drain()
        # Stragglers answering after the window are duplicates, not news.
        self._client.retire_xid(xid)
        return gathered

    def find_refs(
        self,
        role: str,
        timeout: float = 0.05,
        ctx: Optional[CallContext] = None,
    ) -> List[ServiceRef]:
        """Discover and decode just the references for one role."""
        return [
            ServiceRef.from_wire(item["ref"])
            for item in self.discover(role, timeout, ctx=ctx)
        ]

    def find_first(
        self,
        role: str,
        timeout: float = 0.05,
        ctx: Optional[CallContext] = None,
    ) -> ServiceRef:
        refs = self.find_refs(role, timeout, ctx=ctx)
        if not refs:
            raise LookupFailure(f"no {role!r} responded to broadcast discovery")
        return refs[0]
