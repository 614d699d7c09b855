"""The simulated network: endpoint registry plus datagram switching."""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional

from repro.errors import CommunicationError, ConfigurationError
from repro.net.clock import SimClock
from repro.net.endpoints import Address, Datagram, Endpoint
from repro.net.faults import FaultPlan
from repro.net.latency import FixedLatency, LatencyModel


class SimNetwork:
    """Deterministic message-passing network.

    Binds endpoints at ``Address(host, port)``, transmits datagrams through
    a latency model and fault plan, and delivers them as scheduled clock
    events.  One instance plays the role of the whole 1994 workstation
    cluster network.
    """

    def __init__(
        self,
        latency: Optional[LatencyModel] = None,
        faults: Optional[FaultPlan] = None,
        seed: int = 1994,
    ) -> None:
        self.clock = SimClock()
        self.latency = latency or FixedLatency()
        self.faults = faults or FaultPlan()
        self.rng = random.Random(seed)
        self._endpoints: Dict[Address, Endpoint] = {}
        self._ephemeral_port = 49152
        self.transmitted_count = 0
        self.delivered_count = 0

    # -- binding ---------------------------------------------------------

    def bind(self, host: str, port: Optional[int] = None) -> Endpoint:
        """Create an endpoint; ``port=None`` picks an ephemeral port."""
        if port is None:
            port = self._next_ephemeral()
        address = Address(host, port)
        if address in self._endpoints:
            raise ConfigurationError(f"address already bound: {address}")
        endpoint = Endpoint(self, address)
        self._endpoints[address] = endpoint
        return endpoint

    def unbind(self, address: Address) -> None:
        self._endpoints.pop(address, None)

    def addresses(self) -> List[Address]:
        return sorted(self._endpoints)

    def hosts(self) -> Iterable[str]:
        return sorted({address.host for address in self._endpoints})

    # -- transmission ----------------------------------------------------

    def transmit(self, datagram: Datagram) -> None:
        """Queue a datagram for delivery subject to faults and latency."""
        self.transmitted_count += 1
        if self.faults.should_drop(datagram, self.rng):
            return
        copies = 2 if self.faults.should_duplicate(datagram, self.rng) else 1
        for __ in range(copies):
            delay = self.latency.delay(datagram, self.rng)
            self.clock.schedule(delay, lambda d=datagram: self._deliver(d))

    def broadcast(self, source: Address, port: int, payload: bytes) -> int:
        """Send to every bound endpoint on ``port`` except the source.

        Models the prototype's broadcast function at the communication
        level; returns the number of datagrams transmitted.
        """
        count = 0
        for address in list(self._endpoints):
            if address.port == port and address != source:
                self.transmit(Datagram(source, address, payload))
                count += 1
        return count

    def _deliver(self, datagram: Datagram) -> None:
        if self.faults.crashed(datagram.destination.host):
            return
        endpoint = self._endpoints.get(datagram.destination)
        if endpoint is None:
            return  # port unreachable: silently dropped, like UDP
        self.delivered_count += 1
        endpoint.deliver(datagram)

    def _next_ephemeral(self) -> int:
        while True:
            port = self._ephemeral_port
            self._ephemeral_port += 1
            if self._ephemeral_port > 65535:
                raise CommunicationError("ephemeral port space exhausted")
            if all(addr.port != port for addr in self._endpoints):
                return port
