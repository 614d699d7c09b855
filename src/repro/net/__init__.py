"""Simulated network substrate.

The 1994 prototype ran on a heterogeneous Sun/IBM workstation cluster over
Sun RPC.  This package substitutes a deterministic discrete-event network:
virtual clock, addressable endpoints, datagram delivery through pluggable
latency models, and fault injection (loss, duplication, partitions,
crashes).  The RPC layer in :mod:`repro.rpc` runs unchanged over either this
simulator or real TCP sockets, so every higher layer (naming, trading,
mediation) exercises identical code paths.
"""

from repro.net.clock import SimClock
from repro.net.endpoints import Address, Datagram, Endpoint
from repro.net.faults import FaultPlan
from repro.net.latency import (
    FixedLatency,
    JitteredLatency,
    LanWanLatency,
    LatencyModel,
)
from repro.net.sim import SimNetwork

__all__ = [
    "Address",
    "Datagram",
    "Endpoint",
    "FaultPlan",
    "FixedLatency",
    "JitteredLatency",
    "LanWanLatency",
    "LatencyModel",
    "SimClock",
    "SimNetwork",
]
