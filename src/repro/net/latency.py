"""Latency models for the simulated network.

The 1994 testbed mixed a local Ethernet segment (sub-millisecond) with
campus links; :class:`LanWanLatency` models that split so benchmarks can
show where network cost dominates (e.g. remote vs. local FSM rejection).
"""

from __future__ import annotations

import random
from typing import Dict, Tuple

from repro.net.endpoints import Datagram


class LatencyModel:
    """Base class: maps a datagram to a one-way delay in seconds."""

    def delay(self, datagram: Datagram, rng: random.Random) -> float:
        raise NotImplementedError


class FixedLatency(LatencyModel):
    """Every datagram takes exactly ``seconds`` to arrive."""

    def __init__(self, seconds: float = 0.001) -> None:
        self.seconds = seconds

    def delay(self, datagram: Datagram, rng: random.Random) -> float:
        return self.seconds


class JitteredLatency(LatencyModel):
    """Uniform delay in ``[base, base + jitter]`` seconds."""

    def __init__(self, base: float = 0.001, jitter: float = 0.002) -> None:
        self.base = base
        self.jitter = jitter

    def delay(self, datagram: Datagram, rng: random.Random) -> float:
        return self.base + rng.random() * self.jitter


class LanWanLatency(LatencyModel):
    """Cheap delivery inside a site, expensive across sites.

    A *site* is the part of the hostname after the first ``.``
    (``"s0.fleet"`` is on site ``fleet``), or the whole hostname when
    there is no dot; explicit overrides take precedence.
    """

    def __init__(
        self,
        lan: float = 0.0005,
        wan: float = 0.040,
        overrides: Dict[Tuple[str, str], float] = None,
    ) -> None:
        self.lan = lan
        self.wan = wan
        self.overrides = dict(overrides or {})

    @staticmethod
    def _site(host: str) -> str:
        return host.split(".", 1)[-1] if "." in host else host

    def delay(self, datagram: Datagram, rng: random.Random) -> float:
        pair = (datagram.source.host, datagram.destination.host)
        if pair in self.overrides:
            return self.overrides[pair]
        if self._site(pair[0]) == self._site(pair[1]):
            return self.lan
        return self.wan
