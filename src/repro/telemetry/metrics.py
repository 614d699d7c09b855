"""Lock-protected counters and fixed-bucket histograms.

The trader-style directories of the related work treat measurement as a
first-class concern (the Grid Market Directory evaluates its registry via
end-to-end latency curves); this module gives the COSM stack the same
footing.  Every layer bumps named counters — deadline rejections,
retransmissions, hop exhaustions, federation link outcomes, offer-index
hits vs. fallback scans, duplicate replies dropped — aggregated by a
label tuple (``(program, proc)`` at the RPC layers, ``(link, outcome)``
at trader federation, the store prefix at the offer index).

Design constraints:

* **Telemetry must never fail a request** — increments cannot raise, and
  unknown names need no registration step.
* **Negligible cost when nobody is looking** — an increment is one lock
  acquisition and one dict update; the hot RPC path only bumps counters
  on *rare* events (a retransmission, a rejection), never per packet.

Histograms use fixed bucket bounds so aggregation across processes (or
simply across runs) is a per-bucket sum; quantiles are estimated by
linear interpolation inside the winning bucket — the usual
Prometheus-style trade of accuracy for mergeability.
"""

from __future__ import annotations

import bisect
import math
import threading
from typing import Any, Dict, Iterable, List, Optional, Tuple

Labels = Tuple[str, ...]

#: Default histogram bounds: exponential sub-microsecond..10 s coverage,
#: suited to both virtual-time and wall-clock latencies.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class Histogram:
    """A fixed-bucket histogram of observations (not thread-safe alone;
    the registry serialises access)."""

    __slots__ = ("bounds", "counts", "total", "count", "maximum")

    def __init__(self, bounds: Iterable[float] = DEFAULT_BUCKETS) -> None:
        self.bounds: Tuple[float, ...] = tuple(bounds)
        # one overflow bucket past the last bound
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.total = 0.0
        self.count = 0
        self.maximum = 0.0

    def observe(self, value: float) -> None:
        # bisect_left on the sorted bounds: the first bound >= value,
        # or the overflow bucket.  Same result as a linear scan, C speed.
        index = bisect.bisect_left(self.bounds, value)
        self.counts[index] += 1
        self.count += 1
        self.total += value
        if value > self.maximum:
            self.maximum = value

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (0..1), interpolated within a bucket."""
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cumulative = 0
        lower = 0.0
        for index, bucket_count in enumerate(self.counts):
            upper = (
                self.bounds[index] if index < len(self.bounds) else self.maximum
            )
            if cumulative + bucket_count >= rank:
                if bucket_count == 0:
                    return upper
                fraction = (rank - cumulative) / bucket_count
                return min(lower + (upper - lower) * fraction, self.maximum)
            cumulative += bucket_count
            lower = upper
        return self.maximum

    def snapshot(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.total,
            "max": self.maximum,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
        }


class MetricsRegistry:
    """Named counters and histograms, each keyed by a label tuple.

    All mutation happens under one lock — increments are two dict
    operations, so contention is negligible next to any network hop —
    and reads return snapshots, never live structures.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[Tuple[str, Labels], float] = {}
        self._gauges: Dict[Tuple[str, Labels], float] = {}
        self._histograms: Dict[Tuple[str, Labels], Histogram] = {}

    # -- counters ----------------------------------------------------------

    def inc(self, name: str, labels: Labels = (), amount: float = 1) -> None:
        key = (name, tuple(labels))
        with self._lock:
            self._counters[key] = self._counters.get(key, 0) + amount

    def counter(self, name: str, labels: Labels = ()) -> float:
        """Current value of one counter series (0 when never bumped)."""
        with self._lock:
            return self._counters.get((name, tuple(labels)), 0)

    def counter_total(self, name: str) -> float:
        """Sum of one counter over all label tuples."""
        with self._lock:
            return sum(
                value
                for (series, _), value in self._counters.items()
                if series == name
            )

    def counters(self, prefix: str = "") -> Dict[str, Dict[Labels, float]]:
        """Snapshot ``name -> labels -> value``, optionally filtered."""
        with self._lock:
            out: Dict[str, Dict[Labels, float]] = {}
            for (name, labels), value in self._counters.items():
                if name.startswith(prefix):
                    out.setdefault(name, {})[labels] = value
            return out

    # -- gauges ------------------------------------------------------------

    def set_gauge(self, name: str, value: float, labels: Labels = ()) -> None:
        """Record the current level of something (queue depth, pool size).

        Unlike a counter a gauge moves both ways; the registry keeps the
        last written value per label tuple.
        """
        if not isinstance(value, (int, float)) or math.isnan(value):
            return  # telemetry never raises on a bad observation
        with self._lock:
            self._gauges[(name, tuple(labels))] = value

    def gauge(self, name: str, labels: Labels = ()) -> float:
        """Last written value of one gauge series (0 when never set)."""
        with self._lock:
            return self._gauges.get((name, tuple(labels)), 0)

    def gauges(self, prefix: str = "") -> Dict[str, Dict[Labels, float]]:
        """Snapshot ``name -> labels -> value``, optionally filtered."""
        with self._lock:
            out: Dict[str, Dict[Labels, float]] = {}
            for (name, labels), value in self._gauges.items():
                if name.startswith(prefix):
                    out.setdefault(name, {})[labels] = value
            return out

    # -- histograms --------------------------------------------------------

    def observe(
        self,
        name: str,
        value: float,
        labels: Labels = (),
    ) -> None:
        if not isinstance(value, (int, float)) or math.isnan(value):
            return  # telemetry never raises on a bad observation
        key = (name, tuple(labels))
        with self._lock:
            histogram = self._histograms.get(key)
            if histogram is None:
                histogram = self._histograms[key] = Histogram(DEFAULT_BUCKETS)
            histogram.observe(value)

    def histogram(self, name: str, labels: Labels = ()) -> Optional[Dict[str, Any]]:
        """Snapshot of one histogram series, or None when never observed."""
        with self._lock:
            histogram = self._histograms.get((name, tuple(labels)))
            return None if histogram is None else histogram.snapshot()

    def estimate(
        self,
        name: str,
        labels: Labels = (),
        q: float = 0.95,
        min_count: int = 0,
    ) -> Optional[float]:
        """A service-time estimate off one histogram series (what the
        deadline-aware admission control compares against a call's
        remaining budget).  ``min_count`` guards against shedding on a
        cold histogram: with fewer observations the estimate is ``None``
        and the caller should admit the work to learn its cost."""
        with self._lock:
            histogram = self._histograms.get((name, tuple(labels)))
            if histogram is None or histogram.count < min_count:
                return None
            return histogram.quantile(q)

    # -- snapshots ---------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-able dump of every series (labels joined with ``|``)."""
        with self._lock:
            return {
                "counters": {
                    f"{name}[{'|'.join(labels)}]": value
                    for (name, labels), value in self._counters.items()
                },
                "gauges": {
                    f"{name}[{'|'.join(labels)}]": value
                    for (name, labels), value in self._gauges.items()
                },
                "histograms": {
                    f"{name}[{'|'.join(labels)}]": histogram.snapshot()
                    for (name, labels), histogram in self._histograms.items()
                },
            }

    def reset(self) -> None:
        """Drop every series (test isolation)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


#: The process-global registry every layer instruments against.
METRICS = MetricsRegistry()
