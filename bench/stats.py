"""Small statistics helpers: percentiles, windows, spreads.

A *sample* is ``(start, end, op_class, ok)`` in seconds on the
``perf_counter`` clock.  A failed op has no meaningful latency, so it is
charged ``failed_latency`` — larger than anything a successful op can
take — and therefore counts as slower than every percentile.
"""

from __future__ import annotations

import statistics
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

Sample = Tuple[float, float, str, bool]


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100), linearly interpolated between
    order statistics; ``nan`` for no values."""
    if not values:
        return float("nan")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def spread(values: Sequence[float]) -> float:
    """Inter-quartile range as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (third - first) / middle if middle else 0.0


def latencies_ms(
    samples: Iterable[Sample], classes: Optional[Sequence[str]], failed_latency: float
) -> List[float]:
    """Latencies in ms of the samples in ``classes`` (all when ``None``)."""
    return [
        ((end - start) if ok else failed_latency) * 1000.0
        for start, end, op_class, ok in samples
        if classes is None or op_class in classes
    ]


def split_windows(
    samples: Iterable[Sample], first_start: float, width: float, count: int
) -> List[List[Sample]]:
    """Bucket samples into ``count`` back-to-back windows, each sample
    into the window it *completed* in (that is what throughput counts)."""
    windows: List[List[Sample]] = [[] for _ in range(count)]
    for sample in samples:
        index = int((sample[1] - first_start) // width) if sample[1] >= first_start else -1
        if 0 <= index < count:
            windows[index].append(sample)
    return windows


def window_medians(per_window: Sequence[Dict[str, float]]) -> Dict[str, Tuple[float, float]]:
    """``name -> (median over windows, IQR/median over windows)``."""
    out: Dict[str, Tuple[float, float]] = {}
    for name in per_window[0]:
        values = [window[name] for window in per_window]
        out[name] = (statistics.median(values), spread(values))
    return out
