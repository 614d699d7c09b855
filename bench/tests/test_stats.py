"""The harness's own arithmetic: percentiles, windows, spreads."""

import math

from bench import stats


def test_percentile_interpolates_between_order_statistics():
    values = [4.0, 1.0, 3.0, 2.0]
    assert stats.percentile(values, 0) == 1.0
    assert stats.percentile(values, 50) == 2.5
    assert stats.percentile(values, 100) == 4.0
    assert stats.percentile([7.0], 95) == 7.0
    assert math.isnan(stats.percentile([], 50))


def test_failed_op_is_slower_than_every_percentile():
    samples = [(0.0, 0.001, "a", True)] * 99 + [(0.0, 0.0005, "a", False)]
    latencies = stats.latencies_ms(samples, None, failed_latency=10.0)
    assert max(latencies) == 10_000.0
    assert stats.percentile(latencies, 100) == 10_000.0
    assert stats.percentile(latencies, 50) == 1.0


def test_latencies_filter_by_class():
    samples = [(0.0, 0.002, "scan", True), (0.0, 0.001, "unranked", True)]
    assert stats.latencies_ms(samples, ("scan",), 10.0) == [2.0]
    assert sorted(stats.latencies_ms(samples, None, 10.0)) == [1.0, 2.0]


def test_windows_bucket_samples_by_completion_time():
    samples = [
        (0.5, 0.9, "a", True),  # completes during the warm-up: in no window
        (0.9, 1.1, "a", True),  # starts in the warm-up, completes in window 0
        (1.9, 2.1, "a", True),  # straddles windows 0 and 1: counts in 1
        (2.9, 3.5, "a", True),  # completes after the last window
    ]
    windows = stats.split_windows(samples, first_start=1.0, width=1.0, count=2)
    assert [[sample[0] for sample in window] for window in windows] == [[0.9], [1.9]]


def test_window_medians_report_median_and_spread():
    per_window = [{"p50_ms": value} for value in (1.0, 2.0, 3.0, 4.0, 100.0)]
    median, noise = stats.window_medians(per_window)["p50_ms"]
    assert median == 3.0  # one wild window does not move the reported value
    assert noise > 0
    assert stats.spread([5.0]) == 0.0
    assert stats.spread([2.0, 2.0, 2.0]) == 0.0
