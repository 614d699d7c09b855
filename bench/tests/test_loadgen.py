"""Open-loop accounting: latency from the due time, and how late sends ran."""

import time
from time import perf_counter

import pytest

from bench import config, loadgen


class _SlowTrader:
    """Stands in for ``TraderClient``: every import takes ``service`` seconds."""

    def __init__(self, service: float) -> None:
        self.service = service

    def import_(self, request):
        time.sleep(self.service)
        return [object()] * request["max_matches"]


class _Connection:
    index = 0

    def __init__(self, service: float) -> None:
        self.trader = _SlowTrader(service)


def _op(matches=1):
    return ["import", "leaf_range", {"max_matches": matches}, matches]


def test_open_loop_latency_counts_from_the_due_time_not_the_send():
    client = loadgen.Client(_Connection(0.02), oracle=None)
    due = perf_counter() - 0.05  # the request fell due 50 ms ago: the generator stalled
    client.execute(_op(), due)
    start, end, label, ok = client.samples[0]
    assert start == due and ok and label == "leaf_range"
    assert end - start >= 0.07  # the stall is charged to the request
    assert client.lags[0] == pytest.approx(0.05, abs=0.01)


def test_closed_loop_latency_counts_from_the_send_and_records_no_lag():
    client = loadgen.Client(_Connection(0.01), oracle=None)
    client.execute(_op())
    start, end, _, ok = client.samples[0]
    assert ok and 0.01 <= end - start < 0.05
    assert client.lags == []


def test_wrong_answer_and_exception_are_failed_ops():
    client = loadgen.Client(_Connection(0.0), oracle=None)
    client.execute(["import", "scan", {"max_matches": 3}, 10])  # 3 offers, 10 expected
    client.execute(["renew", "b:Rental0:1"])  # the stand-in has no renew: raises
    assert [sample[3] for sample in client.samples] == [False, False]
    assert [sample[2] for sample in client.samples] == ["scan", "renew"]
    assert len(client.errors) == 2


def test_late_share_counts_sends_begun_more_than_a_millisecond_late():
    assert loadgen.late_share([]) == 0.0
    assert loadgen.late_share([0.0, 0.0005, 0.0011, 0.02]) == 0.5
    assert config.LATE_AFTER == 0.001


def test_run_open_sends_on_schedule_whatever_the_replies_do():
    # Service time (30 ms) far above the inter-arrival gap (5 ms): a closed
    # loop would fall behind; the open loop must not.
    client = loadgen.Client(_Connection(0.03), oracle=None)
    schedule = [(0.005 * (index + 1), _op()) for index in range(16)]
    started = perf_counter() + 0.01
    loadgen.run_open([client], [schedule], started)
    assert len(client.samples) == 16
    dues = sorted(sample[0] - started for sample in client.samples)
    assert dues == pytest.approx([offset for offset, _ in schedule])
    assert max(client.lags) < 0.02  # no send waited for an earlier reply
    assert all(sample[1] - sample[0] >= 0.03 for sample in client.samples)
