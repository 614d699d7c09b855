"""Self time from nested, cross-thread and overlapping spans."""

import pytest

from bench import layers


def span(ident, layer, name, start, end, parent=None, n=0):
    return {
        "id": ident, "parent": parent, "layer": layer, "name": name,
        "start": start, "end": end, "n": n,
    }


def test_self_time_is_duration_minus_covered_part_of_children():
    spans = [
        span("a", "rpc.client", "RpcClient.call", 0.0, 10.0),
        span("b", "rpc.codec", "encode", 1.0, 3.0, "a"),
        span("c", "rpc.transport", "send", 4.0, 9.0, "a"),
        span("d", "rpc.codec", "inner", 5.0, 6.0, "c"),
    ]
    own, uncovered = layers.self_times(spans, 0.0, 10.0)
    assert own["a"] == pytest.approx(3.0)  # 10 - (2 + 5)
    assert own["b"] == pytest.approx(2.0)
    assert own["c"] == pytest.approx(4.0)  # 5 - 1
    assert own["d"] == pytest.approx(1.0)
    assert uncovered == 0.0
    assert sum(own.values()) == pytest.approx(10.0)


def test_overlapping_spans_from_two_threads_never_count_an_instant_twice():
    # The sender returns (t=5) after the receiver already started (t=4):
    # the overlap belongs to the span that started last.
    spans = [
        span("send", "rpc.transport", "send", 2.0, 5.0),
        span("recv", "rpc.message", "receive", 4.0, 8.0),
    ]
    own, uncovered = layers.self_times(spans, 0.0, 10.0)
    assert own["send"] == pytest.approx(2.0)
    assert own["recv"] == pytest.approx(4.0)
    assert uncovered == pytest.approx(4.0)  # [0,2] and [8,10]
    assert sum(own.values()) + uncovered == pytest.approx(10.0)


def test_a_wait_that_starts_late_is_not_charged_for_the_work_it_waits_for():
    # The caller lost the interpreter lock right after sending and only
    # reached its wait at t=6, long after the callee started at t=2.
    spans = [
        span("work", "trader.trader", "LocalTrader.import_wire", 2.0, 9.0),
        span("wait", "rpc.client", "wait", 6.0, 10.0),
    ]
    own, uncovered = layers.self_times(spans, 0.0, 10.0)
    assert own["work"] == pytest.approx(7.0)
    assert own["wait"] == pytest.approx(1.0)  # only [9,10], when nothing else ran
    assert uncovered == pytest.approx(2.0)


def test_spans_are_clipped_to_the_op_interval():
    # Server-side tail work after the reply was received is off the op.
    own, uncovered = layers.self_times(
        [span("tail", "rpc.server", "RpcServer.handle_call", 1.0, 30.0)], 0.0, 10.0
    )
    assert own["tail"] == pytest.approx(9.0)
    assert uncovered == pytest.approx(1.0)


def test_wire_span_fills_the_gap_between_send_and_peer_receive():
    spans = [
        span("s1", "rpc.transport", "send", 1.0, 2.0, n=100),
        span("r1", "rpc.message", "receive", 2.5, 4.0, n=100),
        span("s2", "rpc.transport", "send", 3.0, 3.5, n=60),  # the reply
        span("r2", "rpc.message", "receive", 3.4, 3.9, n=60),  # woke before send returned
    ]
    wires = layers.add_wire_spans(spans)
    assert [(w["start"], w["end"], w["parent"]) for w in wires] == [(2.0, 2.5, "s1")]
    assert wires[0]["layer"] == "rpc.transport" and wires[0]["name"] == "wire"


def test_layers_and_unattributed_sum_to_the_latency():
    ops = [(0.0, 10.0, "leaf", True), (20.0, 26.0, "fanout", True)]
    spans = [
        span("a", "trader.trader", "TraderClient.import_", 0.5, 9.5),
        span("b", "rpc.client", "RpcClient.call", 1.0, 9.0, "a"),
        span("c", "rpc.transport", "send", 2.0, 3.0, "b", n=80),
        span("d", "rpc.message", "receive", 3.5, 7.0, n=80),
        span("e", "trader.offers", "OfferStore.candidates", 4.0, 6.0, "d", n=30),
        span("f", "trader.trader", "LocalTrader.import_wire", 3.8, 6.5, "d", n=10),
        span("g", "trader.trader", "TraderClient.import_", 20.0, 26.0),
        span("stray", "rpc.client", "RpcClient.call", 12.0, 13.0),  # between ops: dropped
    ]
    result = layers.analyse(spans, ops)
    per_op = result["per_op"]
    total_us = sum(
        value for name, value in per_op.items() if name.endswith(".self_us_per_op")
    )
    assert total_us == pytest.approx((10.0 + 6.0) / 2 * 1e6)
    assert per_op["unattributed.self_us_per_op"] == pytest.approx(0.5 * 1e6)  # 2 x 0.5 s / 2 ops
    assert per_op["rpc.transport.wire_us_per_op"] == pytest.approx(0.25 * 1e6)
    assert per_op["rpc.transport.calls_per_op"] == 0.5  # the wire span is not a call
    assert per_op["rpc.transport.bytes_per_op"] == 40.0
    assert per_op["trader.offers.examined_per_result"] == 3.0
    assert result["by_class"]["fanout"]["trader.trader"] == pytest.approx(6.0 * 1e6)


def test_unknown_layer_is_an_error_not_a_silent_gap():
    with pytest.raises(ValueError):
        layers.analyse([span("x", "mystery", "f", 0.0, 1.0)], [(0.0, 2.0, "a", True)])
