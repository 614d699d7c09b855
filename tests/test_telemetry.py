"""Unit tests for the telemetry subsystem: metrics, exporters, hub."""

import json
import time

from repro.context import SPAN_LIMIT, CallContext, SpanRecord
from repro.telemetry.exporters import (
    JsonlExporter,
    RingExporter,
    SpanExporter,
    TraceChain,
    derive_parents,
    span_id,
)
from repro.telemetry.hub import TelemetryHub, flush_context, get_hub, use_exporter
from repro.telemetry.metrics import METRICS, Histogram, MetricsRegistry


def make_chain(trace_id="t-test", n=3, dropped=0):
    spans = [
        SpanRecord("rpc", f"op-{index}", started_at=float(index), elapsed=0.5)
        for index in range(n)
    ]
    return TraceChain(trace_id, spans, dropped)


# -- metrics registry --------------------------------------------------------


def test_counters_by_label_tuple():
    registry = MetricsRegistry()
    registry.inc("calls", ("100001", "1"))
    registry.inc("calls", ("100001", "1"))
    registry.inc("calls", ("100001", "2"))
    assert registry.counter("calls", ("100001", "1")) == 2
    assert registry.counter("calls", ("100001", "2")) == 1
    assert registry.counter("calls", ("other", "9")) == 0
    assert registry.counter_total("calls") == 3
    assert registry.counters("cal")["calls"][("100001", "1")] == 2


def test_histogram_quantiles_and_snapshot():
    histogram = Histogram(bounds=(0.001, 0.01, 0.1, 1.0))
    for value in (0.0005, 0.005, 0.005, 0.05, 0.5):
        histogram.observe(value)
    snap = histogram.snapshot()
    assert snap["count"] == 5
    assert snap["max"] == 0.5
    assert 0.0 < snap["p50"] <= 0.01
    assert snap["p95"] <= 0.5
    registry = MetricsRegistry()
    registry.observe("lat", 0.02, ("a",))
    assert registry.histogram("lat", ("a",))["count"] == 1
    assert registry.histogram("lat", ("b",)) is None
    assert registry.estimate("lat", ("a",)) is not None
    registry.reset()
    assert registry.histogram("lat", ("a",)) is None


def test_observe_ignores_bad_values():
    registry = MetricsRegistry()
    registry.observe("lat", float("nan"))
    registry.observe("lat", "oops")  # type: ignore[arg-type]
    assert registry.histogram("lat") is None


# -- ring exporter -----------------------------------------------------------


def test_ring_exporter_evicts_oldest_first():
    ring = RingExporter(capacity=2)
    for index in range(3):
        ring.export(make_chain(trace_id=f"t-{index}"))
    chains = ring.chains()
    assert [chain.trace_id for chain in chains] == ["t-1", "t-2"]
    assert ring.exported == 3
    assert ring.evicted == 1


# -- jsonl exporter ----------------------------------------------------------


def test_jsonl_exporter_writes_one_chain_per_line(tmp_path):
    path = tmp_path / "traces.jsonl"
    exporter = JsonlExporter(str(path))
    exporter.export(make_chain(n=2, dropped=4))
    exporter.export(make_chain(trace_id="t-second", n=1))
    exporter.close()
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(lines) == 2
    assert lines[0]["trace_id"] == "t-test"
    assert lines[0]["dropped"] == 4  # spans_dropped surfaces in export output
    assert lines[0]["spans"][0]["span_id"] == span_id("t-test", 0)
    assert exporter.lines_written == 2


def test_jsonl_exporter_degrades_to_noop_on_unwritable_path(tmp_path):
    before = METRICS.counter("telemetry.export_errors", ("jsonl",))
    exporter = JsonlExporter(str(tmp_path))  # a directory: open() raises OSError
    exporter.export(make_chain())  # must not raise
    assert exporter.disabled is True
    assert METRICS.counter("telemetry.export_errors", ("jsonl",)) == before + 1
    exporter.export(make_chain())  # disabled: no second error, still no raise
    assert METRICS.counter("telemetry.export_errors", ("jsonl",)) == before + 1
    assert exporter.lines_written == 0


# -- otlp exporter -----------------------------------------------------------


def nested_chain():
    # Spans are appended on *completion*: the inner rpc span completes
    # before the trader span that encloses it.
    inner = SpanRecord("rpc", "call", started_at=1.0, elapsed=1.0)
    outer = SpanRecord("trader", "import", started_at=0.0, elapsed=5.0)
    return TraceChain("t-nest", [inner, outer], dropped=2)


def test_derive_parents_uses_interval_containment():
    chain = nested_chain()
    assert derive_parents(chain.spans) == [1, None]


# -- hub ---------------------------------------------------------------------


class _ExplodingExporter(SpanExporter):
    def export(self, chain):
        raise RuntimeError("boom")


def test_hub_swallows_exporter_failures_and_counts_them():
    hub = TelemetryHub()
    ring = hub.add_exporter(RingExporter())
    hub.add_exporter(_ExplodingExporter())
    before = METRICS.counter("telemetry.export_errors", ("_ExplodingExporter",))
    hub.export_chain(make_chain())  # must not raise
    assert ring.exported == 1
    assert METRICS.counter("telemetry.export_errors", ("_ExplodingExporter",)) == before + 1


def test_hub_counts_dropped_spans_on_export():
    hub = TelemetryHub()
    hub.add_exporter(RingExporter())
    before = METRICS.counter("context.spans_dropped_total")
    hub.export_chain(make_chain(dropped=7))
    assert METRICS.counter("context.spans_dropped_total") == before + 7


def test_finish_flushes_once_and_is_idempotent():
    with use_exporter(RingExporter()) as ring:
        ctx = CallContext.background()
        with ctx.span("rpc", "ping", lambda: 0.0):
            pass
        ctx.finish()
        ctx.finish()
    assert ring.exported == 1
    chain = ring.chains()[0]
    assert chain.trace_id == ctx.trace_id
    assert chain.layers() == ["rpc"]


def test_flush_context_without_exporters_is_a_fast_noop():
    ctx = CallContext.background()
    with ctx.span("rpc", "ping", lambda: 0.0):
        pass
    hub = get_hub()
    before = hub.chains_exported
    start = time.perf_counter()
    for _ in range(10_000):
        flush_context(ctx)
    elapsed = time.perf_counter() - start
    assert hub.chains_exported == before
    # The no-exporter fast path must stay negligible next to any RPC:
    # 10k flushes in well under half a second even on a loaded CI host.
    assert elapsed < 0.5


# -- span chains ------------------------------------------------------------


def test_derived_contexts_share_one_span_chain():
    ctx = CallContext.background()
    child = ctx.hop("a")
    grandchild = child.derive(deadline=5.0)
    assert child.spans is ctx.spans
    assert grandchild.spans is ctx.spans
    shim = CallContext.background()
    shim.share_chain(ctx)
    assert shim.spans is ctx.spans


def test_span_overflow_is_counted_per_chain_and_globally():
    ctx = CallContext.background()
    before = METRICS.counter("context.spans_dropped")
    for index in range(SPAN_LIMIT + 5):
        ctx.record_span(SpanRecord("rpc", f"op-{index}", started_at=0.0))
    assert len(ctx.spans) == SPAN_LIMIT
    assert ctx.spans_dropped == 5
    assert METRICS.counter("context.spans_dropped") == before + 5
    with use_exporter(RingExporter()) as ring:
        ctx.finish()
    assert ring.chains()[0].dropped == 5
    assert ring.chains()[0].to_wire()["dropped"] == 5
