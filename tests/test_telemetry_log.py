"""Occurrence records: one ``occurred`` call counts, annotates the site's
span, and writes one trace-correlated record through the hub."""

from __future__ import annotations

import json

from repro.context import CallContext, SpanRecord, use_context
from repro.rpc.client import RpcClient
from repro.rpc.errors import ServerShedding
from repro.rpc.resilience import BackoffPolicy, BreakerPolicy, CircuitBreaker, ResilientCaller
from repro.rpc.server import AdmissionPolicy, RpcProgram, RpcServer
from repro.rpc.transport import SimTransport
from repro.telemetry.exporters import JsonlExporter, RingExporter, SpanExporter, TraceChain
from repro.telemetry.hub import TelemetryHub, occurred, use_exporter
from repro.telemetry.metrics import METRICS
from repro.telemetry.sampling import SamplingPolicy, use_policy
from tests.conftest import RecordExporter


class _RaisingExporter(SpanExporter):
    def export(self, chain):
        pass

    def write_record(self, record):
        raise OSError("disk gone")


# -- occurred ----------------------------------------------------------------


def test_event_is_a_noop_without_sinks(monkeypatch):
    """No exporter: the counter still counts, and no record is built."""

    def no_record(self, record):
        raise AssertionError(f"record built without an exporter: {record}")

    monkeypatch.setattr(TelemetryHub, "write_record", no_record)
    before = METRICS.counter("test.occurrence", ("a",))
    occurred("test.occurrence", ("a",), 1.0, detail=3)
    assert METRICS.counter("test.occurrence", ("a",)) == before + 1


def test_event_record_shape_and_field_passthrough():
    with use_exporter(RecordExporter()) as sink:
        occurred("test.shape", ("arrival", "trader"), 2.5, stage="arrival", skipped=None)
    (record,) = sink.records  # no context, no span: nothing to stamp
    assert record == {
        "kind": "event",
        "event": "test.shape",
        "at": 2.5,
        "labels": ["arrival", "trader"],
        "stage": "arrival",  # None-valued fields stay out
    }


def test_span_gets_the_event_under_the_counter_name():
    span = SpanRecord("rpc", "call", started_at=0.0)
    with use_exporter(RecordExporter()) as sink:
        occurred("test.span_event", (), 1.25, span, attempt=2)
    assert span.events == [{"name": "test.span_event", "at": 1.25, "attempt": 2}]
    (record,) = sink.records
    assert record["span_uid"] == span.uid


def test_ambient_trace_and_span_are_stamped():
    ctx = CallContext.background()
    with use_exporter(RecordExporter()) as sink:
        with use_context(ctx):
            with ctx.span("trader", "export", lambda: 1.0):
                occurred("test.ambient", (), 1.5)
    (record,) = sink.records
    assert record["trace_id"] == ctx.trace_id
    assert record["span_uid"] == ctx.spans[0].uid


def test_explicit_fields_beat_ambient_stamping():
    ctx = CallContext.background()
    with use_exporter(RecordExporter()) as sink:
        with use_context(ctx):
            occurred("test.explicit", (), 1.0, trace_id="wire-trace-7")
    (record,) = sink.records
    assert record["trace_id"] == "wire-trace-7"  # the wire id, not ambient


def test_failing_sink_is_counted_not_fatal():
    errors_before = METRICS.counter("telemetry.export_errors", ("_RaisingExporter",))
    with use_exporter(_RaisingExporter()), use_exporter(RecordExporter()) as good:
        occurred("test.failing_sink", (), 1.0)  # must not raise
    assert len(good.records) == 1  # the healthy exporter still saw the record
    assert (
        METRICS.counter("telemetry.export_errors", ("_RaisingExporter",))
        == errors_before + 1
    )


def test_use_exporter_scopes_records():
    with use_exporter(RecordExporter()) as sink:
        occurred("test.scoped", (), 1.0)
    occurred("test.scoped", (), 2.0)  # no exporter: counted, no record
    assert [record["at"] for record in sink.records] == [1.0]


def test_log_records_share_the_span_jsonl_sink(tmp_path):
    """One stream: span chains and occurrence records interleave in the
    same rotating file, told apart by ``kind``."""
    path = tmp_path / "mixed.jsonl"
    exporter = JsonlExporter(str(path))
    with use_exporter(exporter):
        exporter.export(
            TraceChain("t-mix", [SpanRecord("rpc", "op", started_at=1.0, elapsed=0.1)])
        )
        occurred("test.mixed", (), 1.2, trace_id="t-mix")
    exporter.close()
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(rows) == 2
    assert "spans" in rows[0] and rows[0]["trace_id"] == "t-mix"
    assert rows[1]["kind"] == "event" and rows[1]["trace_id"] == "t-mix"


def test_head_sampled_out_chain_still_leaves_its_records():
    """Records are not head-sampled: the chain an occurrence sits in may
    be dropped, the occurrence's record is not."""
    ctx = CallContext.background()
    ring = RingExporter()
    with use_policy(SamplingPolicy(rate=0.0)):
        with use_exporter(ring), use_exporter(RecordExporter()) as sink:
            with use_context(ctx):
                with ctx.span("resilience", "call", lambda: 1.0) as span:
                    occurred("rpc.failover.attempts", ("ep:9",), 1.0, span, endpoint="ep:9")
            ctx.finish()
    assert ring.chains() == []  # the ok chain was sampled out
    (record,) = sink.records
    assert record["event"] == "rpc.failover.attempts"
    assert record["trace_id"] == ctx.trace_id


# -- the occurrence sites ------------------------------------------------------


def shedding_server(net):
    server = RpcServer(
        SimTransport(net, "logshed"),
        admission=AdmissionPolicy(min_samples=1, quantile=0.5),
    )
    transport = server.transport
    program = RpcProgram(992000, name="slowlog")

    def busy(args):
        transport.wait(lambda: False, 0.4)
        return "ok"

    program.register(1, busy, "busy")
    server.serve(program)
    client = RpcClient(SimTransport(net, "logshed-cli"), timeout=1.0)
    client.call(server.address, 992000, 1, 1, None, timeout=2.0, retries=0)
    return server, client


def test_server_shed_emits_correlated_log_record(net):
    server, client = shedding_server(net)
    # Head-sampled out, the shed still leaves its record.
    with use_policy(SamplingPolicy(rate=0.0)), use_exporter(RecordExporter()) as sink:
        try:
            client.call(server.address, 992000, 1, 1, None, timeout=0.05, retries=0)
        except ServerShedding:
            pass
    sheds = [record for record in sink.records if record["event"] == "rpc.server.shed"]
    assert sheds, f"no shed record in {sink.records}"
    assert sheds[0]["labels"] == ["arrival", "slowlog", "1"]
    assert sheds[0]["stage"] == "arrival"
    assert sheds[0]["program"] == "slowlog"
    assert sheds[0].get("trace_id")  # correlated with the wire trace
    (received,) = [r for r in sink.records if r["event"] == "rpc.client.shed_received"]
    assert received["span_uid"]  # the rpc span the event was added to


def test_client_shed_record_carries_the_calls_trace_id(net):
    """The client settles a shed call outside any ambient scope, so its
    record takes the call's own trace id — the one the server read off
    the wire for its shed record — not an ambient one."""
    server, client = shedding_server(net)
    with use_exporter(RecordExporter()) as sink:
        try:
            client.call(server.address, 992000, 1, 1, None, timeout=0.05, retries=0)
        except ServerShedding:
            pass
    sheds = [record for record in sink.records if record["event"] == "rpc.server.shed"]
    (received,) = [r for r in sink.records if r["event"] == "rpc.client.shed_received"]
    assert sheds and received["trace_id"] == sheds[0]["trace_id"]


def test_breaker_transitions_emit_log_records():
    clock = {"now": 0.0}
    breaker = CircuitBreaker(
        "ep:1", BreakerPolicy(failure_threshold=2, probe_interval=1.0),
        lambda: clock["now"],
    )
    with use_exporter(RecordExporter()) as sink:
        breaker.record_failure()
        breaker.record_failure()  # trips open
        clock["now"] = 2.0
        assert breaker.allow() is True  # the half-open probe
        breaker.record_success()  # closes
    records = sink.records
    assert [record["event"] for record in records] == [
        "rpc.breaker.opens", "rpc.breaker.closes",
    ]
    assert records[0]["labels"] == ["ep:1"]
    assert records[0]["endpoint"] == "ep:1"
    assert records[0]["failures"] == 2
    assert records[0]["opens"] == 1
    assert records[1]["at"] == 2.0


def test_breaker_records_are_written_outside_the_breaker_lock():
    """An exporter's write never runs under the breaker's lock: callers
    of the breaker do not wait on it, and it may read the breaker."""
    clock = {"now": 0.0}
    breaker = CircuitBreaker(
        "ep:2", BreakerPolicy(failure_threshold=1, probe_interval=1.0),
        lambda: clock["now"],
    )
    held = []

    class LockProbe(SpanExporter):
        def export(self, chain):
            pass

        def write_record(self, record):
            held.append((record["event"], breaker._lock.locked()))

    with use_exporter(LockProbe()):
        breaker.record_failure()  # trips open
        clock["now"] = 2.0
        assert breaker.allow() is True
        breaker.record_failure()  # the probe fails: open again
        clock["now"] = 4.0
        assert breaker.allow() is True
        breaker.record_success()  # closes
    assert held == [
        ("rpc.breaker.opens", False),
        ("rpc.breaker.opens", False),
        ("rpc.breaker.closes", False),
    ]


def test_failover_emits_log_record(net):
    dead = SimTransport(net, "dead-ep")
    dead.set_receiver(lambda source, payload: None)
    alive_server = RpcServer(SimTransport(net, "alive-ep"))
    program = RpcProgram(992100, name="echo")
    program.register(1, lambda args: "pong", "echo")
    alive_server.serve(program)
    client = RpcClient(SimTransport(net, "failover-cli"), timeout=0.2, retries=0)
    caller = ResilientCaller(client, backoff=BackoffPolicy(base=0.01, cap=0.05))
    with use_exporter(RecordExporter()) as sink:
        result = caller.call(
            [dead.local_address, alive_server.address], 992100, 1, 1, None,
        )
    assert result == "pong"
    failovers = [r for r in sink.records if r["event"] == "rpc.failover.attempts"]
    assert failovers
    assert failovers[0]["endpoint"] == str(alive_server.address)
    assert failovers[0]["candidates_left"] == 1
    assert any(r["event"] == "rpc.backoff.sleeps" for r in sink.records)


def test_lease_expiry_emits_log_records(net):
    from repro.naming.refs import ServiceRef
    from repro.net.endpoints import Address
    from repro.sidl.types import DOUBLE, InterfaceType, LONG, OperationType
    from repro.trader.service_types import ServiceType
    from repro.trader.trader import LocalTrader

    trader = LocalTrader("t-log", clock=lambda: net.clock.now)
    trader.add_type(
        ServiceType(
            "S", InterfaceType("I", [OperationType("Op", [], LONG)]),
            [("P", DOUBLE)],
        )
    )
    offer_id = trader.export(
        "S", ServiceRef.create("s-1", Address("w", 1), 4711), {"P": 1.0},
        now=net.clock.now, lease_seconds=1.0,
    )
    with use_exporter(RecordExporter()) as sink:
        swept = trader.expire_offers(net.clock.now + 5.0)
    assert swept == 1
    (expired,) = [r for r in sink.records if r["event"] == "trader.offers.expired"]
    assert expired["labels"] == ["t-log", "swept"]
    assert expired["offer"] == offer_id
    assert expired["mode"] == "swept"
    assert expired["trader"] == "t-log"
