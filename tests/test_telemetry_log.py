"""Trace-correlated structured logging and its adoption at noisy sites."""

from __future__ import annotations

import json

from repro.context import CallContext
from repro.rpc.client import RpcClient
from repro.rpc.errors import ServerShedding
from repro.rpc.resilience import BreakerPolicy, CircuitBreaker
from repro.rpc.server import AdmissionPolicy, RpcProgram, RpcServer
from repro.rpc.transport import SimTransport
from repro.telemetry.exporters import JsonlExporter, TraceChain
from repro.telemetry.log import LOG, StructuredLogger, use_log_sink
from repro.telemetry.metrics import METRICS


# -- StructuredLogger --------------------------------------------------------


def test_event_is_a_noop_without_sinks():
    logger = StructuredLogger()
    assert logger.active is False
    logger.event("anything", at=1.0)
    assert logger.records_written == 0


def test_event_record_shape_and_field_passthrough():
    logger = StructuredLogger()
    records = []
    logger.attach(records.append)
    assert logger.active is True
    logger.event("rpc.shed", level="warning", at=2.5, stage="arrival", skipped=None)
    (record,) = records
    assert record["kind"] == "log"
    assert record["event"] == "rpc.shed"
    assert record["level"] == "warning"
    assert record["at"] == 2.5
    assert record["stage"] == "arrival"
    assert "skipped" not in record  # None-valued fields stay out
    assert logger.records_written == 1


def test_ambient_trace_and_span_are_stamped():
    logger = StructuredLogger()
    records = []
    logger.attach(records.append)
    ctx = CallContext.background()
    from repro.context import use_context

    with use_context(ctx):
        with ctx.span("trader", "export", lambda: 1.0):
            logger.event("trader.lease_expired", at=1.5)
    (record,) = records
    assert record["trace_id"] == ctx.trace_id
    assert record["span_uid"] == ctx.spans[0].uid


def test_explicit_fields_beat_ambient_stamping():
    logger = StructuredLogger()
    records = []
    logger.attach(records.append)
    ctx = CallContext.background()
    from repro.context import use_context

    with use_context(ctx):
        logger.event("rpc.shed", at=1.0, trace_id="wire-trace-7")
    (record,) = records
    assert record["trace_id"] == "wire-trace-7"  # the wire id, not ambient


def test_failing_sink_is_counted_not_fatal():
    logger = StructuredLogger()

    def bad_sink(record):
        raise OSError("disk gone")

    good = []
    logger.attach(bad_sink)
    logger.attach(good.append)
    errors_before = METRICS.counter_total("telemetry.log_errors")
    logger.event("rpc.shed", at=1.0)
    assert len(good) == 1  # the healthy sink still saw the record
    assert METRICS.counter_total("telemetry.log_errors") > errors_before


def test_use_log_sink_scopes_attachment():
    records = []
    with use_log_sink(records.append):
        assert LOG.active is True
        LOG.event("scoped", at=1.0)
    assert LOG.active is False
    LOG.event("after", at=2.0)  # no sink: dropped
    assert [record["event"] for record in records] == ["scoped"]


def test_log_records_share_the_span_jsonl_sink(tmp_path):
    """One stream: span chains and log records interleave in the same
    rotating file, distinguishable by ``kind``."""
    from repro.context import SpanRecord

    path = tmp_path / "mixed.jsonl"
    exporter = JsonlExporter(str(path))
    with use_log_sink(exporter.write_record):
        exporter.export(
            TraceChain("t-mix", [SpanRecord("rpc", "op", started_at=1.0, elapsed=0.1)])
        )
        LOG.event("rpc.shed", level="warning", at=1.2, trace_id="t-mix")
    exporter.close()
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(rows) == 2
    assert "spans" in rows[0] and rows[0]["trace_id"] == "t-mix"
    assert rows[1]["kind"] == "log" and rows[1]["trace_id"] == "t-mix"


# -- adoption at the noisy call sites ----------------------------------------


def test_server_shed_emits_correlated_log_record(net):
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
    records = []
    with use_log_sink(records.append):
        try:
            client.call(server.address, 992000, 1, 1, None, timeout=0.05, retries=0)
        except ServerShedding:
            pass
    sheds = [record for record in records if record["event"] == "rpc.shed"]
    assert sheds, f"no shed record in {records}"
    assert sheds[0]["level"] == "warning"
    assert sheds[0]["stage"] == "arrival"
    assert sheds[0]["program"] == "slowlog"
    assert sheds[0].get("trace_id")  # correlated with the wire trace


def test_breaker_transitions_emit_log_records():
    clock = {"now": 0.0}
    breaker = CircuitBreaker(
        "ep:1", BreakerPolicy(failure_threshold=2, probe_interval=1.0),
        lambda: clock["now"],
    )
    records = []
    with use_log_sink(records.append):
        breaker.record_failure()
        breaker.record_failure()  # trips open
        clock["now"] = 2.0
        assert breaker.allow() is True  # the half-open probe
        breaker.record_success()  # closes
    events = [record["event"] for record in records]
    assert events == ["rpc.breaker_open", "rpc.breaker_closed"]
    assert records[0]["endpoint"] == "ep:1"
    assert records[0]["level"] == "warning"
    assert records[0]["failures"] == 2


def test_failover_emits_log_record(net):
    from repro.rpc.resilience import BackoffPolicy, ResilientCaller

    dead = SimTransport(net, "dead-ep")
    dead.set_receiver(lambda source, payload: None)
    alive_server = RpcServer(SimTransport(net, "alive-ep"))
    program = RpcProgram(992100, name="echo")
    program.register(1, lambda args: "pong", "echo")
    alive_server.serve(program)
    client = RpcClient(SimTransport(net, "failover-cli"), timeout=0.2, retries=0)
    caller = ResilientCaller(client, backoff=BackoffPolicy(base=0.01, cap=0.05))
    records = []
    with use_log_sink(records.append):
        result = caller.call(
            [dead.local_address, alive_server.address], 992100, 1, 1, None,
        )
    assert result == "pong"
    failovers = [record for record in records if record["event"] == "rpc.failover"]
    assert failovers
    assert failovers[0]["level"] == "warning"
    assert failovers[0]["endpoint"]


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
    records = []
    with use_log_sink(records.append):
        swept = trader.expire_offers(net.clock.now + 5.0)
    assert swept == 1
    expired = [record for record in records if record["event"] == "trader.lease_expired"]
    assert expired
    assert expired[0]["offer"] == offer_id
    assert expired[0]["mode"] == "swept"
    assert expired[0]["trader"] == "t-log"
