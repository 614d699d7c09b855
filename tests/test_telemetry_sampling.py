"""Trace sampling: deterministic head decisions, wire flag, tail keeps."""

from __future__ import annotations

import gc
import warnings

import pytest

from repro.context import CallContext
from repro.net import SimNetwork
from repro.rpc.client import RpcClient
from repro.rpc.errors import RemoteFault
from repro.rpc.message import RpcCall, decode_message
from repro.rpc.server import RpcProgram, RpcServer
from repro.rpc.transport import SimTransport
from repro.telemetry import sampling
from repro.telemetry.exporters import RingExporter
from repro.telemetry.hub import use_exporter
from repro.telemetry.metrics import METRICS
from repro.telemetry.sampling import SamplingPolicy, head_sampled, use_policy


# -- the head decision -------------------------------------------------------


def test_head_decision_is_deterministic_per_trace():
    for trace_id in ("t-1", "t-2", "trader-abc"):
        first = head_sampled(trace_id, 0.5)
        assert all(head_sampled(trace_id, 0.5) == first for __ in range(5))
    assert head_sampled("anything", 1.0) is True
    assert head_sampled("anything", 0.0) is False


def test_head_rate_is_roughly_honoured():
    kept = sum(head_sampled(f"trace-{index}", 0.25) for index in range(4000))
    assert 0.20 < kept / 4000 < 0.30


def test_default_policy_marks_nothing():
    ctx = CallContext.background()
    assert sampling.mark(ctx) is None  # rate=1.0: nothing rides the wire
    assert ctx.sampled is None


def test_mark_stamps_once_and_inherits():
    with use_policy(SamplingPolicy(rate=0.5)):
        ctx = CallContext.background()
        decision = sampling.mark(ctx)
        assert decision is head_sampled(ctx.trace_id, 0.5)
        assert ctx.sampled is decision
        # An upstream stamp wins over a local recompute.
        stamped = CallContext.background()
        stamped.sampled = not decision
        assert sampling.mark(stamped) is (not decision)


# -- the wire flag -----------------------------------------------------------


def find_trace(rate, sampled_out, attempts=2000):
    """A trace id whose head decision at ``rate`` matches ``sampled_out``."""
    for index in range(attempts):
        trace_id = f"probe-{rate}-{index}"
        if head_sampled(trace_id, rate) is (not sampled_out):
            return trace_id
    raise AssertionError("no matching trace id found")


def test_sampled_flag_rides_the_call_wire():
    call = RpcCall(7, 900, 1, 1, b"", sampled=False)
    decoded = decode_message(call.encode())
    assert decoded.sampled is False
    # Absent flag decodes to None and adds no bytes (pre-sampling frames).
    plain = RpcCall(7, 900, 1, 1, b"")
    assert decode_message(plain.encode()).sampled is None
    assert len(plain.encode()) < len(call.encode())


def test_client_propagates_decision_to_server_context():
    net = SimNetwork(seed=7)
    server = RpcServer(SimTransport(net, "samp-srv"))
    program = RpcProgram(991000, name="peek")
    seen = {}

    def peek(args):
        from repro.context import current_context

        seen["sampled"] = current_context().sampled
        return None

    program.register(1, peek, "peek")
    server.serve(program)
    client = RpcClient(SimTransport(net, "samp-cli"), timeout=1.0)
    with use_policy(SamplingPolicy(rate=0.5)):
        trace_id = find_trace(0.5, sampled_out=True)
        ctx = CallContext.background().derive(trace_id=trace_id)
        client.call(server.address, 991000, 1, 1, None, context=ctx)
    assert seen["sampled"] is False  # the head decision crossed the wire


# -- export gating and the tail override -------------------------------------


def traced_call(net, trace_id, fail=False):
    server = RpcServer(SimTransport(net, f"exp-{trace_id}"))
    program = RpcProgram(991100, name="maybe")

    def handler(args):
        if args and args.get("fail"):
            raise ValueError("synthetic fault")
        return "ok"

    program.register(1, handler, "maybe")
    server.serve(program)
    client = RpcClient(SimTransport(net, f"cli-{trace_id}"), timeout=1.0, retries=0)
    ctx = CallContext.with_timeout(5.0, net.clock.now).derive(trace_id=trace_id)
    try:
        client.call(
            server.address, 991100, 1, 1, {"fail": fail} if fail else None, context=ctx
        )
    except Exception:
        pass
    return ctx


def test_sampled_out_chain_is_not_exported():
    net = SimNetwork(seed=7)
    ring = RingExporter()
    dropped_before = METRICS.counter_total("telemetry.chains_sampled_out")
    with use_policy(SamplingPolicy(rate=0.5)):
        trace_id = find_trace(0.5, sampled_out=True)
        with use_exporter(ring):
            ctx = traced_call(net, trace_id)
            ctx.finish()
    assert all(chain.trace_id != trace_id for chain in ring.chains())
    assert METRICS.counter_total("telemetry.chains_sampled_out") > dropped_before


def test_sampled_in_chain_is_exported():
    net = SimNetwork(seed=7)
    ring = RingExporter()
    with use_policy(SamplingPolicy(rate=0.5)):
        trace_id = find_trace(0.5, sampled_out=False)
        with use_exporter(ring):
            ctx = traced_call(net, trace_id)
            ctx.finish()
    assert any(chain.trace_id == trace_id for chain in ring.chains())


def test_error_chain_survives_sampling_via_tail_keep():
    net = SimNetwork(seed=7)
    ring = RingExporter()
    rescued_before = METRICS.counter_total("telemetry.chains_kept_tail")
    with use_policy(SamplingPolicy(rate=0.5, keep_errors=True)):
        trace_id = find_trace(0.5, sampled_out=True)
        with use_exporter(ring):
            ctx = traced_call(net, trace_id, fail=True)
            ctx.finish()
    (chain,) = [chain for chain in ring.chains() if chain.trace_id == trace_id]
    assert any(span.outcome != "ok" for span in chain.spans)
    assert METRICS.counter_total("telemetry.chains_kept_tail") > rescued_before


def test_tail_keep_can_be_disabled():
    net = SimNetwork(seed=7)
    ring = RingExporter()
    with use_policy(SamplingPolicy(rate=0.5, keep_errors=False)):
        trace_id = find_trace(0.5, sampled_out=True)
        with use_exporter(ring):
            ctx = traced_call(net, trace_id, fail=True)
            ctx.finish()
    assert all(chain.trace_id != trace_id for chain in ring.chains())


# -- the server span gate -----------------------------------------------------


async def _async_maybe(args):
    return "never run"


def _plain_maybe(args):
    if args and args.get("fail"):
        raise ValueError("synthetic fault")
    return "ok"


HANDLERS = {"blocking": _plain_maybe, "async-def": _async_maybe}


def sampled_out_dispatch(handler, fail):
    """One sampled-out call to ``handler``; returns what the *server*
    side exported and how many spans it threw away, before the client's
    own chain is finished."""
    net = SimNetwork(seed=7)
    server = RpcServer(SimTransport(net, "gate-srv"))
    program = RpcProgram(991200, name="gate")
    program.register(1, HANDLERS[handler], "maybe")
    server.serve(program)
    client = RpcClient(SimTransport(net, "gate-cli"), timeout=1.0, retries=0)
    ring = RingExporter()
    with use_policy(SamplingPolicy(rate=0.5, keep_errors=True)):
        trace_id = find_trace(0.5, sampled_out=True)
        ctx = CallContext.with_timeout(5.0, net.clock.now).derive(trace_id=trace_id)
        discarded = METRICS.counter_total("telemetry.spans_sampled_out")
        with use_exporter(ring):
            try:
                client.call(
                    server.address, 991200, 1, 1, {"fail": fail} if fail else None,
                    context=ctx,
                )
            except RemoteFault:
                pass
        discarded = METRICS.counter_total("telemetry.spans_sampled_out") - discarded
    server_spans = [
        span
        for chain in ring.chains()
        if chain.trace_id == trace_id
        for span in chain.spans
        if span.layer == "server"
    ]
    return server_spans, discarded


@pytest.mark.parametrize("handler", ["blocking"])
def test_sampled_out_success_records_no_server_span(handler):
    server_spans, discarded = sampled_out_dispatch(handler, fail=False)
    assert server_spans == []
    # Not "recorded, then dropped at export": nothing was recorded at all.
    assert discarded == 0


#: The fault each handler's call ends in: a plain handler's own error, and
#: for an ``async def`` handler the typed fault its coroutine is refused with.
FAULTS = {"blocking": "ValueError", "async-def": "AwaitableResult"}


@pytest.mark.parametrize("handler", HANDLERS)
def test_sampled_out_fault_rebuilds_the_server_span_for_the_tail_keep(handler):
    rescued_before = METRICS.counter_total("telemetry.chains_kept_tail")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        server_spans, __ = sampled_out_dispatch(handler, fail=True)
        gc.collect()
    (span,) = server_spans
    assert span.outcome == FAULTS[handler]
    assert METRICS.counter_total("telemetry.chains_kept_tail") > rescued_before


def test_export_decision_recomputes_when_stamp_never_arrived():
    # A pre-sampling peer forwarded the call without the wire flag: the
    # hash of the trace id yields the same verdict the sender reached.
    with use_policy(SamplingPolicy(rate=0.5)):
        trace_id = find_trace(0.5, sampled_out=True)
        ctx = CallContext.background().derive(trace_id=trace_id)
        assert ctx.sampled is None
        assert sampling.export_decision(ctx, []) is False
        kept_id = find_trace(0.5, sampled_out=False)
        kept = CallContext.background().derive(trace_id=kept_id)
        assert sampling.export_decision(kept, []) is True


def test_policy_scope_restores_previous():
    assert sampling.get_policy().rate == 1.0
    with use_policy(SamplingPolicy(rate=0.25)):
        assert sampling.get_policy().rate == 0.25
        with pytest.raises(RuntimeError):
            with use_policy(SamplingPolicy(rate=0.1)):
                assert sampling.get_policy().rate == 0.1
                raise RuntimeError("unwind")
        assert sampling.get_policy().rate == 0.25
    assert sampling.get_policy().rate == 1.0
