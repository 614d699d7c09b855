"""The process-global telemetry hub finished span chains flush into.

One hub per process, mirroring the one ambient-context machinery in
:mod:`repro.context`: layers call :func:`flush_context` at natural chain
ends — an explicit ``ctx.finish()`` at the top of a request, the RPC
server after a traced handler returns, the RPC client when a call it
created the context for completes — and the hub fans the chain out to
every installed exporter.

The hub is also where a notable occurrence goes: :func:`occurred` is
the one call a site makes for a shed, a breaker trip, a failover or a
lapsed lease.  It bumps the occurrence's counter, annotates the span the
site passes, and — only while an exporter is installed — hands one
span-less record to every exporter's ``write_record``.

Two hard rules:

* **Never fail a request.**  Exporter exceptions are swallowed (counted
  as ``telemetry.export_errors``); a chain is exported at most once.
* **Near-zero cost when idle.**  With no exporter installed
  :func:`flush_context` is one attribute test and returns — the RPC
  micro-bench bounds the overhead at < 5 %; :func:`occurred` is a
  counter bump and builds no record.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.context import SpanRecord, current_context, current_span
from repro.telemetry import sampling
from repro.telemetry.exporters import SpanExporter, TraceChain
from repro.telemetry.metrics import METRICS


class TelemetryHub:
    """Exporter fan-out plus the shared metrics registry."""

    def __init__(self) -> None:
        self._exporters: List[SpanExporter] = []
        self._lock = threading.Lock()
        self.chains_exported = 0

    # -- exporter management -----------------------------------------------

    @property
    def active(self) -> bool:
        """True when at least one exporter is installed."""
        return bool(self._exporters)

    def add_exporter(self, exporter: SpanExporter) -> SpanExporter:
        with self._lock:
            self._exporters.append(exporter)
        return exporter

    def remove_exporter(self, exporter: SpanExporter) -> bool:
        with self._lock:
            try:
                self._exporters.remove(exporter)
                return True
            except ValueError:
                return False

    # -- export ------------------------------------------------------------

    def export_chain(self, chain: TraceChain) -> None:
        """Hand one finished chain to every exporter; never raises."""
        if chain.dropped:
            METRICS.inc("context.spans_dropped_total", amount=chain.dropped)
        if self._fan_out(lambda exporter: exporter.export(chain)):
            self.chains_exported += 1

    def write_record(self, record: Dict[str, Any]) -> None:
        """Hand one occurrence record to every exporter; never raises."""
        self._fan_out(lambda exporter: exporter.write_record(record))

    def _fan_out(self, deliver: Callable[[SpanExporter], None]) -> int:
        exporters = list(self._exporters)
        for exporter in exporters:
            try:
                deliver(exporter)
            except Exception:  # noqa: BLE001 - telemetry never fails a request
                METRICS.inc(
                    "telemetry.export_errors", (type(exporter).__name__,)
                )
        return len(exporters)

    def flush(self, ctx: Any) -> None:
        """Flush a finished :class:`~repro.context.CallContext` chain.

        Duck-typed to avoid an import cycle (context lazily imports this
        module for ``finish()``).  The span list is snapshotted: the
        chain's owner may keep appending after the flush.
        """
        if not self._exporters:
            return
        spans = list(ctx.spans)
        if not spans and not ctx.spans_dropped:
            return
        # Head-sampling gate: recording above was free to happen — only
        # the *export* is sampled, so the tail override still sees error
        # chains that were head-sampled out.
        if not sampling.export_decision(ctx, spans):
            METRICS.inc("telemetry.spans_sampled_out", amount=len(spans))
            METRICS.inc("telemetry.chains_sampled_out")
            return
        self.export_chain(TraceChain(ctx.trace_id, spans, ctx.spans_dropped))


#: The process-global hub; replaceable for tests via :func:`set_hub`.
_hub = TelemetryHub()


def get_hub() -> TelemetryHub:
    return _hub


def set_hub(hub: TelemetryHub) -> TelemetryHub:
    """Swap the process hub (tests); returns the previous one."""
    global _hub
    previous, _hub = _hub, hub
    return previous


def spans_wanted() -> bool:
    """True when at least one exporter is installed on the process hub.

    Boundary layers that *construct* a context themselves (the RPC
    server rebuilding the caller's wire context) use this to skip span
    bookkeeping entirely when nothing will ever read the chain: without
    an exporter a server-side span is appended, flushed into a no-op,
    and discarded — pure fast-path overhead.  Contexts handed in by a
    caller always record spans, exporter or not, because the caller can
    read ``ctx.spans`` directly.
    """
    return bool(_hub._exporters)


def flush_context(ctx: Any) -> None:
    """Best-effort chain flush — the boundary hooks call this.

    The no-exporter fast path is a single list truth test.
    """
    hub = _hub
    if not hub._exporters:
        return
    hub.flush(ctx)


def occurred(
    name: str,
    labels: Tuple[str, ...],
    at: float,
    span: Optional[SpanRecord] = None,
    trace_id: Optional[str] = None,
    **fields: Any,
) -> None:
    """Record one notable occurrence, under its counter's name.

    Bumps the counter ``name{labels}``; appends the event to ``span``
    when the site passes one (the sites that annotate their own span);
    and, with an exporter installed, writes one record — ``kind``
    ``"event"``, the name, ``at`` (the transport clock, never the wall),
    the labels, the non-``None`` fields, ``trace_id`` or else the
    ambient one (a shed carries the *wire* trace id of a call that never
    reached its handler, a client the trace of the call it settles
    outside any ambient scope), and the ``span_uid`` of ``span`` or else
    of the ambient span.  Records are not head-sampled: an occurrence is
    rarer than the chain it sits in.
    """
    METRICS.inc(name, labels)
    if span is not None:
        span.add_event(name, at, **fields)
    hub = _hub
    if not hub._exporters:
        return
    record: Dict[str, Any] = {"kind": "event", "event": name, "at": at}
    if labels:
        record["labels"] = list(labels)
    for key, value in fields.items():
        if value is not None:
            record[key] = value
    if trace_id is None:
        ctx = current_context()
        trace_id = ctx.trace_id if ctx is not None else None
    if trace_id is not None:
        record["trace_id"] = trace_id
    if span is None:
        span = current_span()
    if span is not None:
        record["span_uid"] = span.uid
    hub.write_record(record)


@contextmanager
def use_exporter(exporter: SpanExporter) -> Iterator[SpanExporter]:
    """Install an exporter for a scope (reports, tests)."""
    _hub.add_exporter(exporter)
    try:
        yield exporter
    finally:
        _hub.remove_exporter(exporter)
