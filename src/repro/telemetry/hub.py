"""The process-global telemetry hub finished span chains flush into.

One hub per process, mirroring the one ambient-context machinery in
:mod:`repro.context`: layers call :func:`flush_context` at natural chain
ends — an explicit ``ctx.finish()`` at the top of a request, the RPC
server after a traced handler returns, the RPC client when a call it
created the context for completes — and the hub fans the chain out to
every installed exporter.

Two hard rules:

* **Never fail a request.**  Exporter exceptions are swallowed (counted
  as ``telemetry.export_errors``); a chain is exported at most once.
* **Near-zero cost when idle.**  With no exporter installed
  :func:`flush_context` is one attribute test and returns — the RPC
  micro-bench bounds the overhead at < 5 %.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, Iterator, List

from repro.telemetry import sampling
from repro.telemetry.exporters import SpanExporter, TraceChain
from repro.telemetry.metrics import METRICS, MetricsRegistry


class TelemetryHub:
    """Exporter fan-out plus the shared metrics registry."""

    def __init__(self, metrics: MetricsRegistry = METRICS) -> None:
        self.metrics = metrics
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
            self.metrics.inc("context.spans_dropped_total", amount=chain.dropped)
        exporters = list(self._exporters)
        for exporter in exporters:
            try:
                exporter.export(chain)
            except Exception:  # noqa: BLE001 - telemetry never fails a request
                self.metrics.inc(
                    "telemetry.export_errors", (type(exporter).__name__,)
                )
        if exporters:
            self.chains_exported += 1

    def flush(self, ctx: Any) -> None:
        """Flush a finished :class:`~repro.context.CallContext` chain.

        Duck-typed to avoid an import cycle (context lazily imports this
        module for ``finish()``).  The span list is snapshotted under the
        context's chain lock so concurrent fan-out workers appending to a
        shared chain cannot tear the export.
        """
        if not self._exporters:
            return
        lock = getattr(ctx, "_span_lock", None)
        if lock is not None:
            with lock:
                spans = list(ctx.spans)
        else:
            spans = list(ctx.spans)
        if not spans and not ctx.spans_dropped:
            return
        # Head-sampling gate: recording above was free to happen — only
        # the *export* is sampled, so the tail override still sees error
        # chains that were head-sampled out.
        if not sampling.export_decision(ctx, spans):
            self.metrics.inc("telemetry.spans_sampled_out", amount=len(spans))
            self.metrics.inc("telemetry.chains_sampled_out")
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


@contextmanager
def use_exporter(exporter: SpanExporter) -> Iterator[SpanExporter]:
    """Install an exporter for a scope (reports, tests)."""
    _hub.add_exporter(exporter)
    try:
        yield exporter
    finally:
        _hub.remove_exporter(exporter)
