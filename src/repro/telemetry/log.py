"""Trace-correlated structured logging.

Spans answer "how long did each layer take"; the events worth alerting
on — an admission shed, a breaker tripping open, a lease expiring, a
failover slice moving to the next candidate — happen *inside* those
spans and were previously only visible as aggregate counters.  This
module gives them a record form:

    LOG.event("rpc.shed", at=now, stage="arrival", program="trader")

Each record is a flat JSON-able dict stamped with the ambient request's
``trace_id`` (:func:`repro.context.current_context`) and, when a span is
open, the ``span_uid`` of the innermost one
(:func:`repro.context.current_span`) — so the dashboard (and any
post-hoc join) can interleave events with the exact span they happened
inside.  Records are written through attached *sinks*; the natural sink
is :meth:`repro.telemetry.exporters.JsonlExporter.write_record`, which
shares the span file — one stream, one rotation schedule, one trace-id
namespace.

The hot-path contract matches the rest of the telemetry package: with
no sink attached :meth:`StructuredLogger.event` is one list truth test,
and a sink that raises is counted (``telemetry.log_errors``) but never
fails the request.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List, Optional

Sink = Callable[[Dict[str, Any]], None]


class StructuredLogger:
    """A process logger fanning records out to attached sinks."""

    def __init__(self) -> None:
        self._sinks: List[Sink] = []
        self._lock = threading.Lock()
        self.records_written = 0

    @property
    def active(self) -> bool:
        """True when at least one sink is attached."""
        return bool(self._sinks)

    def attach(self, sink: Sink) -> Sink:
        with self._lock:
            self._sinks.append(sink)
        return sink

    def detach(self, sink: Sink) -> bool:
        with self._lock:
            try:
                self._sinks.remove(sink)
                return True
            except ValueError:
                return False

    def event(
        self,
        event: str,
        level: str = "info",
        at: Optional[float] = None,
        **fields: Any,
    ) -> None:
        """Emit one structured record; a no-op without sinks.

        ``at`` is the transport-clock timestamp of the occurrence —
        passed by the call site, never read from the wall clock, so
        virtual-time stacks log virtual timestamps consistent with
        their spans.  Extra keyword arguments land in the record as-is
        (keep them JSON-able).
        """
        if not self._sinks:
            return
        record: Dict[str, Any] = {"kind": "log", "event": event, "level": level}
        if at is not None:
            record["at"] = at
        for key, value in fields.items():
            if value is not None:
                record[key] = value
        from repro.context import current_context, current_span

        # Ambient correlation fills gaps; an explicit field wins (the
        # server logs sheds with the *wire* trace id of a call that
        # never reached handler execution).
        if "trace_id" not in record:
            ctx = current_context()
            if ctx is not None:
                record["trace_id"] = ctx.trace_id
        if "span_uid" not in record:
            span = current_span()
            if span is not None:
                record["span_uid"] = span.uid
        for sink in list(self._sinks):
            try:
                sink(record)
            except Exception:  # noqa: BLE001 - telemetry never fails a request
                from repro.telemetry.metrics import METRICS

                METRICS.inc("telemetry.log_errors")
        self.records_written += 1


#: The process logger the noisy call sites emit through.
LOG = StructuredLogger()


class use_log_sink:
    """Attach a sink for a scope (tests, the dashboard fixture writer)::

        with use_log_sink(exporter.write_record):
            ...
    """

    def __init__(self, sink: Sink) -> None:
        self._sink = sink

    def __enter__(self) -> Sink:
        LOG.attach(self._sink)
        return self._sink

    def __exit__(self, exc_type, exc, tb) -> bool:
        LOG.detach(self._sink)
        return False
