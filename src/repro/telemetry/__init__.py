"""Telemetry — the pluggable observability layer of the COSM stack.

The Fig. 6 architecture stacks five layers between a user and a wire
message; :mod:`repro.context` already threads a span chain through all of
them.  This package is where those chains (and the layers' counters) go:

* :mod:`repro.telemetry.metrics` — lock-protected counters and
  fixed-bucket histograms (``METRICS``, the process registry),
* :mod:`repro.telemetry.exporters` — the :class:`SpanExporter` protocol
  with bounded-ring, JSONL-file, and OTLP-dict implementations,
* :mod:`repro.telemetry.hub` — the process-global :class:`TelemetryHub`
  finished chains flush into (``ctx.finish()`` plus best-effort flushes
  at the RPC server dispatch and client reply boundaries),
* :mod:`repro.telemetry.sampling` — head trace sampling keyed on the
  trace id (every federated hop agrees without coordination) with a
  tail "always keep" override for error chains,
* :mod:`repro.telemetry.log` — trace-correlated structured logging
  (``LOG.event(...)`` stamps ``trace_id``/``span_uid`` from the ambient
  context into JSONL records sharing the span exporter sink),
* :mod:`repro.telemetry.live` — the streaming side: a rotation-aware
  :class:`JsonlTailReader`, a sliding-window per-layer RED aggregator,
  and the ``python -m repro telemetry-dash`` terminal dashboard,
* :mod:`repro.telemetry.report` — the per-layer latency report
  (imported lazily: it drives whole simulated stacks; import it as
  ``from repro.telemetry import report``).

Everything here must obey two rules: telemetry never fails a request,
and it costs next to nothing when no exporter is installed.
"""

from repro.telemetry.exporters import (
    JsonlExporter,
    OtlpExporter,
    RingExporter,
    SpanExporter,
    TraceChain,
    derive_parents,
)
from repro.telemetry.hub import (
    TelemetryHub,
    flush_context,
    get_hub,
    set_hub,
    use_exporter,
)
from repro.telemetry.log import LOG, StructuredLogger, use_log_sink
from repro.telemetry.metrics import DEFAULT_BUCKETS, METRICS, Histogram, MetricsRegistry
from repro.telemetry.sampling import SamplingPolicy, head_sampled, use_policy

__all__ = [
    "DEFAULT_BUCKETS",
    "Histogram",
    "JsonlExporter",
    "LOG",
    "METRICS",
    "MetricsRegistry",
    "OtlpExporter",
    "RingExporter",
    "SamplingPolicy",
    "SpanExporter",
    "StructuredLogger",
    "TelemetryHub",
    "TraceChain",
    "derive_parents",
    "flush_context",
    "get_hub",
    "head_sampled",
    "set_hub",
    "use_exporter",
    "use_log_sink",
    "use_policy",
]
