"""Span exporters: where finished call-context chains go.

A :class:`~repro.context.CallContext` accumulates a chain of
``SpanRecord``s as a request crosses the Fig. 6 layers; when the chain is
finished (``ctx.finish()``, or the best-effort flush at the RPC server
dispatch / client reply boundaries) the :class:`~repro.telemetry.hub.
TelemetryHub` hands it to every installed exporter as a
:class:`TraceChain`.

Two implementations:

* :class:`RingExporter` — a bounded in-memory ring, the "recent traces"
  buffer reports and tests read back;
* :class:`JsonlExporter` — an append-only JSONL file, one chain per
  line; on any I/O failure it degrades to a **no-op** and bumps the
  ``telemetry.export_errors`` counter (telemetry must never fail a
  request).  Occurrence records (:func:`repro.telemetry.hub.occurred`)
  interleave with the chains in the same file.

Parent links are *derived* from the chain: spans are appended on
completion, so a span's parent is the first span completed after it
whose ``[start, end]`` interval encloses its own — exact for the nested
``with ctx.span(...)`` discipline every layer uses.
"""

from __future__ import annotations

import json
import os
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.telemetry.metrics import METRICS


@dataclass
class TraceChain:
    """One finished span chain, as handed to exporters."""

    trace_id: str
    spans: List[Any] = field(default_factory=list)  # SpanRecord, duck-typed
    dropped: int = 0  # spans lost to the SPAN_LIMIT cap

    def layers(self) -> List[str]:
        seen: Dict[str, None] = {}
        for span in self.spans:
            seen.setdefault(span.layer)
        return list(seen)

    def to_wire(self) -> Dict[str, Any]:
        parents = derive_parents(self.spans)
        return {
            "trace_id": self.trace_id,
            "dropped": self.dropped,
            "spans": [
                dict(
                    span.to_wire(),
                    span_id=span_id(self.trace_id, index),
                    parent_id=(
                        None if parents[index] is None
                        else span_id(self.trace_id, parents[index])
                    ),
                )
                for index, span in enumerate(self.spans)
            ],
        }


def span_id(trace_id: str, index: int) -> str:
    """Deterministic span id: chain position scoped by the trace."""
    return f"{trace_id}-s{index:04d}"


def derive_parents(spans: List[Any]) -> List[Optional[int]]:
    """Parent index per span, from completion order + interval containment.

    Spans are appended when they *complete* (the ``finally`` of
    ``ctx.span``), so an enclosing span always appears later in the chain
    than its children.  The parent of span ``i`` is therefore the first
    span after it whose interval contains ``i``'s — the tightest
    enclosing frame even when virtual time makes intervals degenerate.
    """
    ends = [span.started_at + span.elapsed for span in spans]
    parents: List[Optional[int]] = [None] * len(spans)
    for index, span in enumerate(spans):
        for candidate in range(index + 1, len(spans)):
            if (
                spans[candidate].started_at <= span.started_at
                and ends[candidate] >= ends[index]
            ):
                parents[index] = candidate
                break
    return parents


class SpanExporter:
    """Exporter protocol: receive one finished chain, and one record per
    occurrence.  Must not raise — the hub guards regardless and counts
    ``telemetry.export_errors``."""

    def export(self, chain: TraceChain) -> None:  # pragma: no cover - protocol
        raise NotImplementedError

    def write_record(self, record: Dict[str, Any]) -> None:
        """An occurrence record; exporters that keep only chains drop it."""


class RingExporter(SpanExporter):
    """Keeps the most recent ``capacity`` chains in memory (FIFO eviction)."""

    def __init__(self, capacity: int = 256) -> None:
        self.capacity = capacity
        self._chains: "deque[TraceChain]" = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self.exported = 0
        self.evicted = 0

    def export(self, chain: TraceChain) -> None:
        with self._lock:
            if len(self._chains) == self.capacity:
                self.evicted += 1
            self._chains.append(chain)
            self.exported += 1

    def chains(self) -> List[TraceChain]:
        """Oldest-first snapshot of the retained chains."""
        with self._lock:
            return list(self._chains)

    def clear(self) -> None:
        with self._lock:
            self._chains.clear()


class JsonlExporter(SpanExporter):
    """Appends one JSON object per chain to a file, with rotation.

    The file is opened lazily on first export.  Any ``OSError`` —
    unwritable path, disk full, closed descriptor — permanently disables
    the exporter (it becomes a no-op) and bumps the
    ``telemetry.export_errors`` counter with the ``jsonl`` label:
    observability degrades, requests do not.

    **Rotation.**  With ``max_bytes`` set, a write that would push the
    current file past the limit first rotates: ``path`` becomes
    ``path.1``, existing ``path.N`` shift to ``path.N+1``, and anything
    past ``retain`` rotated files is deleted — so disk usage is bounded
    by roughly ``(retain + 1) * max_bytes``.  A single chain larger than
    ``max_bytes`` still lands whole in a fresh file (lines are never
    split).  ``max_bytes=None`` (default) keeps the historic
    append-forever behaviour.
    """

    def __init__(
        self,
        path: str,
        max_bytes: Optional[int] = None,
        retain: int = 3,
    ) -> None:
        if max_bytes is not None and max_bytes < 1:
            raise ValueError(f"max_bytes must be positive: {max_bytes}")
        if retain < 1:
            raise ValueError(f"retain must be >= 1: {retain}")
        self.path = path
        self.max_bytes = max_bytes
        self.retain = retain
        self.disabled = False
        self.lines_written = 0
        self.rotations = 0
        self._handle = None
        self._size = 0
        self._lock = threading.Lock()

    def export(self, chain: TraceChain) -> None:
        self._write_json(chain.to_wire())

    def write_record(self, record: Dict[str, Any]) -> None:
        """Append an arbitrary JSON record (one line) to the same file.

        The hub writes occurrence records through this: records and span
        chains interleave in one stream, rotate together, and carry the
        same trace ids — which is what lets the live dashboard join them.
        """
        self._write_json(record)

    def _write_json(self, record: Dict[str, Any]) -> None:
        if self.disabled:
            return
        line = json.dumps(record) + "\n"
        payload = line.encode("utf-8")
        with self._lock:
            try:
                if self._handle is None:
                    self._open()
                if (
                    self.max_bytes is not None
                    and self._size > 0
                    and self._size + len(payload) > self.max_bytes
                ):
                    self._rotate()
                self._handle.write(line)
                self._handle.flush()
                self._size += len(payload)
                self.lines_written += 1
            except OSError:
                self.disabled = True
                METRICS.inc("telemetry.export_errors", ("jsonl",))
                self._close_quietly()

    def _open(self) -> None:
        self._handle = open(self.path, "a", encoding="utf-8")
        self._size = os.path.getsize(self.path)

    def _rotate(self) -> None:
        self._close_quietly()
        oldest = f"{self.path}.{self.retain}"
        if os.path.exists(oldest):
            os.remove(oldest)  # retention cap: the oldest file falls off
        for index in range(self.retain - 1, 0, -1):
            rotated = f"{self.path}.{index}"
            if os.path.exists(rotated):
                os.replace(rotated, f"{self.path}.{index + 1}")
        os.replace(self.path, f"{self.path}.1")
        self.rotations += 1
        self._open()

    def close(self) -> None:
        with self._lock:
            self._close_quietly()

    def _close_quietly(self) -> None:
        handle, self._handle = self._handle, None
        if handle is not None:
            try:
                handle.close()
            except OSError:
                pass
