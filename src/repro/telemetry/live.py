"""Streaming telemetry: tail the span files, watch the stack breathe.

The report in :mod:`repro.telemetry.report` is post-hoc — it drives a
fresh simulated stack and renders what happened.  This module is the
live side, fed by what a *running* deployment already produces:

* :class:`JsonlTailReader` follows the rotating JSONL files a
  :class:`~repro.telemetry.exporters.JsonlExporter` writes — span chains
  and structured log records interleaved — surviving rotation
  (rename-to-``.1``), truncation, and torn trailing lines without ever
  dropping or double-reading a record;
* :class:`RedAggregator` folds those records into a sliding-window
  per-layer **RED** view — Rate, Errors, Duration (p50/p95) — plus the
  most recent structured log events;
* :class:`StatsPoller` pulls wire-level :mod:`repro.rpc.stats`
  snapshots from configured endpoints, adding the server-side picture
  (queue depth, sheds, breaker states) the span stream cannot show;
* ``python -m repro telemetry-dash`` renders all of it as a refreshing
  terminal view through the UIMS :class:`~repro.uims.widgets.Table`
  widget — the same rendering substrate as the generated service forms.

Nothing here ever drives a fresh stack: point it at the JSONL file of a
live process (or a recorded fixture, as CI does) and it shows what is
in there.
"""

from __future__ import annotations

import json
import os
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

from repro.uims.render import render
from repro.uims.widgets import Label, Table, Widget


class JsonlTailReader:
    """Incremental reader of a (possibly rotating) JSONL file.

    Call :meth:`poll` repeatedly; each call returns the records whose
    final byte has landed since the last call.  The reader holds its own
    file handle, so when the writer rotates (``path`` renamed to
    ``path.1``, a fresh file opened at ``path``) the handle still
    addresses the renamed segment: poll drains it to EOF *first*, reads
    any rotated segments written entirely between two polls, then
    switches to the new segment at offset zero — no record is lost to
    the rename and none is read twice.  Truncation in place (same inode,
    size below our offset) restarts from the top of the file.  Torn
    trailing lines — the writer mid-``write`` — stay buffered until
    their newline arrives.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._handle = None
        self._ino: Optional[int] = None
        self._buffer = b""
        self.lines_read = 0
        self.parse_errors = 0
        self.rotations_followed = 0
        self.truncations = 0

    def poll(self) -> List[Dict[str, Any]]:
        """Every record completed since the previous poll, in order."""
        records: List[Dict[str, Any]] = []
        if self._handle is None and not self._open():
            return records
        self._read_into(records)
        state = self._probe()
        if state == "rotated":
            # The writer renamed our segment away: our handle still
            # reads it, so drain to EOF before following the new file.
            self._read_into(records)
            old_ino = self._ino
            self._close()
            self._read_missed_segments(old_ino, records)
            if self._open():
                self.rotations_followed += 1
                self._read_into(records)
        elif state == "truncated":
            self.truncations += 1
            self._buffer = b""
            try:
                self._handle.seek(0)
            except OSError:
                self._close()
                return records
            self._read_into(records)
        return records

    def close(self) -> None:
        self._close()

    # -- internals ---------------------------------------------------------

    def _probe(self) -> Optional[str]:
        try:
            probe = os.stat(self.path)
        except OSError:
            return None  # mid-rotation gap or file not created yet
        if self._ino is not None and probe.st_ino != self._ino:
            return "rotated"
        if self._handle is not None:
            try:
                offset = self._handle.tell()
            except OSError:
                return None
            if probe.st_size < offset:
                return "truncated"
        return None

    def _open(self) -> bool:
        try:
            handle = open(self.path, "rb")
            self._ino = os.fstat(handle.fileno()).st_ino
        except OSError:
            return False
        self._handle = handle
        self._buffer = b""
        return True

    def _read_missed_segments(self, old_ino: Optional[int], records: List[Dict[str, Any]]) -> None:
        """Catch up on rotations that fired *between* two polls.

        ``path.1`` is the newest rotated segment; the one we just drained
        sits at some ``path.N``.  Every segment with a smaller suffix was
        written entirely after ours and before the live file — read those
        whole files oldest-first so stream order holds.  (Scanning stops
        at the retention boundary: if our segment was already deleted,
        every surviving rotated segment is newer than it.)
        """
        missed: List[str] = []
        suffix = 1
        while True:
            candidate = f"{self.path}.{suffix}"
            try:
                if os.stat(candidate).st_ino == old_ino:
                    break
            except OSError:
                break
            missed.append(candidate)
            suffix += 1
        for candidate in reversed(missed):
            try:
                handle = open(candidate, "rb")
            except OSError:
                continue
            keep, self._handle = self._handle, handle
            self._buffer = b""
            try:
                self._read_into(records)
            finally:
                self._handle = keep
                try:
                    handle.close()
                except OSError:
                    pass

    def _close(self) -> None:
        handle, self._handle = self._handle, None
        self._ino = None
        if handle is not None:
            try:
                handle.close()
            except OSError:
                pass

    def _read_into(self, records: List[Dict[str, Any]]) -> None:
        if self._handle is None:
            return
        try:
            chunk = self._handle.read()
        except OSError:
            self._close()
            return
        if chunk:
            self._buffer += chunk
        while True:
            newline = self._buffer.find(b"\n")
            if newline < 0:
                return
            line = self._buffer[:newline]
            self._buffer = self._buffer[newline + 1:]
            if not line.strip():
                continue
            try:
                records.append(json.loads(line.decode("utf-8")))
                self.lines_read += 1
            except (ValueError, UnicodeDecodeError):
                self.parse_errors += 1


def _quantile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of an already-sorted sample."""
    if not sorted_values:
        return 0.0
    index = int(round(q * (len(sorted_values) - 1)))
    return sorted_values[max(0, min(len(sorted_values) - 1, index))]


class RedAggregator:
    """Sliding-window per-layer RED over a mixed span/log record stream.

    Feed it the records a :class:`JsonlTailReader` yields (span chains
    as written by :class:`~repro.telemetry.exporters.JsonlExporter`,
    log records from :mod:`repro.telemetry.log`); read back per-layer
    Rate / Errors / Duration rows over the trailing ``window`` seconds
    of *record time* (span end timestamps — wall or virtual, whatever
    clock the producing stack ran on), plus the most recent structured
    log events.  Incremental: each span is appended once and evicted
    once, so a long tail session does O(1) work per record.
    """

    def __init__(self, window: float = 30.0, recent_events: int = 12) -> None:
        self.window = window
        # layer -> deque of (end_time, elapsed, is_error), time-ordered
        self._samples: Dict[str, Deque[Tuple[float, float, bool]]] = {}
        self._latest: Optional[float] = None
        self.chains_seen = 0
        self.spans_seen = 0
        self.events_seen = 0
        self.recent_events: Deque[Dict[str, Any]] = deque(maxlen=recent_events)
        self._event_counts: Dict[str, int] = {}

    def feed(self, record: Dict[str, Any]) -> None:
        """Absorb one tailed record; unknown shapes are ignored."""
        if record.get("kind") == "log":
            self._feed_log(record)
        elif "spans" in record:
            self._feed_chain(record)

    def _feed_chain(self, chain: Dict[str, Any]) -> None:
        self.chains_seen += 1
        for span in chain.get("spans", ()):
            try:
                started = float(span.get("started_at", 0.0))
                elapsed = float(span.get("elapsed", 0.0))
            except (TypeError, ValueError):
                continue
            layer = str(span.get("layer", "?"))
            error = span.get("outcome", "ok") != "ok"
            self._samples.setdefault(layer, deque()).append(
                (started + elapsed, elapsed, error)
            )
            self.spans_seen += 1
            self._advance(started + elapsed)

    def _feed_log(self, record: Dict[str, Any]) -> None:
        self.events_seen += 1
        event = str(record.get("event", "?"))
        self._event_counts[event] = self._event_counts.get(event, 0) + 1
        self.recent_events.append(record)
        at = record.get("at")
        if isinstance(at, (int, float)):
            self._advance(float(at))

    def _advance(self, now: float) -> None:
        if self._latest is not None and now <= self._latest:
            return
        self._latest = now
        horizon = now - self.window
        for samples in self._samples.values():
            while samples and samples[0][0] < horizon:
                samples.popleft()

    def rows(self) -> List[Dict[str, Any]]:
        """Per-layer RED rows for the current window, layer-sorted."""
        rows: List[Dict[str, Any]] = []
        for layer in sorted(self._samples):
            samples = self._samples[layer]
            if not samples:
                continue
            durations = sorted(sample[1] for sample in samples)
            errors = sum(1 for sample in samples if sample[2])
            rows.append(
                {
                    "layer": layer,
                    "count": len(durations),
                    "rate": len(durations) / self.window if self.window else 0.0,
                    "errors": errors,
                    "p50": _quantile(durations, 0.50),
                    "p95": _quantile(durations, 0.95),
                }
            )
        return rows

    def event_counts(self) -> Dict[str, int]:
        return dict(sorted(self._event_counts.items()))


class StatsPoller:
    """Pulls wire-level STATS snapshots from configured endpoints.

    One lazily-created TCP transport + RPC client serve every endpoint;
    an endpoint that fails to answer contributes an ``error`` row
    instead of killing the dashboard.
    """

    def __init__(self, endpoints: Sequence[Any]) -> None:
        self.endpoints = list(endpoints)
        self.timeout = 1.0
        self._transport = None
        self._client = None

    def poll(self) -> List[Dict[str, Any]]:
        snapshots: List[Dict[str, Any]] = []
        for endpoint in self.endpoints:
            label = f"{endpoint.host}:{endpoint.port}"
            try:
                snapshots.append(self._client_for().stats(endpoint))
            except Exception as exc:  # noqa: BLE001 - dashboard keeps running
                snapshots.append({"address": label, "error": str(exc)})
        return snapshots

    def close(self) -> None:
        transport, self._transport = self._transport, None
        self._client = None
        if transport is not None:
            transport.close()

    def _client_for(self):
        if self._client is None:
            from repro.rpc.client import RpcClient
            from repro.rpc.transport import TcpTransport

            self._transport = TcpTransport()
            self._client = RpcClient(
                self._transport, timeout=self.timeout, retries=0
            )
        return self._client


# -- rendering ---------------------------------------------------------------


#: ``sharding.migration.phase`` gauge values → phase names (0 = aborted,
#: then the migration state machine in order — mirrors
#: ``repro.trader.sharding.migration.PHASE_INDEX``).
_MIGRATION_PHASES = (
    "ABORTED", "PREPARE", "COPY", "CATCH_UP", "FLIP", "DRAIN", "DONE",
)


def _migration_phase_name(value: Any) -> str:
    index = int(value)
    if 0 <= index < len(_MIGRATION_PHASES):
        return _MIGRATION_PHASES[index]
    return str(value)


def dashboard_widgets(
    aggregator: RedAggregator,
    stats_snapshots: Sequence[Dict[str, Any]] = (),
) -> List[Widget]:
    """The widget tree one dashboard frame renders."""
    widgets: List[Widget] = [
        Label(
            "telemetry-dash",
            f"COSM live telemetry — chains {aggregator.chains_seen}, "
            f"spans {aggregator.spans_seen}, "
            f"log events {aggregator.events_seen}",
        )
    ]
    red = Table(
        f"Per-layer RED (window {aggregator.window:g}s)",
        ["layer", "rate/s", "errors", "p50 s", "p95 s"],
    )
    for row in aggregator.rows():
        red.add_row(
            row["layer"], row["rate"], row["errors"], row["p50"], row["p95"]
        )
    widgets.append(red)
    if stats_snapshots:
        stats = Table(
            "STATS polls",
            ["endpoint", "handled", "shed", "queue", "capacity", "in-flight", "breakers open"],
        )
        for snapshot in stats_snapshots:
            if "error" in snapshot:
                stats.add_row(
                    snapshot.get("address", "?"), "-", "-", "-", "-", "-",
                    snapshot["error"],
                )
                continue
            server = snapshot.get("server", {})
            breakers_open = sum(
                1
                for state in snapshot.get("breakers", {}).values()
                if state == "open"
            )
            stats.add_row(
                snapshot.get("address", "?"),
                server.get("calls_handled", 0),
                server.get("calls_shed", 0),
                server.get("queue_depth", 0),
                server.get("queue_capacity", 0),
                server.get("in_flight", 0),
                breakers_open,
            )
        widgets.append(stats)
        sharding_rows = [
            (snapshot.get("address", "?"), snapshot["sharding"])
            for snapshot in stats_snapshots
            if isinstance(snapshot.get("sharding"), dict)
            and (
                snapshot["sharding"].get("map_version")
                or snapshot["sharding"].get("migration", {}).get("phase")
            )
        ]
        if sharding_rows:
            sharding = Table(
                "Sharding / migrations",
                [
                    "endpoint", "map ver", "routed", "failovers",
                    "migration", "copied", "replayed", "forwarded",
                ],
            )
            for address, plane in sharding_rows:
                migration = plane.get("migration", {})
                phases = ", ".join(
                    f"{label.rpartition('|')[2]}:{_migration_phase_name(value)}"
                    for label, value in sorted(migration.get("phase", {}).items())
                ) or "-"
                sharding.add_row(
                    address,
                    max(plane.get("map_version", {}).values(), default=0),
                    sum(plane.get("routed", {}).values()),
                    sum(plane.get("failovers", {}).values()),
                    phases,
                    migration.get("offers_copied", 0),
                    migration.get("deltas_replayed", 0),
                    migration.get("forwarded_calls", 0),
                )
            widgets.append(sharding)
    if aggregator.recent_events:
        events = Table("Recent events", ["at", "event", "level", "trace"])
        for record in aggregator.recent_events:
            events.add_row(
                record.get("at", ""),
                record.get("event", "?"),
                record.get("level", ""),
                record.get("trace_id", ""),
            )
        widgets.append(events)
    return widgets


def render_frame(
    aggregator: RedAggregator,
    stats_snapshots: Sequence[Dict[str, Any]] = (),
) -> str:
    """One dashboard frame as text."""
    return "\n\n".join(
        render(widget)
        for widget in dashboard_widgets(aggregator, stats_snapshots)
    )


def _parse_endpoints(specs: Sequence[str]) -> List[Any]:
    from repro.net.endpoints import Address

    endpoints = []
    for spec in specs:
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            host, _, port = part.rpartition(":")
            if not host or not port.isdigit():
                raise ValueError(f"expected host:port, got {part!r}")
            endpoints.append(Address(host, int(port)))
    return endpoints


def main(argv: Any = None) -> int:
    """``python -m repro telemetry-dash`` — the refreshing terminal view."""
    import argparse
    import sys
    import time

    parser = argparse.ArgumentParser(
        prog="python -m repro telemetry-dash",
        description=(
            "Live per-layer RED dashboard: tails a telemetry JSONL file "
            "and/or polls STATS endpoints of running servers."
        ),
    )
    parser.add_argument("--file", help="JSONL span/log file to tail")
    parser.add_argument(
        "--stats",
        action="append",
        default=[],
        metavar="HOST:PORT",
        help="STATS endpoint to poll each frame (repeatable, or comma-separated)",
    )
    parser.add_argument(
        "--interval", type=float, default=1.0, help="seconds between frames"
    )
    parser.add_argument(
        "--frames",
        type=int,
        default=0,
        help="stop after this many frames (0 = run until interrupted)",
    )
    parser.add_argument(
        "--once",
        action="store_true",
        help="render exactly one frame and exit without sleeping (CI smoke)",
    )
    parser.add_argument(
        "--window", type=float, default=30.0, help="RED sliding window seconds"
    )
    parser.add_argument("--out", help="also write the final frame to this file")
    parser.add_argument(
        "--no-clear",
        action="store_true",
        help="do not clear the screen between frames (for piping)",
    )
    options = parser.parse_args(argv)
    if not options.file and not options.stats:
        parser.error("nothing to watch: pass --file and/or --stats")

    try:
        endpoints = _parse_endpoints(options.stats)
    except ValueError as exc:
        parser.error(str(exc))

    reader = JsonlTailReader(options.file) if options.file else None
    poller = StatsPoller(endpoints) if endpoints else None
    aggregator = RedAggregator(window=options.window)
    frames_wanted = 1 if options.once else options.frames
    clear = not options.no_clear and not options.once and sys.stdout.isatty()
    frame = ""
    rendered = 0
    try:
        while True:
            if reader is not None:
                for record in reader.poll():
                    aggregator.feed(record)
            snapshots = poller.poll() if poller is not None else []
            frame = render_frame(aggregator, snapshots)
            if clear:
                print("\x1b[2J\x1b[H" + frame, flush=True)
            else:
                print(frame, flush=True)
            rendered += 1
            if frames_wanted and rendered >= frames_wanted:
                break
            time.sleep(options.interval)
    except KeyboardInterrupt:
        pass
    finally:
        if reader is not None:
            reader.close()
        if poller is not None:
            poller.close()
    if options.out:
        with open(options.out, "w", encoding="utf-8") as handle:
            handle.write(frame + "\n")
    return 0
