"""JSONL exporter rotation and wire-level span events across exporters."""

from __future__ import annotations

import json
import threading

import pytest

from repro.context import SpanRecord
from repro.rpc.client import RpcClient
from repro.rpc.errors import RpcTimeout
from repro.rpc.transport import SimTransport
from repro.telemetry.exporters import (
    JsonlExporter,
    RingExporter,
    TraceChain,
)
from repro.telemetry.hub import use_exporter


def make_chain(trace_id="t-rot", n=2):
    spans = [
        SpanRecord("rpc", f"op-{index}", started_at=float(index), elapsed=0.5)
        for index in range(n)
    ]
    return TraceChain(trace_id, spans)


def line_length(tmp_path):
    """Byte length of one exported chain line (they are all identical here)."""
    probe_path = tmp_path / "probe.jsonl"
    probe = JsonlExporter(str(probe_path))
    probe.export(make_chain())
    probe.close()
    return len(probe_path.read_bytes())


def rotated_files(path):
    """The rotated siblings of ``path`` (``path.1`` onward), newest first."""
    return sorted(
        path.parent.glob(path.name + ".*"), key=lambda p: int(p.suffix[1:])
    )


def read_lines(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


# -- rotation ----------------------------------------------------------------


def test_rotation_at_exact_boundary(tmp_path):
    length = line_length(tmp_path)
    path = tmp_path / "traces.jsonl"
    # Two lines fit *exactly*: the boundary write must not rotate early.
    exporter = JsonlExporter(str(path), max_bytes=2 * length)
    for __ in range(5):
        exporter.export(make_chain())
    exporter.close()
    assert exporter.rotations == 2
    assert len(read_lines(path)) == 1
    assert len(read_lines(tmp_path / "traces.jsonl.1")) == 2
    assert len(read_lines(tmp_path / "traces.jsonl.2")) == 2
    assert exporter.lines_written == 5
    assert rotated_files(path) == [
        tmp_path / "traces.jsonl.1",
        tmp_path / "traces.jsonl.2",
    ]


def test_retention_cap_deletes_oldest(tmp_path):
    length = line_length(tmp_path)
    path = tmp_path / "traces.jsonl"
    exporter = JsonlExporter(str(path), max_bytes=length, retain=1)
    for index in range(6):
        exporter.export(make_chain(trace_id=f"t-{index}"))
    exporter.close()
    assert exporter.rotations == 5
    assert rotated_files(path) == [tmp_path / "traces.jsonl.1"]
    # Only the live file and one rotated file survive, newest content last.
    assert read_lines(path)[0]["trace_id"] == "t-5"
    assert read_lines(tmp_path / "traces.jsonl.1")[0]["trace_id"] == "t-4"
    assert not (tmp_path / "traces.jsonl.2").exists()


def test_oversized_chain_lands_whole_in_fresh_file(tmp_path):
    length = line_length(tmp_path)
    path = tmp_path / "traces.jsonl"
    exporter = JsonlExporter(str(path), max_bytes=length // 2)  # smaller than a line
    exporter.export(make_chain(trace_id="t-first"))
    exporter.export(make_chain(trace_id="t-second"))
    exporter.close()
    # Lines are never split: each oversize chain occupies its own file.
    assert exporter.rotations == 1
    assert [row["trace_id"] for row in read_lines(path)] == ["t-second"]
    assert [row["trace_id"] for row in read_lines(tmp_path / "traces.jsonl.1")] == [
        "t-first"
    ]


def test_rotation_resumes_across_exporter_instances(tmp_path):
    length = line_length(tmp_path)
    path = tmp_path / "traces.jsonl"
    first = JsonlExporter(str(path), max_bytes=2 * length)
    first.export(make_chain())
    first.close()
    # A new exporter on the same path picks up the existing size.
    second = JsonlExporter(str(path), max_bytes=2 * length)
    second.export(make_chain())
    second.export(make_chain())
    second.close()
    assert second.rotations == 1
    assert len(read_lines(path)) == 1
    assert len(read_lines(tmp_path / "traces.jsonl.1")) == 2


def test_concurrent_writers_never_tear_lines(tmp_path):
    length = line_length(tmp_path)
    path = tmp_path / "traces.jsonl"
    # Generous bounds: rotation still happens, but retention never has to
    # delete (deleted lines would make the count assertion meaningless).
    exporter = JsonlExporter(str(path), max_bytes=30 * length, retain=8)
    per_thread = 25

    def write(worker):
        for index in range(per_thread):
            exporter.export(make_chain(trace_id=f"w{worker}-{index}"))

    threads = [threading.Thread(target=write, args=(worker,)) for worker in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    exporter.close()
    assert exporter.disabled is False
    rows = read_lines(path)  # json.loads raises on any torn line
    for rotated in rotated_files(path):
        rows.extend(read_lines(rotated))
    assert len(rows) == 4 * per_thread
    assert sorted(row["trace_id"] for row in rows) == sorted(
        f"w{worker}-{index}" for worker in range(4) for index in range(per_thread)
    )


def test_rotation_parameters_are_validated(tmp_path):
    with pytest.raises(ValueError):
        JsonlExporter(str(tmp_path / "t.jsonl"), max_bytes=0)
    with pytest.raises(ValueError):
        JsonlExporter(str(tmp_path / "t.jsonl"), retain=0)


# -- span events across exporters -------------------------------------------


def event_chain():
    span = SpanRecord("rpc", "call 900:1", started_at=1.0, elapsed=0.5)
    span.add_event("rpc.client.retransmissions", at=1.2, attempt=1)
    span.add_event("rpc.client.shed_received", at=1.4, attempt=1)
    return TraceChain("t-events", [span])


def test_events_survive_the_ring_exporter():
    ring = RingExporter()
    ring.export(event_chain())
    events = ring.chains()[0].spans[0].events
    assert [event["name"] for event in events] == ["rpc.client.retransmissions", "rpc.client.shed_received"]
    assert events[0]["attempt"] == 1


def test_events_survive_jsonl_export(tmp_path):
    path = tmp_path / "traces.jsonl"
    exporter = JsonlExporter(str(path))
    exporter.export(event_chain())
    exporter.close()
    (row,) = read_lines(path)
    assert row["spans"][0]["events"] == [
        {"name": "rpc.client.retransmissions", "at": 1.2, "attempt": 1},
        {"name": "rpc.client.shed_received", "at": 1.4, "attempt": 1},
    ]


def test_eventless_spans_stay_compact_on_the_wire(tmp_path):
    path = tmp_path / "traces.jsonl"
    exporter = JsonlExporter(str(path))
    exporter.export(make_chain(n=1))
    exporter.close()
    (row,) = read_lines(path)
    assert "events" not in row["spans"][0]


def test_client_retransmissions_export_as_span_events(net):
    # A bound endpoint that never answers: every extra attempt is a
    # retransmission, and the failed call's chain still flushes.
    silent = SimTransport(net, "silent")
    silent.set_receiver(lambda source, payload: None)
    client = RpcClient(SimTransport(net, "cli"), timeout=0.05, retries=2)
    ring = RingExporter()
    with use_exporter(ring):
        with pytest.raises(RpcTimeout):
            client.call(silent.local_address, 700, 1, 1, None)
    (chain,) = [c for c in ring.chains() if any(s.layer == "rpc" for s in c.spans)]
    (rpc_span,) = [s for s in chain.spans if s.layer == "rpc"]
    names = [event["name"] for event in rpc_span.events]
    assert names == ["rpc.client.retransmissions", "rpc.client.retransmissions"]
    assert [event["attempt"] for event in rpc_span.events] == [1, 2]
