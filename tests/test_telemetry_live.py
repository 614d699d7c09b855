"""The live plane: JSONL tailing across rotation, RED windows, the dash.

The tail reader is exercised against the *real* :class:`JsonlExporter`
— including its ``max_bytes`` rotation firing while the reader is
mid-file — because "no dropped or duplicated record across a rename"
is the whole contract.
"""

from __future__ import annotations

import pytest

from repro.context import SpanRecord
from repro.rpc.server import RpcServer
from repro.rpc.transport import TcpTransport
from repro.telemetry.exporters import JsonlExporter, TraceChain
from repro.telemetry.live import (
    JsonlTailReader,
    RedAggregator,
    StatsPoller,
    _parse_endpoints,
    _quantile,
    dashboard_widgets,
    main,
    render_frame,
)


def make_chain(trace_id, layer="rpc", started=1.0, elapsed=0.5, outcome="ok"):
    span = SpanRecord(layer, "op", started_at=started, elapsed=elapsed)
    span.outcome = outcome
    return TraceChain(trace_id, [span])


def trace_ids(records):
    return [record.get("trace_id") for record in records]


# -- JsonlTailReader ---------------------------------------------------------


def test_tail_reads_incrementally(tmp_path):
    path = tmp_path / "t.jsonl"
    exporter = JsonlExporter(str(path))
    reader = JsonlTailReader(str(path))
    assert reader.poll() == []  # nothing written yet
    exporter.export(make_chain("t-1"))
    exporter.export(make_chain("t-2"))
    assert trace_ids(reader.poll()) == ["t-1", "t-2"]
    assert reader.poll() == []  # nothing new: no double read
    exporter.export(make_chain("t-3"))
    assert trace_ids(reader.poll()) == ["t-3"]
    assert reader.lines_read == 3
    reader.close()
    exporter.close()


def test_tail_survives_missing_file_until_it_appears(tmp_path):
    path = tmp_path / "late.jsonl"
    reader = JsonlTailReader(str(path))
    assert reader.poll() == []
    exporter = JsonlExporter(str(path))
    exporter.export(make_chain("t-late"))
    assert trace_ids(reader.poll()) == ["t-late"]
    reader.close()
    exporter.close()


def test_torn_trailing_line_stays_buffered(tmp_path):
    path = tmp_path / "torn.jsonl"
    reader = JsonlTailReader(str(path))
    with open(path, "wb") as handle:
        handle.write(b'{"trace_id": "t-full"}\n{"trace_id": "t-to')
        handle.flush()
        assert trace_ids(reader.poll()) == ["t-full"]
        handle.write(b'rn"}\n')
        handle.flush()
        assert trace_ids(reader.poll()) == ["t-torn"]
    assert reader.parse_errors == 0
    reader.close()


def test_garbage_lines_are_counted_not_fatal(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_bytes(b'not json\n{"trace_id": "t-good"}\n\n')
    reader = JsonlTailReader(str(path))
    assert trace_ids(reader.poll()) == ["t-good"]
    assert reader.parse_errors == 1
    reader.close()


def line_length(tmp_path):
    probe_path = tmp_path / "probe.jsonl"
    probe = JsonlExporter(str(probe_path))
    probe.export(make_chain("t-rot"))
    probe.close()
    return len(probe_path.read_bytes())


def test_reader_mid_file_when_rotation_fires(tmp_path):
    """The acceptance case: the reader is mid-segment when ``max_bytes``
    renames it away — every record written lands exactly once."""
    length = line_length(tmp_path)
    path = tmp_path / "rot.jsonl"
    exporter = JsonlExporter(str(path), max_bytes=3 * length, retain=4)
    reader = JsonlTailReader(str(path))
    seen = []
    # Interleave writes and polls so rotation fires between polls while
    # the reader still holds the pre-rotation handle mid-file.
    for index in range(10):
        exporter.export(make_chain(f"t-{index}"))
        if index % 2 == 1:
            seen.extend(trace_ids(reader.poll()))
    seen.extend(trace_ids(reader.poll()))
    exporter.close()
    assert exporter.rotations >= 2  # rotation really happened under us
    assert reader.rotations_followed >= 2
    assert seen == [f"t-{index}" for index in range(10)]  # no loss, no dups
    reader.close()


def test_unpolled_tail_of_renamed_segment_is_drained_first(tmp_path):
    length = line_length(tmp_path)
    path = tmp_path / "drain.jsonl"
    exporter = JsonlExporter(str(path), max_bytes=4 * length, retain=4)
    reader = JsonlTailReader(str(path))
    exporter.export(make_chain("t-0"))
    assert trace_ids(reader.poll()) == ["t-0"]
    # Three more fill the segment; the next write rotates and starts a
    # fresh file — all without the reader polling once.
    for index in range(1, 6):
        exporter.export(make_chain(f"t-{index}"))
    assert exporter.rotations == 1
    # One poll must surface the renamed segment's tail AND the new file.
    assert trace_ids(reader.poll()) == [f"t-{index}" for index in range(1, 6)]
    reader.close()
    exporter.close()


def test_two_rotations_between_polls_lose_nothing(tmp_path):
    length = line_length(tmp_path)
    path = tmp_path / "double.jsonl"
    exporter = JsonlExporter(str(path), max_bytes=2 * length, retain=6)
    reader = JsonlTailReader(str(path))
    exporter.export(make_chain("t-0"))
    assert trace_ids(reader.poll()) == ["t-0"]
    # Three rotations fire with no poll in between: the segment the
    # reader holds ends up at ``.3`` and two whole segments it never
    # opened sit at ``.2`` and ``.1``.
    for index in range(1, 8):
        exporter.export(make_chain(f"t-{index}"))
    assert exporter.rotations >= 3
    assert trace_ids(reader.poll()) == [f"t-{index}" for index in range(1, 8)]
    reader.close()
    exporter.close()


def test_truncation_in_place_restarts_from_top(tmp_path):
    path = tmp_path / "trunc.jsonl"
    path.write_bytes(b'{"trace_id": "t-old-1"}\n{"trace_id": "t-old-2"}\n')
    reader = JsonlTailReader(str(path))
    assert trace_ids(reader.poll()) == ["t-old-1", "t-old-2"]
    # In-place truncation (same inode, size below our offset).
    with open(path, "wb") as handle:
        handle.write(b'{"trace_id": "t-new"}\n')
    assert trace_ids(reader.poll()) == ["t-new"]
    assert reader.truncations == 1
    reader.close()


def test_concurrent_writer_and_reader_agree(tmp_path):
    """Torn-line stress: a thread drives the exporter through rotations
    while the reader polls; the reader must see every line exactly once."""
    import threading
    import time

    length = line_length(tmp_path)
    path = tmp_path / "stress.jsonl"
    exporter = JsonlExporter(str(path), max_bytes=5 * length, retain=20)
    reader = JsonlTailReader(str(path))
    total = 80

    def write():
        for index in range(total):
            exporter.export(make_chain(f"w-{index}"))
            time.sleep(0.001)  # pace: rotations land between polls, not mid-scan

    writer = threading.Thread(target=write)
    writer.start()
    seen = []
    while writer.is_alive():
        seen.extend(trace_ids(reader.poll()))
    writer.join()
    exporter.close()
    for __ in range(3):  # settle: drain whatever landed after the join
        seen.extend(trace_ids(reader.poll()))
    reader.close()
    assert exporter.rotations > 0
    assert sorted(seen) == sorted(f"w-{index}" for index in range(total))
    # Order within the stream is preserved too.
    assert seen == [f"w-{index}" for index in range(total)]


# -- RedAggregator -----------------------------------------------------------


def test_quantile_nearest_rank():
    assert _quantile([], 0.5) == 0.0
    assert _quantile([1.0], 0.95) == 1.0
    assert _quantile([1.0, 2.0, 3.0, 4.0], 0.5) == 3.0  # nearest rank rounds up


def test_red_rows_per_layer(tmp_path):
    agg = RedAggregator(window=10.0)
    for index in range(4):
        agg.feed(make_chain(f"t-{index}", layer="rpc", started=float(index),
                            elapsed=0.1 * (index + 1)).to_wire())
    agg.feed(make_chain("t-err", layer="trader", started=2.0, elapsed=0.5,
                        outcome="error:kaput").to_wire())
    rows = {row["layer"]: row for row in agg.rows()}
    assert rows["rpc"]["count"] == 4
    assert rows["rpc"]["errors"] == 0
    assert rows["rpc"]["rate"] == pytest.approx(0.4)
    assert rows["trader"]["errors"] == 1
    assert rows["rpc"]["p50"] <= rows["rpc"]["p95"]
    assert agg.chains_seen == 5 and agg.spans_seen == 5


def test_red_window_evicts_old_samples():
    agg = RedAggregator(window=5.0)
    agg.feed(make_chain("t-old", started=0.0, elapsed=0.1).to_wire())
    agg.feed(make_chain("t-new", started=20.0, elapsed=0.1).to_wire())
    (row,) = agg.rows()
    assert row["count"] == 1  # t-old fell out of the window


def test_log_records_feed_recent_events():
    agg = RedAggregator(window=30.0, recent_events=2)
    for index in range(3):
        agg.feed({"kind": "log", "event": "rpc.shed", "level": "warning",
                  "at": float(index), "trace_id": f"t-{index}"})
    agg.feed({"kind": "log", "event": "rpc.failover", "at": 3.0})
    assert agg.events_seen == 4
    assert agg.event_counts() == {"rpc.failover": 1, "rpc.shed": 3}
    assert len(agg.recent_events) == 2  # bounded
    assert agg.recent_events[-1]["event"] == "rpc.failover"


def test_unknown_record_shapes_are_ignored():
    agg = RedAggregator()
    agg.feed({"something": "else"})
    agg.feed({"spans": [{"layer": "rpc", "started_at": "bogus", "elapsed": None}]})
    assert agg.rows() == []


# -- rendering ---------------------------------------------------------------


def sample_aggregator():
    agg = RedAggregator(window=10.0)
    agg.feed(make_chain("t-1", layer="rpc", started=1.0, elapsed=0.2).to_wire())
    agg.feed({"kind": "log", "event": "rpc.shed", "level": "warning",
              "at": 1.5, "trace_id": "t-1"})
    return agg


def test_dashboard_frame_renders_red_stats_and_events():
    snapshot = {
        "address": "host-a:7",
        "server": {
            "calls_handled": 12, "calls_shed": 3, "queue_depth": 2,
            "queue_capacity": 8, "in_flight": 1,
        },
        "breakers": {"peer:1": "open", "peer:2": "closed"},
    }
    unreachable = {"address": "host-b:9", "error": "connection refused"}
    frame = render_frame(sample_aggregator(), [snapshot, unreachable])
    assert "Per-layer RED" in frame
    assert "rpc" in frame
    assert "STATS polls" in frame
    assert "host-a:7" in frame
    assert "connection refused" in frame
    assert "Recent events" in frame
    assert "rpc.shed" in frame


def test_dashboard_frame_renders_migration_table():
    snapshot = {
        "address": "host-a:7",
        "server": {
            "calls_handled": 1, "calls_shed": 0, "queue_depth": 0,
            "queue_capacity": 8, "in_flight": 0,
        },
        "sharding": {
            "map_version": {"router": 5.0},
            "routed": {"router|s0|export": 9.0},
            "failovers": {},
            "migration": {
                "phase": {"router|CarRentalService": 4.0},
                "offers_copied": 12.0,
                "deltas_replayed": 3.0,
                "forwarded_calls": 1.0,
            },
        },
    }
    frame = render_frame(sample_aggregator(), [snapshot])
    assert "Sharding / migrations" in frame
    assert "CarRentalService:FLIP" in frame
    assert "host-a:7" in frame


def test_widget_tree_shape():
    widgets = dashboard_widgets(sample_aggregator())
    labels = [widget.label for widget in widgets]
    assert labels[0] == "telemetry-dash"
    assert any("Per-layer RED" in label for label in labels)


# -- StatsPoller -------------------------------------------------------------


def test_stats_poller_over_tcp():
    server_transport = TcpTransport()
    try:
        server = RpcServer(server_transport)
        good = server.address
        probe = TcpTransport()
        dead = probe.local_address
        probe.close()
        poller = StatsPoller([good, dead])
        poller.timeout = 0.3
        first, second = poller.poll()
        poller.close()
    finally:
        server_transport.close()
    assert first["address"] == f"{good.host}:{good.port}"
    assert first["server"]["calls_handled"] >= 0
    assert second["address"] == f"{dead.host}:{dead.port}"
    assert "error" in second


def test_parse_endpoints_accepts_repeats_and_commas():
    endpoints = _parse_endpoints(["a:1,b:2", " c:3 "])
    assert [(e.host, e.port) for e in endpoints] == [("a", 1), ("b", 2), ("c", 3)]
    with pytest.raises(ValueError):
        _parse_endpoints(["nope"])


# -- the CLI -----------------------------------------------------------------


def fixture_file(tmp_path):
    path = tmp_path / "fixture.jsonl"
    exporter = JsonlExporter(str(path))
    exporter.export(make_chain("t-fix-1", layer="rpc", started=1.0, elapsed=0.2))
    exporter.export(make_chain("t-fix-2", layer="trader", started=1.5, elapsed=0.4,
                               outcome="error:shed"))
    exporter.write_record({"kind": "log", "event": "rpc.shed", "level": "warning",
                           "at": 1.6, "trace_id": "t-fix-2"})
    exporter.close()
    return path


def test_dash_once_renders_fixture_without_live_stack(tmp_path, capsys):
    path = fixture_file(tmp_path)
    out = tmp_path / "frame.txt"
    code = main(["--once", "--file", str(path), "--out", str(out), "--no-clear"])
    assert code == 0
    frame = out.read_text()
    assert "Per-layer RED" in frame
    assert "rpc" in frame and "trader" in frame
    assert "rpc.shed" in frame
    assert "Per-layer RED" in capsys.readouterr().out


def test_dash_renders_committed_ci_fixture(tmp_path):
    """The exact frame CI renders: the recorded fixture, one frame, no
    live stack, no sleeps."""
    import os

    fixture = os.path.join(os.path.dirname(__file__), "fixtures", "dash_fixture.jsonl")
    out = tmp_path / "ci_frame.txt"
    code = main(["--once", "--file", fixture, "--out", str(out), "--no-clear"])
    assert code == 0
    frame = out.read_text()
    for expected in ("Per-layer RED", "rpc", "server", "trader", "resilience",
                     "rpc.shed", "rpc.breaker_open"):
        assert expected in frame


def test_dash_requires_something_to_watch():
    with pytest.raises(SystemExit):
        main([])


def test_dash_frames_limit_stops(tmp_path):
    path = fixture_file(tmp_path)
    code = main(["--file", str(path), "--frames", "2", "--interval", "0",
                 "--no-clear"])
    assert code == 0
