"""Wire-level STATS introspection: every server answers, even drowning.

Covers the snapshot contents (including the PR 7 batching health
sections), the wire-codec round-trip guarantee, the admission bypass
with its token-bucket budget, overload behaviour (STATS answers while
normal calls are SHED), and the CLI.
"""

from __future__ import annotations

import json

import pytest

from repro.rpc import (
    AdmissionPolicy,
    RpcProgram,
    RpcServer,
)
from repro.rpc import stats as stats_mod
from repro.rpc.errors import ServerShedding
from repro.rpc.message import ReplyStatus, RpcCall, decode_message
from repro.rpc.server import ReplyCache
from repro.rpc.stats import (
    PROC_SNAPSHOT,
    SNAPSHOT_VERSION,
    STATS_PROGRAM,
    STATS_VERSION,
    StatsBudget,
)
from repro.rpc.transport import SimTransport, TcpTransport
from repro.rpc.xdr import decode_value, encode_value
from repro.telemetry.metrics import METRICS


# -- snapshot contents -------------------------------------------------------


def test_every_server_serves_stats_automatically(net, make_server, make_client):
    server = make_server()
    program = RpcProgram(990100, name="work")
    program.register(1, lambda args: args, "echo")
    server.serve(program)
    client = make_client()
    assert client.call(server.address, 990100, 1, 1, {"x": 1}) == {"x": 1}

    snapshot = client.stats(server.address)
    assert snapshot["stats_version"] == SNAPSHOT_VERSION
    assert snapshot["address"] == f"{server.address.host}:{server.address.port}"
    assert snapshot["server"]["calls_handled"] >= 1
    assert snapshot["server"]["queue_capacity"] >= 1
    programs = snapshot["server"]["programs"]
    assert programs["work"]["prog"] == 990100
    assert programs["work"]["procedures"]["1"] == "echo"
    assert programs["stats"]["prog"] == STATS_PROGRAM
    assert programs["stats"]["procedures"][str(PROC_SNAPSHOT)] == "snapshot"
    admission = snapshot["server"]["admission"]
    assert set(admission) == {"shed", "defer_while_busy", "capacity", "quantile"}
    assert "sampling" in snapshot and snapshot["sampling"]["rate"] == 1.0
    assert "metrics" in snapshot


def test_snapshot_reports_reply_cache_fill_and_evictions(make_server, make_client):
    server = make_server()
    server._reply_cache = ReplyCache(8192)  # 4 KiB for small, 4 KiB for large
    program = RpcProgram(990300, name="fill")
    program.register(1, lambda size: "x" * size, "fill")
    server.serve(program)
    client = make_client()
    evicted_before = METRICS.counter("rpc.server.reply_cache_evicted")
    empty = client.stats(server.address)["server"]
    for _ in range(8):  # ~1.3 kB charged each: the large queue turns over
        client.call(server.address, 990300, 1, 1, 1000)
    filled = client.stats(server.address)["server"]
    assert (empty["reply_cache"], empty["reply_cache_charged"], empty["reply_cache_evicted"]) == (
        0, 0, 0,
    )
    assert empty["reply_cache_limit"] == filled["reply_cache_limit"] == 8192
    assert filled["reply_cache"] == 3
    assert 3 * 1000 < filled["reply_cache_charged"] <= 4096
    assert filled["reply_cache_evicted"] == 5
    assert (
        METRICS.counter("rpc.server.reply_cache_evicted") - evicted_before
        == server._reply_cache.evicted
    )
    # STATS replies are not cached: a probe leaves the window as it was.
    assert client.stats(server.address)["server"]["reply_cache_charged"] == (
        filled["reply_cache_charged"]
    )


def test_snapshot_round_trips_over_wire_codec(make_server):
    server = make_server()
    # The PR 7 observables must survive the codec too: seed them first.
    METRICS.observe("rpc.server.batch_replies", 3.0)
    METRICS.set_gauge("rpc.server.queue_depth", 2.0, ("stats-test-host:9",))
    snapshot = stats_mod.build_snapshot(server)
    decoded = decode_value(encode_value(snapshot))
    assert decoded == snapshot
    assert decoded["batching"]["queue_depth"]["stats-test-host:9"] == 2.0
    assert decoded["batching"]["replies"]["count"] >= 1


def test_snapshot_reports_breaker_and_lease_series(make_server):
    METRICS.set_gauge("rpc.breaker.state", 2.0, ("host-x:1",))
    METRICS.set_gauge("trader.offers.live", 4.0, ("trader-stats-test",))
    snapshot = stats_mod.build_snapshot(make_server())
    assert snapshot["breakers"]["host-x:1"] == "open"
    assert snapshot["leases"]["live"]["trader-stats-test"] == 4.0


# -- the admission bypass and its budget -------------------------------------


def test_stats_budget_token_bucket(monkeypatch):
    monkeypatch.setattr(stats_mod, "STATS_BURST", 2)
    monkeypatch.setattr(stats_mod, "STATS_PER_SECOND", 1.0)
    budget = StatsBudget()
    assert budget.take(0.0) is True
    assert budget.take(0.0) is True
    assert budget.take(0.0) is False  # burst spent
    assert budget.take(0.5) is False  # half a token refilled: still short
    assert budget.take(1.5) is True  # elapsed time refilled one


def stats_call(xid, deadline=None):
    return RpcCall(
        xid, STATS_PROGRAM, STATS_VERSION, PROC_SNAPSHOT, encode_value(None),
        deadline=deadline,
    )


def probe_on(net, host="stats-probe"):
    transport = SimTransport(net, host)
    replies = {}

    def on_payload(source, payload):
        message = decode_message(payload)
        replies.setdefault(message.xid, []).append(message)

    transport.set_receiver(on_payload)
    return transport, replies


def test_probes_beyond_budget_are_shed(net, make_server):
    server = make_server()
    probe, replies = probe_on(net)
    shed_before = METRICS.counter("rpc.server.shed", ("stats_budget", "stats", "1"))
    for xid in range(1, 13):  # burst is 8: a back-to-back volley overruns it
        probe.send(server.address, stats_call(xid).encode())
    net.clock.drain()
    statuses = [reply.status for answers in replies.values() for reply in answers]
    assert statuses.count(ReplyStatus.SUCCESS) >= 8
    assert statuses.count(ReplyStatus.SHED) >= 1
    assert (
        METRICS.counter("rpc.server.shed", ("stats_budget", "stats", "1"))
        > shed_before
    )


def test_stats_shed_surfaces_as_server_shedding(net, make_server, make_client, monkeypatch):
    monkeypatch.setattr(stats_mod, "STATS_BURST", 1)
    monkeypatch.setattr(stats_mod, "STATS_PER_SECOND", 0.0)
    server = make_server()
    client = make_client()
    assert client.stats(server.address)["stats_version"] == SNAPSHOT_VERSION
    with pytest.raises(ServerShedding):
        client.stats(server.address, retries=0)


def test_stats_answers_while_overload_sheds_normal_calls(net):
    """The acceptance scenario: the queue is saturated with slow work and
    overflow sheds normal traffic, yet a STATS probe answers inline with
    a snapshot showing the congestion."""
    transport = SimTransport(net, "busy-server")
    server = RpcServer(
        transport,
        admission=AdmissionPolicy(shed=False, defer_while_busy=True, capacity=2),
    )
    program = RpcProgram(990200, name="slow")

    def slow(args):
        transport.wait(lambda: False, 1.0)
        return {"done": True}

    program.register(1, slow, "slow")
    server.serve(program)

    probe, replies = probe_on(net)
    t0 = net.clock.now
    # 6x the queue capacity arrives while the first call executes.
    for xid in range(1, 13):
        call = RpcCall(
            xid, 990200, 1, 1, encode_value({"i": xid}), deadline=t0 + 30.0
        )
        net.clock.schedule(0.01 * xid, lambda c=call: probe.send(server.address, c.encode()))
    # The STATS probe lands mid-overload, while the queue is full.
    net.clock.schedule(0.5, lambda: probe.send(server.address, stats_call(99).encode()))
    net.clock.drain()

    statuses = [r.status for xid in range(1, 13) for r in replies.get(xid, [])]
    assert ReplyStatus.SHED in statuses  # overflow shed normal traffic
    (stats_reply,) = replies[99]
    assert stats_reply.status == ReplyStatus.SUCCESS
    snapshot = decode_value(stats_reply.body)
    # The snapshot saw the overload as it happened.
    assert snapshot["server"]["queue_depth"] >= 1
    assert snapshot["server"]["in_flight"] >= 1
    assert snapshot["server"]["calls_shed"] >= 1


# -- the CLI -----------------------------------------------------------------


def test_cli_dumps_snapshot_over_tcp(capsys):
    server_transport = TcpTransport()
    try:
        server = RpcServer(server_transport)
        address = server.address
        code = stats_mod.main([f"{address.host}:{address.port}"])
    finally:
        server_transport.close()
    assert code == 0
    snapshot = json.loads(capsys.readouterr().out)
    assert snapshot["stats_version"] == SNAPSHOT_VERSION
    assert snapshot["address"] == f"{address.host}:{address.port}"


def test_cli_reports_unreachable_endpoint(capsys):
    # A listener that is bound, then closed: connection refused/timeout.
    probe = TcpTransport()
    dead = probe.local_address
    probe.close()
    code = stats_mod.main([f"{dead.host}:{dead.port}", "--timeout", "0.2"])
    assert code == 1
    assert "stats:" in capsys.readouterr().err


def test_cli_rejects_malformed_endpoint():
    with pytest.raises(ValueError):
        stats_mod._parse_endpoint("not-an-endpoint")
    with pytest.raises(ValueError):
        stats_mod._parse_endpoint("host:notaport")


def test_snapshot_reports_sharding_plane(make_server):
    METRICS.set_gauge("sharding.map_version", 3.0, ("router-stats-test",))
    METRICS.set_gauge("sharding.replication_seq", 17.0, ("shard-stats-test",))
    METRICS.inc("sharding.routed", ("router-stats-test", "s0", "export"), amount=2)
    METRICS.inc("sharding.failovers", ("router-stats-test", "s0"))
    METRICS.inc("sharding.promotions", ("shard-stats-test",))
    METRICS.inc("sharding.fanout", ("router-stats-test",), amount=4)
    METRICS.inc("sharding.syncs", ("shard-stats-test",))
    snapshot = stats_mod.build_snapshot(make_server())
    sharding = snapshot["sharding"]
    assert sharding["map_version"]["router-stats-test"] == 3.0
    assert sharding["replication_seq"]["shard-stats-test"] == 17.0
    assert sharding["routed"]["router-stats-test|s0|export"] == 2.0
    assert sharding["failovers"]["router-stats-test|s0"] == 1.0
    assert sharding["promotions"]["shard-stats-test"] == 1.0
    assert sharding["fanout"] >= 4.0
    assert sharding["syncs"] >= 1.0
    # And the section survives the wire codec like everything else.
    decoded = decode_value(encode_value(snapshot))
    assert decoded["sharding"] == sharding


def test_snapshot_reports_migration_subsection(make_server):
    METRICS.set_gauge(
        "sharding.migration.phase", 4.0, ("router-stats-test", "CarRentalService")
    )
    METRICS.inc(
        "sharding.migration.offers_copied",
        ("router-stats-test", "CarRentalService"),
        amount=12,
    )
    METRICS.inc(
        "sharding.migration.deltas_replayed",
        ("router-stats-test", "CarRentalService"),
        amount=3,
    )
    METRICS.inc("sharding.migration.forwarded_calls", ("router-stats-test", "export"))
    snapshot = stats_mod.build_snapshot(make_server())
    migration = snapshot["sharding"]["migration"]
    assert migration["phase"]["router-stats-test|CarRentalService"] == 4.0
    assert migration["offers_copied"] >= 12.0
    assert migration["deltas_replayed"] >= 3.0
    assert migration["forwarded_calls"] >= 1.0
    # And the subsection survives the wire codec like everything else.
    decoded = decode_value(encode_value(snapshot))
    assert decoded["sharding"]["migration"] == migration
