"""The replication plane: delta log, catch-up, promotion — local and on the wire.

The local half pins the delta-stream contract: contiguous sequence
numbers, duplicate acknowledgement, gap detection, pull catch-up that
ends with the lease-expiry sweep, and the promotion state machine
(replicas refuse writes; a promoted replica's log continues where the
primary's left off).

The wire half stands up a real shard *node* — one ``RpcServer`` serving
both the ordinary trader program and the sharding program — and drives
it through :class:`RemoteShardBackend`: replication pushed over RPC, a
host crash, breaker-driven failover to the replica node, and the import
that doesn't notice.
"""

from __future__ import annotations

import pytest

from repro.context import CallContext
from repro.naming.refs import ServiceRef
from repro.net.endpoints import Address
from repro.rpc.client import RpcClient
from repro.rpc.codec import Encoded
from repro.rpc.errors import ProgramUnavailable, RpcTimeout
from repro.rpc.resilience import CircuitOpen
from repro.rpc.server import RpcServer
from repro.rpc.transport import SimTransport
from repro.sidl.types import DOUBLE, InterfaceType, LONG, OperationType
from repro.trader.errors import ConstraintSyntaxError, OfferNotFound
from repro.trader.service_types import ServiceType
from repro.trader.sharding import (
    DeltaLog,
    RemoteShardBackend,
    ShardDelta,
    ShardReplicationService,
    ShardRouter,
    ShardUnavailable,
    ShardingError,
    SyncGap,
    TraderShard,
)
from repro.trader.sharding.replication import DELTA_OPS
from repro.trader.trader import ImportRequest, TraderService


def rental_type():
    return ServiceType(
        "CarRentalService",
        InterfaceType("I", [OperationType("SelectCar", [], LONG)]),
        [("ChargePerDay", DOUBLE)],
    )


def ref(name):
    return ServiceRef.create(name, Address("provider", 1), 1)


def make_primary(shard_id="p", **kw):
    shard = TraderShard(shard_id, offer_prefix="m", **kw)
    shard.add_type(rental_type())
    return shard


# -- the delta log ------------------------------------------------------------


def test_delta_log_assigns_contiguous_seqs_and_slices():
    log = DeltaLog()
    for n in range(5):
        delta = log.append("export", {"n": n}, map_version=1)
        assert delta.seq == n + 1
    assert log.last_seq == 5
    assert [d.seq for d in log.since(0)] == [1, 2, 3, 4, 5]
    assert [d.seq for d in log.since(3)] == [4, 5]
    assert log.since(5) == []


def test_delta_log_truncation_moves_the_base():
    log = DeltaLog()
    for n in range(6):
        log.append("export", {"n": n})
    log.truncate_to(3)
    assert [d.seq for d in log.since(3)] == [4, 5, 6]
    with pytest.raises(SyncGap):
        log.since(1)  # older than the retained tail: snapshot instead


def test_delta_log_starting_at_a_snapshot_seq():
    log = DeltaLog(base_seq=40)
    delta = log.append("export", {})
    assert delta.seq == 41
    assert [d.seq for d in log.since(40)] == [41]
    with pytest.raises(SyncGap):
        log.since(12)


# -- push, gaps, catch-up ------------------------------------------------------


def test_type_filtered_view_of_the_log_equals_the_old_client_side_filter():
    """``deltas_since(seq, service_type)`` is the filter the migration
    coordinator used to run itself over the donor's whole tail."""

    def relevant(delta_wire, service_type):  # MigrationCoordinator._relevant, PR 10
        op, data = delta_wire["op"], delta_wire["data"]
        if op == "export":
            return data["offer"]["service_type"] == service_type
        if op in ("withdraw", "modify", "renew"):
            return data["offer_id"].startswith(f"m:{service_type}:")
        return op == "expire"

    primary = make_primary()
    other = ServiceType("Other", rental_type().interface, [("ChargePerDay", DOUBLE)])
    primary.add_type(other)
    ids = {}
    for name in ("CarRentalService", "Other"):
        ids[name] = [
            primary.export(name, ref(f"{name}-{n}"), {"ChargePerDay": n}, 0.0, lease_seconds=lease)
            for n, lease in enumerate((5.0, 60.0, 60.0, 60.0))
        ]
    migration = {"migration_id": "g", "service_type": "Other", "source": "p", "target": "q"}
    primary.migrate_begin(migration, "out")
    for name in ("Other", "CarRentalService"):
        primary.modify(ids[name][1], {"ChargePerDay": 7.0})
        primary.renew(ids[name][2], 1.0)
        primary.withdraw(ids[name][3])
    assert primary.expire_offers(10.0) == 2
    primary.mask_type("Other")
    primary.migrate_flip("g")
    whole = primary.deltas_since(0)
    assert {delta["op"] for delta in whole} >= {
        "add_type", "export", "modify", "renew", "withdraw", "expire",
        "mask_type", "migrate_begin", "migrate_flip",
    }
    for name in ("CarRentalService", "Other", "Unknown"):
        for since in (0, 5, len(whole)):
            assert primary.deltas_since(since, name) == [
                delta for delta in whole[since:] if relevant(delta, name)
            ]
    # A recipient's scoped sweep is its own business, except for its type.
    scoped = ShardDelta(1, "expire", {"now": 1.0, "service_type": "Other"})
    assert scoped.touches("Other", "m") and not scoped.touches("CarRentalService", "m")


def test_interpreter_delta_ops_and_protocol_doc_agree():
    """Drift guard: ``DELTA_OPS`` is exactly what ``_apply`` interprets
    and exactly what docs/PROTOCOL.md lists."""
    import pathlib
    import re

    offer = {
        "offer_id": "m:CarRentalService:1", "service_type": "CarRentalService",
        "ref": ref("x").to_wire(), "properties": {"ChargePerDay": 1.0},
    }
    record = {"migration_id": "g", "service_type": "CarRentalService", "side": "out"}
    samples = {
        "add_type": {"type": rental_type().to_wire()},
        "export": {"offer": offer},
        "modify": {"offer_id": offer["offer_id"], "properties": {"ChargePerDay": 2.0}},
        "renew": {"offer_id": offer["offer_id"], "expires_at": 9.0},
        "expire": {"now": 1.0},
        "withdraw": {"offer_id": offer["offer_id"]},
        "migrate_begin": {"record": record},
        "migrate_in": {"migration_id": "g", "offers": [offer]},
        "migrate_flip": {"migration_id": "g"},
        "migrate_abort": dict(record),
        "migrate_done": dict(record),
        "mask_type": {"name": "CarRentalService"},
        "remove_type": {"name": "CarRentalService"},
    }
    assert sorted(samples) == sorted(DELTA_OPS) and len(DELTA_OPS) == 13
    replica = TraderShard("r", offer_prefix="m", role="replica")
    for seq, (op, data) in enumerate(samples.items(), start=1):
        assert replica.apply_delta(ShardDelta(seq, op, data).to_wire()) is True
    with pytest.raises(ShardingError, match="unknown delta op"):
        replica.apply_delta(ShardDelta(len(samples) + 1, "migrate_expire", {}).to_wire())

    protocol = pathlib.Path(__file__).resolve().parents[1] / "docs" / "PROTOCOL.md"
    table = protocol.read_text().split("| delta op |", 1)[1].split("\n\n", 1)[0]
    documented = re.findall(r"^\| `(\w+)` \|", table, flags=re.MULTILINE)
    assert documented == list(DELTA_OPS)


def wire_deltas(primary, since=0):
    return primary.deltas_since(since)


def test_pushed_deltas_converge_the_replica():
    primary = TraderShard("p", offer_prefix="m")
    replica = TraderShard("r", offer_prefix="m", role="replica")
    primary.attach_replica("r", replica.apply_delta)
    primary.add_type(rental_type())
    offer_id = primary.export(
        "CarRentalService", ref("a"), {"ChargePerDay": 10.0}, now=0.0
    )
    primary.modify(offer_id, {"ChargePerDay": 12.0})
    primary.renew(offer_id, now=5.0)
    assert replica.applied_seq == primary.log.last_seq
    [mirrored] = replica.list_offers()
    assert mirrored.to_wire() == primary.trader.offers.get(offer_id).to_wire()
    # The replica mirrors the log too, so it could replicate onward.
    assert [d["seq"] for d in replica.deltas_since(0)] == [1, 2, 3, 4]


def test_duplicate_delta_is_acked_without_reapplying():
    primary = TraderShard("p", offer_prefix="m")
    replica = TraderShard("r", offer_prefix="m", role="replica")
    primary.attach_replica("r", replica.apply_delta)
    primary.add_type(rental_type())
    primary.export("CarRentalService", ref("a"), {"ChargePerDay": 10.0})
    replay = primary.deltas_since(0)[-1]
    assert replica.apply_delta(replay) is True  # retried push after timeout
    assert replica.applied_seq == primary.log.last_seq
    assert len(replica.list_offers()) == 1


def test_gap_is_refused_and_sync_catches_up_expiring_stale_leases():
    primary = make_primary()
    replica = TraderShard("r", offer_prefix="m", role="replica")
    # No live push: the replica goes dark through three mutations.
    primary.export(
        "CarRentalService", ref("a"), {"ChargePerDay": 10.0}, now=0.0,
        lease_seconds=5.0,
    )
    primary.export("CarRentalService", ref("b"), {"ChargePerDay": 20.0}, now=0.0)
    latest = primary.deltas_since(0)[-1]
    assert replica.apply_delta(latest) is False  # out of order: ask for SYNC
    assert replica.applied_seq == 0
    applied = replica.sync_from(primary.deltas_since, now=30.0)
    assert applied == 3
    # Lease-aware anti-entropy: ``a`` lapsed while the replica was dark
    # and is expired on catch-up, before the replica serves anything.
    assert [offer.service_ref().name for offer in replica.list_offers()] == ["b"]


def test_non_contiguous_sync_batch_is_an_error():
    replica = TraderShard("r", offer_prefix="m", role="replica")
    primary = make_primary()
    primary.export("CarRentalService", ref("a"), {"ChargePerDay": 10.0})

    def gappy_fetch(seq):
        return primary.deltas_since(seq)[1:]  # drop the first delta

    with pytest.raises(ShardingError):
        replica.sync_from(gappy_fetch, now=0.0)


# -- roles and promotion -------------------------------------------------------


def test_replica_refuses_the_write_surface():
    replica = TraderShard("r", offer_prefix="m", role="replica")
    with pytest.raises(ShardingError):
        replica.export("CarRentalService", ref("a"), {"ChargePerDay": 1.0})
    with pytest.raises(ShardingError):
        replica.withdraw("m:CarRentalService:1")
    with pytest.raises(ShardingError):
        replica.add_type(rental_type())


def test_promotion_flips_role_sweeps_and_continues_the_log():
    primary = TraderShard("p", offer_prefix="m")
    replica = TraderShard("r", offer_prefix="m", role="replica")
    primary.attach_replica("r", replica.apply_delta)
    primary.add_type(rental_type())
    primary.export(
        "CarRentalService", ref("a"), {"ChargePerDay": 10.0}, now=0.0,
        lease_seconds=5.0,
    )
    primary.export("CarRentalService", ref("b"), {"ChargePerDay": 20.0}, now=0.0)
    seq_at_crash = primary.log.last_seq

    evicted = replica.promote(now=60.0)
    assert evicted == 1  # ``a``'s lease lapsed in the failover window
    assert replica.role == "primary"
    # Writes flow — and the log continues the primary's numbering, so a
    # future replica of the *new* primary can catch up from any seq.
    offer_id = replica.export(
        "CarRentalService", ref("c"), {"ChargePerDay": 30.0}, now=61.0
    )
    assert offer_id == "m:CarRentalService:3"  # per-type counter continuity
    assert replica.log.last_seq > seq_at_crash
    assert [d["seq"] for d in replica.deltas_since(0)] == list(
        range(1, replica.log.last_seq + 1)
    )


def test_stale_map_version_is_refused():
    shard = make_primary()
    assert shard.set_map({"version": 3, "shard_ids": ["a"]}) is True
    assert shard.set_map({"version": 2, "shard_ids": ["a", "b"]}) is False
    assert shard.map_version == 3


# -- the wire plane ------------------------------------------------------------


@pytest.fixture
def wired(net):
    """Two shard nodes (primary + replica) and a router on its own host.

    Replication is pushed over RPC: the primary's sink calls the replica
    node's APPLY_DELTA procedure through its own client.
    """
    primary = TraderShard("node-a", offer_prefix="m")
    replica = TraderShard("node-b", offer_prefix="m", role="replica")

    server_a = RpcServer(SimTransport(net, "node-a"))
    TraderService(server_a, trader=primary)
    ShardReplicationService(server_a, primary)

    server_b = RpcServer(SimTransport(net, "node-b"))
    TraderService(server_b, trader=replica)
    ShardReplicationService(server_b, replica)

    push_rpc = RpcClient(SimTransport(net, "node-a"), timeout=0.2, retries=1)
    replica_admin = RemoteShardBackend(push_rpc, server_b.address)
    primary.attach_replica("node-b", replica_admin.apply_delta)

    router_rpc = RpcClient(SimTransport(net, "router"), timeout=0.2, retries=1)
    router = ShardRouter(
        router_id="wired", offer_prefix="m", clock=router_rpc.transport.now, fanout_workers=1
    )
    router.add_shard(
        "s0",
        RemoteShardBackend(router_rpc, server_a.address),
        [RemoteShardBackend(router_rpc, server_b.address)],
    )
    router.add_type(rental_type())
    return net, router, primary, replica


def test_remote_backend_replicates_over_rpc(wired):
    net, router, primary, replica = wired
    offer_id = router.export(
        "CarRentalService", ref("a"), {"ChargePerDay": 10.0}
    )
    assert offer_id == "m:CarRentalService:1"
    assert replica.applied_seq == primary.log.last_seq
    assert len(replica.list_offers()) == 1
    status = router.handle("s0").primary.status()
    assert status["shard_id"] == "node-a"
    assert status["role"] == "primary"


def test_host_crash_fails_over_to_the_replica_node(wired):
    net, router, primary, replica = wired
    router.export("CarRentalService", ref("a"), {"ChargePerDay": 10.0})
    router.export("CarRentalService", ref("b"), {"ChargePerDay": 25.0})
    request = ImportRequest("CarRentalService", "ChargePerDay < 30", "min ChargePerDay")
    before = [o.offer_id for o in router.import_(request)]

    net.faults.crash("node-a")
    after = [o.offer_id for o in router.import_(request)]
    assert after == before
    assert replica.role == "primary"  # promoted over the wire
    assert router.handle("s0").status()["replicas"] == 0
    # Writes keep flowing to the promoted node, with id continuity.
    assert (
        router.export("CarRentalService", ref("c"), {"ChargePerDay": 40.0})
        == "m:CarRentalService:3"
    )


def test_a_remote_import_answers_encoded_or_raises_its_mapped_error(wired):
    """A remote shard's SUCCESS body comes back undecoded, for the router
    to relay or decode; any other status raises the typed error
    ``reply_to_result`` maps it to, so nothing but an answer is relayed."""
    net, router, primary, replica = wired
    router.export("CarRentalService", ref("a"), {"ChargePerDay": 10.0})
    backend = router.handle("s0").primary
    request = ImportRequest("CarRentalService", "", "min ChargePerDay", 1).to_wire()
    answer = backend.import_wire(request)
    assert isinstance(answer, Encoded)
    assert [wire["offer_id"] for wire in answer.decode()] == ["m:CarRentalService:1"]
    with pytest.raises(ConstraintSyntaxError):
        backend.import_wire(dict(request, constraint="ChargePerDay <"))
    bare = RpcServer(SimTransport(net, "node-c"))  # serves no trader program
    with pytest.raises(ProgramUnavailable):
        RemoteShardBackend(backend._client, bare.address).import_wire(request)


def test_a_remote_shards_application_error_is_no_outage(wired):
    """A remote shard refusing an unknown offer id answers the way a local
    one does — ``OfferNotFound`` — and trips no breaker: the primary keeps
    serving and the replica stays a replica."""
    net, router, primary, replica = wired
    router.export("CarRentalService", ref("a"), {"ChargePerDay": 10.0})
    stale = "m:CarRentalService:99"
    for op, args in (("withdraw", ()), ("renew", ()), ("modify", ({"ChargePerDay": 1.0},))):
        with pytest.raises(OfferNotFound):
            getattr(router, op)(stale, *args)
    assert router.handle("s0").status() == {
        "shard_id": "s0", "breaker": "closed", "replicas": 1,
    }
    assert (primary.role, replica.role) == ("primary", "replica")
    assert router.export("CarRentalService", ref("b"), {"ChargePerDay": 12.0})


def test_a_silent_primary_forfeits_only_its_slice_of_the_deadline(wired):
    """The primary stops answering mid-run: the import's 0.5 s budget is
    sliced over primary and replica, so the promoted replica answers in
    time, and the shard keeps serving imports and exports afterwards."""
    net, router, primary, replica = wired
    router.export("CarRentalService", ref("a"), {"ChargePerDay": 10.0})
    request = ImportRequest("CarRentalService", "ChargePerDay < 30")
    net.faults.crash("node-a")
    start = net.clock.now
    answer = router.import_(request, ctx=CallContext(deadline=start + 0.5))
    assert [offer.offer_id for offer in answer] == ["m:CarRentalService:1"]
    assert net.clock.now - start < 0.5
    assert replica.role == "primary"
    assert router.handle("s0").status()["replicas"] == 0
    assert [o.offer_id for o in router.import_(request)] == ["m:CarRentalService:1"]
    assert (
        router.export("CarRentalService", ref("b"), {"ChargePerDay": 12.0})
        == "m:CarRentalService:2"
    )


def test_a_router_without_a_clock_hands_each_shard_the_whole_deadline(wired):
    """Slices are cut on the router's clock.  A router without one cannot
    cut them, so each shard gets the caller's context whole: a deadline
    late in virtual time is not mistaken for a spent one."""
    net, router, primary, replica = wired
    router.export("CarRentalService", ref("a"), {"ChargePerDay": 10.0})
    handle = router.handle("s0")
    clockless = ShardRouter(router_id="unclocked", offer_prefix="m")
    clockless.types.add(rental_type())
    clockless.add_shard("s0", handle.primary, handle.replicas)
    net.clock.run_for(100.0)
    ctx = CallContext(deadline=net.clock.now + 1.0)
    answer = clockless.import_(ImportRequest("CarRentalService"), ctx=ctx)
    assert [offer.offer_id for offer in answer] == ["m:CarRentalService:1"]
    assert (primary.role, replica.role) == ("primary", "replica")


def test_a_shard_with_no_backend_answering_is_unavailable(wired):
    """Both nodes down: the call fails over once and raises
    ``ShardUnavailable``; with both breakers open the next call is refused
    without traffic until a probe is due."""
    net, router, primary, replica = wired
    net.faults.crash("node-a")
    net.faults.crash("node-b")
    with pytest.raises(ShardUnavailable) as outage:
        router.export("CarRentalService", ref("a"), {"ChargePerDay": 10.0})
    assert isinstance(outage.value.__cause__, RpcTimeout)
    sent = router.handle("s0").primary._client.calls_sent
    with pytest.raises(ShardUnavailable) as refused:
        router.import_(ImportRequest("CarRentalService"))
    assert isinstance(refused.value.__cause__, CircuitOpen)
    assert router.handle("s0").primary._client.calls_sent == sent
    assert router.handle("s0").status() == {
        "shard_id": "s0", "breaker": "open", "replicas": 1,
    }


def test_a_rejoining_remote_shard_that_knows_the_types_keeps_its_primary(wired):
    """Seeding types into a backend that already holds them is refused with
    ``DuplicateServiceType`` — an answer, not an outage."""
    net, router, primary, replica = wired
    client = router.handle("s0").primary._client
    nodes = []
    for host, role in (("node-c", "primary"), ("node-d", "replica")):
        shard = TraderShard(host, offer_prefix="m", role=role)
        if role == "primary":
            shard.add_type(rental_type())
        server = RpcServer(SimTransport(net, host))
        TraderService(server, trader=shard)
        ShardReplicationService(server, shard)
        nodes.append((shard, RemoteShardBackend(client, server.address)))
    (joining, joining_backend), (spare, spare_backend) = nodes
    router.add_shard("s1", joining_backend, [spare_backend])
    handle = router.handle("s1")
    assert handle.primary is joining_backend
    assert handle.status() == {"shard_id": "s1", "breaker": "closed", "replicas": 1}
    assert (joining.role, spare.role) == ("primary", "replica")
    assert joining.map_version == router.map.version


def test_shard_map_pushes_reach_remote_nodes(wired):
    net, router, primary, replica = wired
    assert primary.map_version == router.map.version
    router.add_shard("s1", TraderShard("wired/s1", offer_prefix="m"))
    assert primary.map_version == router.map.version == 2
