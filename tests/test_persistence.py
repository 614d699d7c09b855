"""Tests for snapshot persistence of traders and browsers."""

import pytest

from repro.core import BrowserService
from repro.core.browser import BrowserClient
from repro.errors import ConfigurationError
from repro.persistence import (
    browser_snapshot,
    load_snapshot,
    restore_browser,
    restore_trader,
    save_snapshot,
    trader_snapshot,
)
from repro.sidl.types import DOUBLE, InterfaceType, LONG, OperationType, OCTETS
from repro.trader.service_types import ServiceType
from repro.trader.trader import ImportRequest, LocalTrader
from repro.naming.refs import ServiceRef
from repro.net.clock import SimClock
from repro.net.endpoints import Address


def rental_type(name="CarRentalService", super_types=()):
    return ServiceType(
        name,
        InterfaceType("I", [OperationType("SelectCar", [], LONG)]),
        [("ChargePerDay", DOUBLE)],
        super_types=super_types,
    )


@pytest.fixture
def populated_trader():
    trader = LocalTrader("t-persist")
    trader.add_type(rental_type(), now=3.0)
    trader.add_type(rental_type("Luxury", super_types=["CarRentalService"]), now=5.0)
    trader.types.mask("Luxury")
    trader.export(
        "CarRentalService",
        ServiceRef.create("r1", Address("h", 1), 4711),
        {"ChargePerDay": 80.0},
        now=7.0,
        lease_seconds=100.0,
    )
    return trader


def test_trader_roundtrip(populated_trader):
    snapshot = trader_snapshot(populated_trader)
    restored = restore_trader(snapshot)
    assert restored.trader_id == "t-persist"
    assert restored.types.names() == ["CarRentalService", "Luxury"]
    assert restored.types.registered_at("CarRentalService") == 3.0
    assert restored.types.masked("Luxury")
    offers = restored.import_(ImportRequest("CarRentalService"))
    assert len(offers) == 1
    assert offers[0].expires_at == 107.0
    # new exports continue with fresh ids, no collision
    restored.export(
        "CarRentalService",
        ServiceRef.create("r2", Address("h", 2), 4711),
        {"ChargePerDay": 60.0},
    )
    assert len(restored.offers) == 2


def test_trader_snapshot_restores_super_types_out_of_order(populated_trader):
    snapshot = trader_snapshot(populated_trader)
    snapshot["types"].reverse()  # subtype now listed before its super type
    restored = restore_trader(snapshot)
    assert restored.types.is_subtype("Luxury", "CarRentalService")


def test_trader_snapshot_file_roundtrip(populated_trader, tmp_path):
    path = tmp_path / "trader.json"
    save_snapshot(trader_snapshot(populated_trader), path)
    restored = restore_trader(load_snapshot(path))
    assert len(restored.offers) == 1


def test_bytes_in_properties_survive_json(tmp_path):
    trader = LocalTrader("b")
    blob_type = ServiceType(
        "Blobby",
        InterfaceType("I", [OperationType("Get", [], LONG)]),
        [("Thumbnail", OCTETS)],
    )
    trader.add_type(blob_type)
    trader.export(
        "Blobby",
        ServiceRef.create("s", Address("h", 1), 1),
        {"Thumbnail": b"\x00\xffPNG"},
    )
    path = tmp_path / "t.json"
    save_snapshot(trader_snapshot(trader), path)
    restored = restore_trader(load_snapshot(path))
    offer = restored.import_(ImportRequest("Blobby"))[0]
    assert offer.properties["Thumbnail"] == b"\x00\xffPNG"


def test_kind_mismatch_rejected(populated_trader):
    snapshot = trader_snapshot(populated_trader)
    with pytest.raises(ConfigurationError):
        restore_browser(None, snapshot)


def test_version_checked(populated_trader):
    snapshot = trader_snapshot(populated_trader)
    snapshot["version"] = 99
    with pytest.raises(ConfigurationError):
        restore_trader(snapshot)


def test_load_rejects_non_snapshot(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text('{"some": "json"}')
    with pytest.raises(ConfigurationError):
        load_snapshot(path)


def test_browser_roundtrip(make_server, make_client, rental, tmp_path):
    browser = BrowserService(make_server("b1"))
    browser.register_local(rental)
    path = tmp_path / "browser.json"
    save_snapshot(browser_snapshot(browser), path)

    # a fresh browser on a new host resumes the registrations
    replacement = BrowserService(make_server("b2"))
    assert restore_browser(replacement, load_snapshot(path)) == 1
    client = BrowserClient(make_client(), replacement.ref)
    entries = client.list()
    assert [entry.name for entry in entries] == ["CarRentalService"]
    sid = client.fetch_sid(rental.ref.service_id)
    assert sid == rental.sid


# -- shard snapshots ----------------------------------------------------------


@pytest.fixture
def populated_shard():
    from repro.trader.sharding import TraderShard

    shard = TraderShard("shard-0", offer_prefix="m")
    shard.add_type(rental_type(), now=1.0)
    shard.export(
        "CarRentalService",
        ServiceRef.create("fresh", Address("h", 1), 4711),
        {"ChargePerDay": 10.0},
        now=0.0,
    )
    shard.export(
        "CarRentalService",
        ServiceRef.create("leased", Address("h", 2), 4711),
        {"ChargePerDay": 20.0},
        now=0.0,
        lease_seconds=5.0,
    )
    shard.set_map({"version": 4, "shard_ids": ["shard-0"]})
    return shard


def test_shard_roundtrip_preserves_replication_coordinates(
    populated_shard, tmp_path
):
    from repro.persistence import restore_shard, shard_snapshot

    path = tmp_path / "shard.json"
    save_snapshot(shard_snapshot(populated_shard), path)
    restored = restore_shard(load_snapshot(path))
    assert restored.shard_id == "shard-0"
    assert restored.role == "primary"
    assert restored.applied_seq == populated_shard.applied_seq
    assert restored.map_version == 4
    assert restored.trader.offers.prefix == "m"
    assert sorted(o.offer_id for o in restored.list_offers()) == sorted(
        o.offer_id for o in populated_shard.list_offers()
    )
    # The restored log starts empty *at* the snapshot seq: replicas older
    # than the snapshot must resync from a snapshot, not a delta batch.
    assert restored.log.base_seq == populated_shard.applied_seq
    assert restored.deltas_since(populated_shard.applied_seq) == []


def test_shard_restore_expires_leases_lapsed_while_down(populated_shard):
    from repro.persistence import restore_shard, shard_snapshot

    snapshot = shard_snapshot(populated_shard)
    # Restarted long after ``leased``'s lease (5s) lapsed:
    restored = restore_shard(snapshot, now=60.0)
    assert [o.service_ref().name for o in restored.list_offers()] == ["fresh"]
    # Without a restart clock the operator keeps both and sweeps later.
    kept = restore_shard(snapshot)
    assert len(kept.list_offers()) == 2


def test_restored_shard_never_reminds_a_seen_offer_id(populated_shard):
    from repro.persistence import restore_shard, shard_snapshot

    restored = restore_shard(shard_snapshot(populated_shard), now=60.0)
    # ``m:CarRentalService:2`` lapsed and is gone, but its id stays burnt.
    offer_id = restored.export(
        "CarRentalService",
        ServiceRef.create("later", Address("h", 3), 4711),
        {"ChargePerDay": 30.0},
        now=61.0,
    )
    assert offer_id == "m:CarRentalService:3"


def test_shard_snapshot_kind_is_checked(populated_shard):
    from repro.persistence import restore_shard, shard_snapshot

    snapshot = shard_snapshot(populated_shard)
    with pytest.raises(ConfigurationError):
        restore_trader(snapshot)
    with pytest.raises(ConfigurationError):
        restore_shard(dict(snapshot, kind="trader"))


# -- mid-migration shard snapshots --------------------------------------------


def _migration_world(tmp_path):
    """A two-shard router mid-stream: returns the pieces a crash-restart
    test needs — router, coordinator checkpoints dir, and the moving type."""
    from repro.trader.sharding import (
        FileCheckpoints,
        MigrationCoordinator,
        build_router,
    )

    clock = SimClock()
    router = build_router(
        ("s0", "s1"), clock=lambda: clock.now, router_id="p", offer_prefix="p"
    )
    router.add_type(rental_type())
    for index in range(4):
        router.export(
            "CarRentalService",
            ServiceRef.create(f"r{index}", Address("h", index), 1),
            {"ChargePerDay": 10.0 + index},
            now=0.0,
            lease_seconds=600.0,
        )
    checkpoints = FileCheckpoints(tmp_path / "checkpoints")
    coordinator = MigrationCoordinator(router, checkpoints=checkpoints, chunk_size=1)
    donor = router.effective_owner("CarRentalService")
    target = "s1" if donor == "s0" else "s0"
    return router, coordinator, checkpoints, donor, target


def _final_store(router):
    return sorted(o.to_wire()["offer_id"] for o in router.offers.all())


def _crash_restart(router, checkpoints, tmp_path, migration_id):
    """Snapshot both shards to disk, restore them into the router as if
    both processes restarted, and resume with a brand-new coordinator."""
    from repro.persistence import restore_shard, shard_snapshot
    from repro.trader.sharding import MigrationCoordinator

    for shard_id in router.map.shard_ids:
        handle = router.handle(shard_id)
        path = tmp_path / f"{shard_id}.json"
        save_snapshot(shard_snapshot(handle.primary), path)
        handle.primary = restore_shard(load_snapshot(path))
        handle.replicas = []
    coordinator = MigrationCoordinator(router, checkpoints=checkpoints, chunk_size=1)
    return coordinator, coordinator.resume(migration_id)


def test_shard_snapshot_roundtrips_at_every_migration_phase(tmp_path):
    """Crash-restart both shards at every step of a live migration; the
    resumed run must land on exactly the uninterrupted run's final store."""

    control, coordinator, _, donor, target = _migration_world(tmp_path / "control")
    coordinator.run(coordinator.begin("CarRentalService", target))
    expected = _final_store(control)
    # Migrating *against* rendezvous leaves a standing pin — by design.
    expected_pins = control.status()["pins"]
    steps = 1
    while True:
        base = tmp_path / f"crash{steps}"
        router, coordinator, checkpoints, _, target = _migration_world(base)
        state = coordinator.begin("CarRentalService", target)
        for _ in range(steps):
            if state.finished:
                break
            coordinator.step(state)
        interrupted = not state.finished
        coordinator, state = _crash_restart(
            router, checkpoints, base, state.migration_id
        )
        coordinator.run(state)
        assert _final_store(router) == expected, f"diverged after crash at {steps}"
        assert router.status()["migrations"] == {}
        assert router.status()["pins"] == expected_pins
        if not interrupted:
            break
        steps += 1
    assert steps >= 5, "migration finished suspiciously fast"


def test_restored_recipient_mid_copy_keeps_shield_and_mint_floor(tmp_path):
    """A recipient snapshotted mid-COPY restarts still shielded (its
    mid-copy offers survive a restart-time sweep) and still unable to
    re-mint donor ids."""
    from repro.persistence import restore_shard, shard_snapshot

    router, coordinator, checkpoints, donor, target = _migration_world(tmp_path)
    router.withdraw("p:CarRentalService:4")
    state = coordinator.begin("CarRentalService", target)
    coordinator.step(state)  # PREPARE
    coordinator.step(state)  # first COPY chunk
    assert state.offers_copied >= 1
    snapshot = shard_snapshot(router.handle(target).primary)
    restored = restore_shard(snapshot, now=10_000.0)
    copied = [
        o for o in restored.list_offers() if o.service_type == "CarRentalService"
    ]
    assert len(copied) == state.offers_copied, "restart-time sweep ate the copy"
    assert restored.trader.offers.minted("CarRentalService") == 4


# -- torn checkpoint writes ---------------------------------------------------


def test_crash_mid_checkpoint_write_resumes_from_the_previous_phase(tmp_path, monkeypatch):
    """Checkpoints are replaced atomically: a coordinator dying inside a
    save leaves the previous checkpoint on disk (plus a stray temp file),
    so a restart resumes one step back and still converges."""
    from repro.trader.sharding import FileCheckpoints, MigrationCoordinator

    control, coordinator, _, _, target = _migration_world(tmp_path / "control")
    coordinator.run(coordinator.begin("CarRentalService", target))
    expected = _final_store(control)

    router, coordinator, checkpoints, _, target = _migration_world(tmp_path / "torn")
    state = coordinator.begin("CarRentalService", target)
    coordinator.step(state)  # PREPARE
    coordinator.step(state)  # first COPY chunk
    on_disk = checkpoints.load(state.migration_id).to_wire()

    def power_cut(*_args):
        raise OSError("power cut between the temp file's fsync and its rename")

    monkeypatch.setattr("os.replace", power_cut)
    with pytest.raises(OSError, match="power cut"):
        coordinator.step(state)  # the shards moved on; the checkpoint did not
    monkeypatch.undo()

    revived = MigrationCoordinator(
        router, checkpoints=FileCheckpoints(tmp_path / "torn" / "checkpoints"), chunk_size=1
    )
    resumed = revived.resume(state.migration_id)
    assert resumed.to_wire() == on_disk
    revived.run(resumed)
    assert resumed.phase == "DONE"
    assert _final_store(router) == expected


def test_unreadable_checkpoint_costs_only_its_own_migration(tmp_path):
    """A torn ``*.migration.json`` (written by a pre-atomic build, or hit
    by a bad disk) used to kill ``FileCheckpoints.__init__`` — and with it
    every other migration checkpointed in the directory."""
    from repro.telemetry.metrics import METRICS
    from repro.trader.sharding import FileCheckpoints
    from repro.trader.sharding.migration import MigrationState

    checkpoints = FileCheckpoints(tmp_path)
    checkpoints.save(MigrationState("mig-a", "A", "s0", "s1", phase="COPY", cursor=3))
    checkpoints.save(MigrationState("mig-b", "B", "s0", "s1", phase="CATCH_UP"))
    torn = tmp_path / "mig-b.migration.json"
    torn.write_text(torn.read_text()[:20])
    before = METRICS.counter("sharding.migration.checkpoints_unreadable")
    revived = FileCheckpoints(tmp_path)
    assert METRICS.counter("sharding.migration.checkpoints_unreadable") - before == 1
    assert revived.open_migrations() == ["mig-a"]
    assert revived.load("mig-a").cursor == 3
    assert revived.load("mig-b") is None
