"""Live resharding: the migration protocol, phase by phase.

* **State machine** — PREPARE → COPY → CATCH_UP → FLIP → DRAIN → DONE,
  one checkpoint per step; the final store is the pre-migration store,
  just on the other shard.
* **Dual-ownership window** — writes and imports issued at *every* step
  of a migration succeed with unchanged answers; a write refused by a
  sealed donor is forwarded, never surfaced.
* **Crash safety** — a fresh coordinator resuming from the shared
  checkpoint store at any step converges to the same final store; a
  donor-primary crash mid-migration fails over to a replica that
  inherited the migration record from the delta log.
* **Rollback** — abort short of FLIP restores the pre-migration world
  exactly; abort past FLIP is refused (point of no return).
* **Topology guards** — ``add_shard`` reports which types moved and pins
  them to their old owners; ``remove_shard`` refuses an undrained shard.
* **Oracle property** — a router subjected to a random mutation script
  with migration steps interleaved anywhere ends bit-identical (offer
  ids, properties, leases, import rankings) to a never-sharded
  ``LocalTrader`` fed the same script.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CommunicationError
from repro.naming.refs import ServiceRef
from repro.net.endpoints import Address
from repro.sidl.types import DOUBLE, InterfaceType, LONG, OperationType
from repro.telemetry.log import use_log_sink
from repro.telemetry.metrics import METRICS
from repro.trader.service_types import ServiceType
from repro.trader.sharding import (
    FileCheckpoints,
    MemoryCheckpoints,
    MigrationCoordinator,
    MigrationError,
    MigrationSealed,
    ShardNotDrained,
    TraderShard,
    build_local_router,
)
from repro.trader.trader import ImportRequest, LocalTrader

TYPE_NAMES = ("Alpha", "Beta", "Gamma", "Delta")


def service_type(name):
    return ServiceType(
        name,
        InterfaceType("I", [OperationType("Use", [], LONG)]),
        [("ChargePerDay", DOUBLE)],
    )


def make_router(offers_per_type=4, shard_ids=("s0", "s1"), replicas=1):
    router = build_local_router(
        list(shard_ids), replicas=replicas, router_id="demo"
    )
    for name in TYPE_NAMES:
        router.add_type(service_type(name))
    for name in TYPE_NAMES[:3]:
        for index in range(offers_per_type):
            router.export(
                name,
                ServiceRef.create(f"{name}-{index}", Address("h", 1000 + index), 1),
                {"ChargePerDay": 10.0 + index},
                now=0.0,
                lease_seconds=600.0,
            )
    return router


def store_of(trader_like):
    return sorted(
        (offer.to_wire() for offer in trader_like.offers.all()),
        key=lambda wire: wire["offer_id"],
    )


def import_ids(router, name):
    return [
        offer.offer_id
        for offer in router.import_(ImportRequest(name, "", "min ChargePerDay"))
    ]


def moving_type(router, moved=None):
    """A type with offers to migrate onto ``s2``.  Preferring one whose
    rendezvous placement actually moved keeps the post-migration pin
    empty; any donor-side type works for the protocol itself."""
    candidates = TYPE_NAMES[:3] if moved is None else sorted(moved)
    return next(
        name
        for name in candidates
        if name in TYPE_NAMES[:3] and router.effective_owner(name) != "s2"
    )


class CrashedBackend:
    def __getattr__(self, name):
        def refuse(*args, **kwargs):
            raise CommunicationError("shard primary crashed")

        return refuse


# -- state machine -----------------------------------------------------------


def test_happy_path_walks_the_phases_and_loses_nothing():
    router = make_router()
    before = store_of(router)
    moved = router.add_shard("s2", TraderShard("demo/s2", offer_prefix=router.offer_prefix))
    assert isinstance(moved, set)
    name = moving_type(router, moved)
    donor = router.effective_owner(name)
    coordinator = MigrationCoordinator(router, chunk_size=2)
    state = coordinator.begin(name, "s2")
    phases = []
    while not state.finished:
        coordinator.step(state)
        phases.append(state.phase)
    assert phases[0] == "COPY" and phases[-1] == "DONE"
    assert "FLIP" in phases and "DRAIN" in phases
    assert store_of(router) == before
    assert router.effective_owner(name) == "s2"
    donor_trader = router.handle(donor).primary
    assert not [o for o in donor_trader.list_offers() if o.service_type == name]
    assert name not in router.status()["pins"]
    assert name not in router.status()["migrations"]


def test_migration_is_invisible_to_live_traffic():
    router = make_router()
    router.add_shard("s2", TraderShard("demo/s2", offer_prefix=router.offer_prefix))
    name = moving_type(router)
    baseline = import_ids(router, name)
    coordinator = MigrationCoordinator(router, chunk_size=1)
    state = coordinator.begin(name, "s2")
    live_ids = []
    while not state.finished:
        coordinator.step(state)
        # A write and a read at every step — none may fail, none may
        # drop a pre-existing offer, none may show a duplicate.
        seen = import_ids(router, name)
        assert set(baseline) <= set(seen)
        assert len(set(seen)) == len(seen)
        if not state.finished:
            live_ids.append(
                router.export(
                    name,
                    ServiceRef.create("live", Address("h", 9), 1),
                    {"ChargePerDay": 1.0},
                    now=0.0,
                    lease_seconds=600.0,
                )
            )
    final = import_ids(router, name)
    assert set(live_ids) <= set(final)
    assert len(final) == len(baseline) + len(live_ids)
    assert len(set(final)) == len(final), "dual-read leaked a duplicate"


def test_begin_guards():
    router = make_router()
    coordinator = MigrationCoordinator(router)
    name = TYPE_NAMES[0]
    with pytest.raises(MigrationError):
        coordinator.begin(name, "nope")
    with pytest.raises(MigrationError):
        coordinator.begin("NoSuchType", "s1")
    with pytest.raises(MigrationError):
        coordinator.begin(name, router.effective_owner(name))
    other = "s1" if router.effective_owner(name) == "s0" else "s0"
    state = coordinator.begin(name, other)
    with pytest.raises(MigrationError):
        coordinator.begin(name, other)
    coordinator.run(state)
    assert state.phase == "DONE"


def _wire(op, **data):
    return {"op": op, "data": data}


def test_replica_and_recipient_fold_the_same_donor_deltas_to_the_same_store():
    """One donor history, two consumers of it: a replica (``apply_delta``,
    everything from seq 0) and a migration recipient (``migrate_absorb``:
    the COPY chunk, then the tail).  Both go through the one interpreter,
    so they end with the same store — and the recipient's own log holds
    exactly one delta per change it made, none for what did not apply."""
    prefix = "demo"
    donor = TraderShard("demo/donor", offer_prefix=prefix)
    replica = TraderShard("demo/replica", offer_prefix=prefix, role="replica")
    recipient = TraderShard("demo/recipient", offer_prefix=prefix)
    follower = TraderShard("demo/follower", offer_prefix=prefix, role="replica")
    recipient.attach_replica("follower", follower.apply_delta)
    for shard in (donor, recipient):
        shard.add_type(service_type("Alpha"))

    def export(index, lease):
        return donor.export(
            "Alpha",
            ServiceRef.create(f"a{index}", Address("h", index), 1),
            {"ChargePerDay": float(index)},
            now=0.0,
            lease_seconds=lease,
        )

    lapsing, modified = export(1, 10.0), export(2, 600.0)
    migration = {"migration_id": "m1", "service_type": "Alpha", "source": "d", "target": "r"}
    opened = donor.migrate_begin(migration, "out")
    assert set(opened) == {"migration_id", "snapshot_seq", "count", "mint_floor"}
    recipient.migrate_begin(dict(migration, extra={"mint_floor": opened["mint_floor"]}), "in")
    chunk = donor.migrate_chunk_out("m1", 0, 10)["offers"]
    renewed, withdrawn = export(3, 600.0), export(4, 600.0)
    donor.modify(modified, {"ChargePerDay": 99.0})
    donor.renew(renewed, now=7.0)
    donor.withdraw(withdrawn)
    assert donor.expire_offers(50.0) == 1  # evicts ``lapsing``

    history = donor.deltas_since(0)
    for delta in history + history:  # every delta, then a duplicate of each
        assert replica.apply_delta(delta) is True

    # (what the coordinator sends, absorbed count, op logged the first
    #  time, op logged when the very same delta is sent again)
    tail = donor.deltas_since(opened["snapshot_seq"], "Alpha")
    assert [d["op"] for d in tail] == [
        "export", "export", "modify", "renew", "withdraw", "expire"
    ]
    table = [
        (_wire("migrate_in", offers=chunk), 2, "migrate_in", None),  # COPY chunk: idempotent
        (tail[0], 1, "migrate_in", None),
        (tail[1], 1, "migrate_in", None),
        (tail[2], 0, "modify", "modify"),  # present: same state, logged again
        (tail[3], 0, "renew", "renew"),
        (tail[4], 0, "withdraw", None),
        (tail[5], 0, "expire", None),  # rescoped to Alpha; evicted ``lapsing``
        (_wire("withdraw", offer_id="demo:Alpha:99"), 0, None, None),  # absent id
        (_wire("modify", offer_id="demo:Alpha:99", properties={}), 0, None, None),
        (_wire("renew", offer_id="demo:Alpha:99", expires_at=9.0), 0, None, None),
        (_wire("add_type", type={}), 0, None, None),  # not the migration's business
    ]
    expected_log = ["add_type", "migrate_begin"]
    for sent, fresh, first, again in table:
        assert recipient.migrate_absorb("m1", [sent]) == fresh, sent["op"]
        assert recipient.migrate_absorb("m1", [sent]) == 0, sent["op"]
        expected_log += [op for op in (first, again) if op]
    log = recipient.log.since(0)
    assert [delta.op for delta in log] == expected_log
    assert [delta.seq for delta in log] == list(range(1, len(expected_log) + 1))
    scoped = [delta.data for delta in log if delta.op == "expire"]
    assert scoped == [{"now": 50.0, "service_type": "Alpha"}]

    assert store_of(recipient) == store_of(replica) == store_of(donor)
    assert [w["offer_id"] for w in store_of(recipient)] == [modified, renewed]
    assert store_of(follower) == store_of(recipient)
    assert follower.applied_seq == recipient.applied_seq


def test_recipient_cannot_remint_a_migrated_id():
    router = make_router()
    router.add_shard("s2", TraderShard("demo/s2", offer_prefix=router.offer_prefix))
    name = moving_type(router)
    coordinator = MigrationCoordinator(router, chunk_size=100)
    coordinator.run(coordinator.begin(name, "s2"))
    existing = set(import_ids(router, name))
    fresh = router.export(
        name,
        ServiceRef.create("after", Address("h", 2), 1),
        {"ChargePerDay": 2.0},
        now=0.0,
        lease_seconds=600.0,
    )
    assert fresh not in existing


# -- one sweep, one gauge ------------------------------------------------------


def test_every_sweep_and_every_applied_delta_keeps_the_books():
    """The shielded sweep, the scoped sweep that pierces the shield, a
    COPY chunk and a replica's ``apply_delta`` all go through the one
    eviction loop / the one interpreter, so the live-offer gauge, the
    ``swept`` counter and the ``trader.lease_expired`` events stay true
    whichever route changed the store."""
    recipient = TraderShard("books/recipient", offer_prefix="books")
    replica = TraderShard("books/replica", offer_prefix="books", role="replica")
    recipient.attach_replica("replica", replica.apply_delta)
    for name in ("Alpha", "Beta"):
        recipient.add_type(service_type(name))

    def live(shard):
        return METRICS.gauge("trader.offers.live", (shard.shard_id,))

    def swept(shard):
        return METRICS.counter("trader.offers.expired", (shard.shard_id, "swept"))

    for index, lease in enumerate((5.0, 5.0, 600.0)):
        recipient.export(
            "Beta", ServiceRef.create(f"b{index}", Address("h", index), 1),
            {"ChargePerDay": 1.0}, now=0.0, lease_seconds=lease,
        )
    recipient.migrate_begin(
        {"migration_id": "m", "service_type": "Alpha", "source": "d", "target": "r"}, "in"
    )
    chunk = [
        {
            "offer_id": f"books:Alpha:{n}", "service_type": "Alpha",
            "ref": ServiceRef.create(f"a{n}", Address("h", n), 1).to_wire(),
            "properties": {"ChargePerDay": 2.0}, "exported_at": 0.0,
            "expires_at": 5.0, "lease_seconds": 5.0,
        }
        for n in (1, 2)
    ]
    assert recipient.migrate_absorb("m", [_wire("migrate_in", offers=chunk)]) == 2
    assert live(recipient) == len(recipient.offers) == 5
    assert live(replica) == len(replica.offers) == 5

    # The shard's own sweep spares the absorbing type …
    events = []
    before = swept(recipient)
    with use_log_sink(events.append):
        assert recipient.expire_offers(50.0) == 2
    assert live(recipient) == len(recipient.offers) == 3
    assert live(replica) == len(replica.offers) == 3
    assert swept(recipient) - before == 2
    for shard in (recipient, replica):  # one event per evicted offer, each
        assert [
            (e["offer"], e["mode"])
            for e in events
            if e["event"] == "trader.lease_expired" and e["trader"] == shard.shard_id
        ] == [("books:Beta:1", "swept"), ("books:Beta:2", "swept")]

    # … and FLIP's scoped sweep pierces the shield, through the same loop.
    before = swept(recipient)
    recipient.migrate_absorb("m", [_wire("expire", now=50.0)])
    assert swept(recipient) - before == 2
    assert live(recipient) == len(recipient.offers) == 1
    assert live(replica) == len(replica.offers) == 1


# -- crash safety ------------------------------------------------------------


@pytest.mark.parametrize("crash_after", range(9))
def test_fresh_coordinator_resumes_from_any_step(crash_after):
    router = make_router()
    router.add_shard("s2", TraderShard("demo/s2", offer_prefix=router.offer_prefix))
    name = moving_type(router)
    expected = [w for w in store_of(router) if w["service_type"] == name]
    checkpoints = MemoryCheckpoints()
    coordinator = MigrationCoordinator(router, checkpoints=checkpoints, chunk_size=1)
    state = coordinator.begin(name, "s2")
    for _ in range(crash_after):
        if state.finished:
            break
        coordinator.step(state)
    # The first coordinator is gone; a new one resumes from checkpoints.
    revived = MigrationCoordinator(router, checkpoints=checkpoints, chunk_size=1)
    assert state.migration_id in (checkpoints.open_migrations() or [state.migration_id])
    resumed = revived.resume(state.migration_id)
    revived.run(resumed)
    assert resumed.phase == "DONE"
    assert [w for w in store_of(router) if w["service_type"] == name] == expected
    assert router.effective_owner(name) == "s2"


def test_donor_primary_crash_mid_copy_fails_over_and_finishes():
    router = make_router()
    router.add_shard("s2", TraderShard("demo/s2", offer_prefix=router.offer_prefix))
    name = moving_type(router)
    expected = [w for w in store_of(router) if w["service_type"] == name]
    coordinator = MigrationCoordinator(router, chunk_size=1)
    state = coordinator.begin(name, "s2")
    coordinator.step(state)  # PREPARE
    coordinator.step(state)  # one COPY chunk
    router.handle(state.source).primary = CrashedBackend()
    coordinator.run(state)
    assert state.phase == "DONE"
    # The promoted replica inherited the migration record from the delta
    # log, so chunk_out kept serving the begin-time snapshot list.
    assert [w for w in store_of(router) if w["service_type"] == name] == expected


def test_file_checkpoints_survive_a_process_restart(tmp_path):
    router = make_router()
    router.add_shard("s2", TraderShard("demo/s2", offer_prefix=router.offer_prefix))
    name = moving_type(router)
    coordinator = MigrationCoordinator(
        router, checkpoints=FileCheckpoints(tmp_path), chunk_size=1
    )
    state = coordinator.begin(name, "s2")
    coordinator.step(state)
    coordinator.step(state)
    # "Restart": a brand-new store reads the same directory.
    revived = MigrationCoordinator(
        router, checkpoints=FileCheckpoints(tmp_path), chunk_size=1
    )
    resumed = revived.resume(state.migration_id)
    assert resumed.cursor == state.cursor and resumed.phase == state.phase
    revived.run(resumed)
    assert resumed.phase == "DONE"
    assert revived.checkpoints.open_migrations() == []


def test_no_lease_resurrection_across_the_flip():
    router = make_router()
    router.add_shard("s2", TraderShard("demo/s2", offer_prefix=router.offer_prefix))
    name = moving_type(router)
    doomed = router.export(
        name,
        ServiceRef.create("doomed", Address("h", 3), 1),
        {"ChargePerDay": 3.0},
        now=0.0,
        lease_seconds=5.0,
    )
    coordinator = MigrationCoordinator(router, chunk_size=100)
    state = coordinator.begin(name, "s2")
    while state.phase != "FLIP":
        coordinator.step(state)
    # The lease lapses mid-migration; FLIP's cutover sweep runs at now=50.
    coordinator.run(state, now=50.0)
    assert state.phase == "DONE"
    assert doomed not in import_ids(router, name)


# -- rollback ----------------------------------------------------------------


def test_abort_restores_the_pre_migration_world():
    router = make_router()
    router.add_shard("s2", TraderShard("demo/s2", offer_prefix=router.offer_prefix))
    name = moving_type(router)
    before = store_of(router)
    donor = router.effective_owner(name)
    coordinator = MigrationCoordinator(router, chunk_size=1)
    state = coordinator.begin(name, "s2")
    coordinator.step(state)
    coordinator.step(state)  # partial copy on the recipient
    coordinator.abort(state)
    assert state.phase == "ABORTED"
    assert store_of(router) == before
    assert router.effective_owner(name) == donor
    recipient = router.handle("s2").primary
    assert not [o for o in recipient.list_offers() if o.service_type == name]
    # The type is free again: a second attempt completes.
    rerun = coordinator.begin(name, "s2")
    coordinator.run(rerun)
    assert rerun.phase == "DONE"
    assert store_of(router) == before


def test_abort_past_flip_is_refused():
    router = make_router()
    router.add_shard("s2", TraderShard("demo/s2", offer_prefix=router.offer_prefix))
    name = moving_type(router)
    coordinator = MigrationCoordinator(router, chunk_size=100)
    state = coordinator.begin(name, "s2")
    while state.phase != "DRAIN":
        coordinator.step(state)
    with pytest.raises(MigrationError, match="point of no return"):
        coordinator.abort(state)
    coordinator.run(state)
    assert state.phase == "DONE"


# -- forwarding window -------------------------------------------------------


def test_sealed_donor_write_is_forwarded_not_failed():
    router = make_router()
    router.add_shard("s2", TraderShard("demo/s2", offer_prefix=router.offer_prefix))
    name = moving_type(router)
    coordinator = MigrationCoordinator(router, chunk_size=100)
    state = coordinator.begin(name, "s2")
    coordinator.step(state)  # PREPARE
    coordinator.step(state)  # COPY (all)
    # Another front-end flips the donor under this router's feet.
    router.handle(state.source).call("migrate_flip", state.migration_id)
    with pytest.raises(MigrationSealed):
        router.handle(state.source).call(
            "export",
            name,
            ServiceRef.create("direct", Address("h", 4), 1),
            {"ChargePerDay": 4.0},
            0.0,
            600.0,
        )
    # …but through the router the same write lands on the other side.
    forwarded = router.export(
        name,
        ServiceRef.create("late", Address("h", 5), 1),
        {"ChargePerDay": 5.0},
        now=0.0,
        lease_seconds=600.0,
    )
    coordinator.run(state)
    assert forwarded in import_ids(router, name)


# -- topology guards ---------------------------------------------------------


def test_add_shard_reports_moved_types_and_pins_them():
    router = make_router()
    placement_before = {name: router.effective_owner(name) for name in TYPE_NAMES}
    moved = router.add_shard("s2", TraderShard("demo/s2", offer_prefix=router.offer_prefix))
    pins = router.status()["pins"]
    for name in moved:
        assert router.map.owner(name) == "s2"
        assert pins[name] == placement_before[name]
        assert router.effective_owner(name) == placement_before[name]
    for name in set(TYPE_NAMES) - moved:
        assert name not in pins


def test_remove_shard_refuses_an_undrained_shard():
    router = make_router()
    victim = router.effective_owner(TYPE_NAMES[0])
    with pytest.raises(ShardNotDrained, match="still holds"):
        router.remove_shard(victim)
    before = store_of(router)
    coordinator = MigrationCoordinator(router)
    states = coordinator.drain(victim)
    assert states and all(s.phase == "DONE" for s in states)
    router.remove_shard(victim)
    assert victim not in router.map
    assert store_of(router) == before


def test_remove_shard_force_bypasses_the_drain_check():
    router = make_router()
    victim = router.effective_owner(TYPE_NAMES[0])
    router.remove_shard(victim, force=True)
    assert victim not in router.map


def test_expand_workflow_moves_everything_in_one_call():
    router = make_router()
    before = store_of(router)
    coordinator = MigrationCoordinator(router, chunk_size=2)
    moved = router.add_shard(
        "s2", TraderShard("demo/s2", offer_prefix=router.offer_prefix)
    )
    states = [
        coordinator.run(coordinator.begin(name, "s2")) for name in sorted(moved)
    ]
    assert all(s.phase == "DONE" for s in states)
    assert store_of(router) == before
    assert router.status()["pins"] == {}
    for state in states:
        assert router.effective_owner(state.service_type) == "s2"


def test_spliced_and_merged_paths_answer_a_migrated_type_alike():
    """After a completed migration the recipient is the type's only owner,
    so a bounded import relays its answer unranked by the router (the
    splice) while an unbounded one is merged and re-ranked.  They agree
    because the recipient stores the type in mint order: copied offers
    first, then the ids it mints above the donor's burnt counter."""
    router = make_router()
    moved = router.add_shard(
        "s2", TraderShard("demo/s2", offer_prefix=router.offer_prefix)
    )
    name = moving_type(router, moved)
    coordinator = MigrationCoordinator(router, chunk_size=1)
    assert coordinator.run(coordinator.begin(name, "s2")).phase == "DONE"
    for price in (11.0, 10.0, 13.0):  # ties with the copied offers
        router.export(
            name,
            ServiceRef.create("late", Address("h", 9), 1),
            {"ChargePerDay": price},
            now=0.0,
            lease_seconds=600.0,
        )
    first_copied = f"{router.offer_prefix}:{name}:1"
    router.modify(first_copied, {"ChargePerDay": 12.0})
    assert router._covering_shards((name,)) == ["s2"]
    for preference in ("", "first", "min ChargePerDay", "max ChargePerDay"):
        merged = [
            offer.offer_id
            for offer in router.import_(ImportRequest(name, "", preference))
        ]
        assert len(merged) == 7
        for bound in range(1, 8):
            spliced = router.import_(ImportRequest(name, "", preference, bound))
            assert [offer.offer_id for offer in spliced] == merged[:bound], (
                preference, bound,
            )


# -- oracle property ---------------------------------------------------------

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("export"), st.integers(0, 2), st.integers(0, 9)),
        st.tuples(st.just("withdraw"), st.integers(0, 99)),
        st.tuples(st.just("modify"), st.integers(0, 99), st.integers(0, 9)),
        st.tuples(st.just("renew"), st.integers(0, 99)),
        st.tuples(st.just("step"), st.just(0)),
    ),
    min_size=4,
    max_size=40,
)


@settings(max_examples=40, deadline=None)
@given(ops=_OPS, seed_exports=st.integers(1, 4))
def test_migrating_router_equals_never_sharded_oracle(ops, seed_exports):
    """Random mutation churn with migration steps interleaved anywhere
    leaves the router's store — ids, leases, properties, rankings —
    identical to a plain LocalTrader's fed the same script."""
    router = build_local_router(
        ["s0", "s1", "s2"], replicas=0, router_id="m"
    )
    oracle = LocalTrader("m", offer_prefix="m", fanout_workers=1)
    for name in TYPE_NAMES[:3]:
        router.add_type(service_type(name))
        oracle.types.add(service_type(name), 0.0)
    for name in TYPE_NAMES[:3]:
        for index in range(seed_exports):
            # one ref shared by both sides: ServiceRef.create mints a
            # unique service_id per call, which would be a false diff
            ref = ServiceRef.create(f"{name}-{index}", Address("h", 1), 1)
            for subject in (router, oracle):
                subject.export(
                    name,
                    ref,
                    {"ChargePerDay": float(index)},
                    now=0.0,
                    lease_seconds=600.0,
                )
    mover = TYPE_NAMES[0]
    target = next(s for s in ("s0", "s1", "s2") if s != router.effective_owner(mover))
    coordinator = MigrationCoordinator(router, chunk_size=1)
    state = coordinator.begin(mover, target)

    live = [w["offer_id"] for w in store_of(oracle)]
    for op in ops:
        if op[0] == "step":
            if not state.finished:
                coordinator.step(state)
            continue
        if op[0] == "export":
            _, type_index, price = op
            name = TYPE_NAMES[type_index]
            ref = ServiceRef.create("x", Address("h", 1), 1)
            results = [
                subject.export(
                    name,
                    ref,
                    {"ChargePerDay": float(price)},
                    now=0.0,
                    lease_seconds=600.0,
                )
                for subject in (router, oracle)
            ]
            assert results[0] == results[1], "minting diverged"
            live.append(results[0])
            continue
        if not live:
            continue
        offer_id = live[op[1] % len(live)]
        if op[0] == "withdraw":
            router.withdraw(offer_id)
            oracle.withdraw(offer_id)
            live.remove(offer_id)
        elif op[0] == "modify":
            price = float(op[2])
            a = router.modify(offer_id, {"ChargePerDay": price})
            b = oracle.modify(offer_id, {"ChargePerDay": price})
            assert a.to_wire() == b.to_wire()
        elif op[0] == "renew":
            assert router.renew(offer_id, now=1.0) == oracle.renew(offer_id, now=1.0)

    coordinator.run(state)
    assert state.phase == "DONE"
    assert store_of(router) == store_of(oracle)
    for name in TYPE_NAMES[:3]:
        request = ImportRequest(name, "ChargePerDay < 8", "min ChargePerDay")
        assert [o.offer_id for o in router.import_(request)] == [
            o.offer_id for o in oracle.import_(request)
        ]
