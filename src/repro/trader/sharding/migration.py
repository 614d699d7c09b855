"""Live resharding: move a service type between shards with zero loss.

The :class:`MigrationCoordinator` drives one service type from its
current owner (the *donor*) to a new owner (the *recipient*) through a
six-phase state machine::

    PREPARE -> COPY -> CATCH_UP -> FLIP -> DRAIN -> DONE

* **PREPARE** opens the migration on both shards.  The donor snapshots
  the moving type's offer-id list and its log position; both ends log a
  ``migrate_begin`` delta, so a replica promoted mid-migration inherits
  the whole record.
* **COPY** streams the snapshot in idempotent chunks.  Absorbed ids burn
  the recipient's per-type counters, so it can never re-mint one.
* **CATCH_UP** replays the donor's delta-log tail (filtered to the
  moving type) onto the recipient.  Lease times travel as absolutes, so
  a replayed RENEW can never extend a lease past what the donor granted.
* **FLIP** seals the type on the donor — further writes there raise
  :class:`~repro.trader.sharding.replication.MigrationSealed` and the
  router forwards them — replays the now-final tail, then atomically
  flips routing to the recipient and bumps the shard-map version.
* **DRAIN** drops the moved offers from the donor (rehoming, not
  expiry) and closes the dual-ownership window.

Every phase transition (and every COPY chunk) is checkpointed through a
pluggable :class:`MemoryCheckpoints`/:class:`FileCheckpoints` store, and
every shard-side op is idempotent, so a coordinator that crashes at any
step ``resume()``-s cleanly — or ``abort()``-s back to the pre-migration
world while still short of FLIP, the point of no return.

While a migration is open the router runs the **dual-ownership
forwarding window**: writes route to the phase-authoritative side (donor
before FLIP, recipient after) with sealed-donor stragglers forwarded,
and imports double-read both shards, the authoritative copy winning any
duplicate — so no call fails and no stale mediation is observable.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Union

from repro.context import CallContext
from repro.persistence import _write_atomic
from repro.telemetry.metrics import METRICS
from repro.trader.sharding.replication import ShardingError

#: The migration state machine, in order.  ``ABORTED`` is the rollback
#: terminal; a migration is live while its phase sits in PHASES[:-1].
PHASES = ("PREPARE", "COPY", "CATCH_UP", "FLIP", "DRAIN", "DONE")
PHASE_ABORTED = "ABORTED"

#: Gauge value per phase (``sharding.migration.phase``): 1-based index,
#: 0 = aborted, so a dashboard can read progress as a number.
PHASE_INDEX = {name: index + 1 for index, name in enumerate(PHASES)}
PHASE_INDEX[PHASE_ABORTED] = 0

#: Phases during which the router double-reads imports from both owners.
DUAL_READ_PHASES = ("COPY", "CATCH_UP", "FLIP", "DRAIN")

#: Phases a migration can still be rolled back from.  FLIP re-routes the
#: type; past it the only way out is forward.
ABORTABLE_PHASES = ("PREPARE", "COPY", "CATCH_UP")

#: CATCH_UP replay rounds before FLIP's seal bounds the tail instead.
MAX_CATCHUP_ROUNDS = 4


class MigrationError(ShardingError):
    """The migration protocol was driven outside its state machine."""


@dataclass
class MigrationState:
    """One migration's coordinator-side checkpoint record."""

    migration_id: str
    service_type: str
    source: str
    target: str
    phase: str = "PREPARE"
    #: Donor log position at PREPARE: the copy snapshot covers everything
    #: at or below it, the tail replay everything after it.
    snapshot_seq: int = 0
    #: COPY cursor into the donor's begin-time offer-id list.
    cursor: int = 0
    #: Offers in the begin-time snapshot (progress denominator).
    total: int = 0
    #: High-water mark of donor deltas already replayed to the recipient.
    replayed_seq: int = 0
    offers_copied: int = 0
    deltas_replayed: int = 0
    catchup_rounds: int = 0
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def finished(self) -> bool:
        return self.phase in ("DONE", PHASE_ABORTED)

    @property
    def flipped(self) -> bool:
        """Routing authority: False = donor still owns, True = recipient."""
        return self.phase in ("DRAIN", "DONE")

    def to_wire(self) -> Dict[str, Any]:
        return {
            "migration_id": self.migration_id,
            "service_type": self.service_type,
            "source": self.source,
            "target": self.target,
            "phase": self.phase,
            "snapshot_seq": self.snapshot_seq,
            "cursor": self.cursor,
            "total": self.total,
            "replayed_seq": self.replayed_seq,
            "offers_copied": self.offers_copied,
            "deltas_replayed": self.deltas_replayed,
            "catchup_rounds": self.catchup_rounds,
            "extra": dict(self.extra),
        }

    @classmethod
    def from_wire(cls, data: Dict[str, Any]) -> "MigrationState":
        return cls(
            migration_id=data["migration_id"],
            service_type=data["service_type"],
            source=data["source"],
            target=data["target"],
            phase=data.get("phase", "PREPARE"),
            snapshot_seq=data.get("snapshot_seq", 0),
            cursor=data.get("cursor", 0),
            total=data.get("total", 0),
            replayed_seq=data.get("replayed_seq", 0),
            offers_copied=data.get("offers_copied", 0),
            deltas_replayed=data.get("deltas_replayed", 0),
            catchup_rounds=data.get("catchup_rounds", 0),
            extra=dict(data.get("extra", {})),
        )


class MemoryCheckpoints:
    """In-memory checkpoint store.  States round-trip through JSON so a
    resumed coordinator sees exactly what a file store would have
    persisted — no live-object state leaks across a simulated crash."""

    def __init__(self) -> None:
        self._states: Dict[str, str] = {}

    def save(self, state: MigrationState) -> None:
        self._states[state.migration_id] = json.dumps(state.to_wire(), sort_keys=True)

    def load(self, migration_id: str) -> Optional[MigrationState]:
        raw = self._states.get(migration_id)
        return None if raw is None else MigrationState.from_wire(json.loads(raw))

    def discard(self, migration_id: str) -> None:
        self._states.pop(migration_id, None)

    def open_migrations(self) -> List[str]:
        """Ids of migrations checkpointed short of a terminal phase — what
        a restarted coordinator must ``resume()``."""
        return sorted(
            migration_id
            for migration_id, raw in self._states.items()
            if json.loads(raw)["phase"] not in ("DONE", PHASE_ABORTED)
        )


class FileCheckpoints(MemoryCheckpoints):
    """Checkpoints as one JSON file per migration under ``directory`` —
    the durable form a real deployment resumes from after a restart."""

    def __init__(self, directory: Union[str, pathlib.Path]) -> None:
        super().__init__()
        self._directory = pathlib.Path(directory)
        self._directory.mkdir(parents=True, exist_ok=True)
        for path in sorted(self._directory.glob("*.migration.json")):
            try:
                wire = json.loads(path.read_text())
                self._states[wire["migration_id"]] = json.dumps(wire, sort_keys=True)
            except (ValueError, KeyError, TypeError):
                # A torn or foreign file costs that one migration its
                # checkpoint, never the rest of the directory theirs.
                METRICS.inc("sharding.migration.checkpoints_unreadable")

    def _path(self, migration_id: str) -> pathlib.Path:
        return self._directory / f"{migration_id}.migration.json"

    def save(self, state: MigrationState) -> None:
        super().save(state)
        _write_atomic(self._path(state.migration_id), self._states[state.migration_id])

    def discard(self, migration_id: str) -> None:
        super().discard(migration_id)
        path = self._path(migration_id)
        if path.exists():
            path.unlink()


class MigrationCoordinator:
    """Drive migrations over a :class:`~repro.trader.sharding.router.ShardRouter`.

    ``step()`` advances exactly one unit of work (one phase transition,
    or one COPY chunk / CATCH_UP round) and checkpoints — the granularity
    the chaos suite crashes at; ``run()`` steps to completion.  All shard
    calls go through the router's handles, so breaker-driven failover
    applies: a donor primary crash promotes its replica (which inherited
    the migration record from the delta log) and the step retries there.
    """

    def __init__(
        self,
        router: Any,
        checkpoints: Optional[MemoryCheckpoints] = None,
        chunk_size: int = 256,
    ) -> None:
        self.router = router
        self.checkpoints = checkpoints if checkpoints is not None else MemoryCheckpoints()
        self.chunk_size = max(1, chunk_size)
        self._contexts: Dict[str, CallContext] = {}

    # -- lifecycle ---------------------------------------------------------

    def begin(
        self,
        service_type: str,
        target: str,
    ) -> MigrationState:
        """Open a migration of ``service_type`` onto shard ``target``."""
        router = self.router
        if target not in router.map:
            raise MigrationError(f"target shard {target!r} is not in the map")
        if not router.types.has(service_type):
            raise MigrationError(f"unknown service type {service_type!r}")
        source = router.effective_owner(service_type)
        if source == target:
            raise MigrationError(
                f"{service_type!r} already lives on {target!r}; nothing to migrate"
            )
        if router.migration_for(service_type) is not None:
            raise MigrationError(f"{service_type!r} is already migrating")
        migration_id = f"mig-{service_type}-{source}-{target}-v{router.map.version}"
        state = MigrationState(migration_id, service_type, source, target)
        router.open_migration(state)
        self._checkpoint(state)
        return state

    def step(self, state: MigrationState, now: Optional[float] = None) -> MigrationState:
        """Advance one unit of work; returns the (mutated) state."""
        if state.finished:
            return state
        now = self._now(now)
        phase = state.phase
        with self._ctx(state).span("sharding", f"migrate:{phase}:{state.service_type}",
                                   lambda: now):
            if phase == "PREPARE":
                self._prepare(state)
            elif phase == "COPY":
                self._copy_chunk(state)
            elif phase == "CATCH_UP":
                self._catch_up(state)
            elif phase == "FLIP":
                self._flip(state, now)
            elif phase == "DRAIN":
                self._drain(state)
            else:  # pragma: no cover - PHASES is closed
                raise MigrationError(f"unknown phase {phase!r}")
        self._checkpoint(state)
        if state.finished:
            self._finish_trace(state)
        return state

    def run(self, state: MigrationState, now: Optional[float] = None) -> MigrationState:
        """Step the migration to DONE (bounded: it cannot loop forever)."""
        for _ in range(self.max_steps(state)):
            if state.finished:
                return state
            self.step(state, now)
        if not state.finished:  # pragma: no cover - defensive bound
            raise MigrationError(f"{state.migration_id}: did not converge")
        return state

    def resume(self, migration_id: str) -> MigrationState:
        """Reload a checkpointed migration and re-establish the router's
        window/pins for it — after this, ``run()`` idempotently redoes
        the interrupted step and carries on."""
        state = self.checkpoints.load(migration_id)
        if state is None:
            raise MigrationError(f"no checkpoint for migration {migration_id!r}")
        if state.phase == PHASE_ABORTED:
            return state
        if not state.finished:
            self.router.open_migration(state)
        if state.flipped:
            # The routing flip may predate a router restart: reapply it.
            self.router.flip_type(state)
        if state.phase == "DONE":
            self.router.close_migration(state)
        return state

    def abort(self, state: MigrationState) -> MigrationState:
        """Roll back a migration still short of FLIP: the donor keeps the
        type (unsealed), the recipient drops every copied offer."""
        if state.phase not in ABORTABLE_PHASES:
            raise MigrationError(
                f"{state.migration_id}: cannot abort in {state.phase} — "
                "FLIP is the point of no return"
            )
        router = self.router
        # Both calls are no-ops on a shard that never saw migrate_begin.
        router.handle(state.source).call("migrate_abort", state.migration_id)
        router.handle(state.target).call("migrate_abort", state.migration_id)
        router.close_migration(state)
        state.phase = PHASE_ABORTED
        self._checkpoint(state)
        self._finish_trace(state)
        return state

    def max_steps(self, state: MigrationState) -> int:
        """A safe upper bound on remaining ``step()`` calls."""
        chunks = (max(state.total, len(PHASES)) // self.chunk_size) + 2
        return chunks + MAX_CATCHUP_ROUNDS + len(PHASES) + 4

    # -- the phases --------------------------------------------------------

    def _prepare(self, state: MigrationState) -> None:
        router = self.router
        opened = router.handle(state.source).call(
            "migrate_begin", state.to_wire(), "out"
        )
        state.snapshot_seq = opened["snapshot_seq"]
        state.total = opened["count"]
        state.replayed_seq = max(state.replayed_seq, state.snapshot_seq)
        # The donor's mint counter rides state.extra into the recipient's
        # begin: with it burned there, the recipient can never re-mint an
        # id the donor spent on an offer that died before the copy.
        state.extra["mint_floor"] = opened.get("mint_floor", 0)
        router.handle(state.target).call("migrate_begin", state.to_wire(), "in")
        state.phase = "COPY"

    def _copy_chunk(self, state: MigrationState) -> None:
        router = self.router
        chunk = router.handle(state.source).call(
            "migrate_chunk_out", state.migration_id, state.cursor, self.chunk_size
        )
        if chunk["offers"]:
            absorbed = router.handle(state.target).call(
                "migrate_absorb",
                state.migration_id,
                [{"op": "migrate_in", "data": {"offers": chunk["offers"]}}],
            )
            state.offers_copied += absorbed
            if absorbed:
                METRICS.inc(
                    "sharding.migration.offers_copied",
                    (router.trader_id, state.service_type),
                    amount=absorbed,
                )
        state.cursor = chunk["next_cursor"]
        if chunk["done"]:
            state.phase = "CATCH_UP"

    def _catch_up(self, state: MigrationState) -> None:
        replayed = self._replay_tail(state)
        state.catchup_rounds += 1
        if replayed == 0 or state.catchup_rounds >= MAX_CATCHUP_ROUNDS:
            # The tail ran dry — or won't under sustained load, in which
            # case FLIP's seal bounds it: after the seal no new delta for
            # the type can appear, so the final replay is finite.
            state.phase = "FLIP"

    def _flip(self, state: MigrationState, now: float) -> None:
        router = self.router
        router.handle(state.source).call("migrate_flip", state.migration_id)
        self._replay_tail(state)  # final: the seal froze the tail
        # Recipient-side anti-entropy at the cutover instant: any lease
        # that lapsed mid-migration is swept before the recipient serves
        # as owner — a migration must never resurrect one.  The moving
        # type is still shielded from the recipient's *own* sweeps, so
        # the sweep rides the absorb channel, which is scoped to the
        # type and deliberately pierces the shield: the copy is final
        # now (the seal froze the tail), so expiring from it is safe.
        router.handle(state.target).call(
            "migrate_absorb",
            state.migration_id,
            [{"op": "expire", "data": {"now": now}}],
        )
        state.phase = "DRAIN"
        router.flip_type(state)

    def _drain(self, state: MigrationState) -> None:
        router = self.router
        router.handle(state.source).call("migrate_done", state.migration_id)
        # The recipient closes its side too: the absorption shield lifts
        # and its own lease sweeps take the type over.
        router.handle(state.target).call("migrate_done", state.migration_id)
        router.close_migration(state)
        state.phase = "DONE"

    # -- plumbing ----------------------------------------------------------

    def _replay_tail(self, state: MigrationState) -> int:
        """Carry the donor's deltas for the moving type (the donor filters
        its own log) past ``replayed_seq`` to the recipient."""
        router = self.router
        tail = router.handle(state.source).call(
            "deltas_since", state.replayed_seq, state.service_type
        )
        if tail:
            router.handle(state.target).call(
                "migrate_absorb", state.migration_id, tail
            )
            state.replayed_seq = tail[-1]["seq"]
            state.deltas_replayed += len(tail)
            METRICS.inc(
                "sharding.migration.deltas_replayed",
                (router.trader_id, state.service_type),
                amount=len(tail),
            )
        return len(tail)

    def _checkpoint(self, state: MigrationState) -> None:
        self.checkpoints.save(state)
        METRICS.set_gauge(
            "sharding.migration.phase",
            PHASE_INDEX[state.phase],
            (self.router.trader_id, state.service_type),
        )

    def _ctx(self, state: MigrationState) -> CallContext:
        ctx = self._contexts.get(state.migration_id)
        if ctx is None:
            ctx = CallContext.background()
            self._contexts[state.migration_id] = ctx
        return ctx

    def _finish_trace(self, state: MigrationState) -> None:
        ctx = self._contexts.pop(state.migration_id, None)
        if ctx is not None:
            ctx.finish()

    def _now(self, now: Optional[float]) -> float:
        return self.router.clock() if now is None else now

    # -- topology workflows ------------------------------------------------

    def drain(self, shard_id: str, now: Optional[float] = None) -> List[MigrationState]:
        """Empty ``shard_id`` ahead of removal: migrate every type it
        effectively owns to the owner the map-without-it would pick.
        After this, ``remove_shard(shard_id)`` passes the drain check."""
        router = self.router
        survivor_map = router.map.without_shard(shard_id)
        if not len(survivor_map):
            raise MigrationError("cannot drain the last shard")
        owned = sorted(
            service_type.name
            for service_type in router.types
            if router.effective_owner(service_type.name) == shard_id
        )
        return [
            self.run(
                self.begin(service_type, survivor_map.owner(service_type)), now
            )
            for service_type in owned
        ]
