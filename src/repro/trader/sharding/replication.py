"""The shard replication log: sequence-numbered offer/lease deltas.

A primary appends one :class:`ShardDelta` per mutation and pushes it to
its replicas; a replica applies deltas strictly in sequence and pulls a
catch-up batch (``since``) when it detects a gap.  The log is the unit
of anti-entropy — lease *times* travel inside the deltas, so a replica
that catches up after an outage knows exactly which leases lapsed while
it was dark and can expire them before serving.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List

from repro.trader.errors import TraderError
from repro.trader.offers import parse_offer_id


class ShardingError(TraderError):
    """A sharding-layer failure (placement, replication, failover)."""


class SyncGap(ShardingError):
    """The replica is behind the log's truncation point: needs a snapshot."""


class ShardUnavailable(ShardingError):
    """No backend (primary or replica) could serve the shard's request."""


class MigrationSealed(ShardingError):
    """The donor sealed this service type at migration FLIP: writes for it
    must be forwarded to the recipient shard (the router does so)."""


class ShardNotDrained(ShardingError):
    """``remove_shard`` refused: the victim still holds live offers that a
    removal would silently strand.  Drain (migrate) it first, or pass
    ``force=True`` to accept the loss."""


#: Delta operations a primary may log.  ``expire`` replicates the lease
#: sweep itself so replicas evict exactly the offers the primary did, at
#: the same virtual instant — independent sweeping would diverge; with a
#: ``service_type`` it is a migration recipient's donor-driven sweep of
#: just that type.  The ``migrate_*`` ops replicate live-resharding state
#: so a replica promoted mid-migration inherits the migration exactly
#: where the old primary left it (see
#: :mod:`repro.trader.sharding.migration`).
DELTA_OPS = (
    "export",
    "withdraw",
    "modify",
    "renew",
    "expire",
    "add_type",
    "remove_type",
    "mask_type",
    "migrate_begin",
    "migrate_in",
    "migrate_flip",
    "migrate_done",
    "migrate_abort",
)


@dataclass
class ShardDelta:
    """One replicated mutation, totally ordered by ``seq`` per shard."""

    seq: int
    op: str
    data: Dict[str, Any]
    #: The shard-map version the primary held when logging — the version
    #: header that lets a replica spot routing skew during catch-up.
    map_version: int = 0

    def to_wire(self) -> Dict[str, Any]:
        return {
            "seq": self.seq,
            "op": self.op,
            "data": dict(self.data),
            "map_version": self.map_version,
        }

    @classmethod
    def from_wire(cls, data: Dict[str, Any]) -> "ShardDelta":
        return cls(
            seq=data["seq"],
            op=data["op"],
            data=data.get("data", {}),
            map_version=data.get("map_version", 0),
        )

    def touches(self, service_type: str, offer_prefix: str) -> bool:
        """Could this delta change ``service_type``'s offers?  An unscoped
        ``expire`` always might (the sweep is global); type management
        replicates through the router broadcast and ``migrate_*`` state is
        shard-local, so neither ever travels with a migrating type."""
        op, data = self.op, self.data
        if op == "export":
            return data["offer"]["service_type"] == service_type
        if op in ("withdraw", "modify", "renew"):
            minted = parse_offer_id(data["offer_id"], offer_prefix)
            return minted is not None and minted[0] == service_type
        return op == "expire" and data.get("service_type") in (None, service_type)


class DeltaLog:
    """An append-only, truncatable run of deltas starting after ``base_seq``.

    ``base_seq`` is the high-water mark already folded into a snapshot:
    a log restored from persistence starts empty at the snapshot's
    sequence, and ``since`` refuses (raises :class:`SyncGap`) to serve a
    replica older than the base — that replica needs the snapshot, not
    the log.
    """

    def __init__(self, base_seq: int = 0) -> None:
        self._base = base_seq
        self._entries: List[ShardDelta] = []

    @property
    def base_seq(self) -> int:
        return self._base

    @property
    def last_seq(self) -> int:
        return self._entries[-1].seq if self._entries else self._base

    def append(self, op: str, data: Dict[str, Any], map_version: int = 0) -> ShardDelta:
        delta = ShardDelta(self.last_seq + 1, op, data, map_version)
        self._entries.append(delta)
        return delta

    def record(self, delta: ShardDelta) -> None:
        """Mirror an externally sequenced delta (a replica keeping its own
        log so it can serve as a primary after promotion)."""
        if delta.seq != self.last_seq + 1:
            raise ShardingError(
                f"out-of-order record: have {self.last_seq}, got {delta.seq}"
            )
        self._entries.append(delta)

    def since(self, seq: int) -> List[ShardDelta]:
        """Every delta after ``seq``, oldest first."""
        if seq < self._base:
            raise SyncGap(
                f"log starts after seq {self._base}; replica at {seq} needs a snapshot"
            )
        if seq >= self.last_seq:
            return []
        # Entries are contiguous from _base+1, so slice by offset.
        return list(self._entries[seq - self._base :])

    def truncate_to(self, seq: int) -> int:
        """Drop entries at or below ``seq`` (already snapshotted); returns
        how many were dropped."""
        if seq <= self._base:
            return 0
        seq = min(seq, self.last_seq)
        dropped = seq - self._base
        self._entries = self._entries[dropped:]
        self._base = seq
        return dropped

    def __len__(self) -> int:
        return len(self._entries)
