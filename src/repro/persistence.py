"""Snapshot persistence for long-lived COSM components.

Traders and browsers accumulate state (service types, offers, registered
SIDs) that should survive a restart of the hosting node.  Snapshots are
plain JSON-compatible dicts built from the same wire forms that cross the
network, written with :func:`save_snapshot` / :func:`load_snapshot`.

Bytes inside offer properties or SIDs are hex-wrapped, since the wire
forms may carry ``octets`` values JSON cannot hold natively.
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import Any, Dict, Optional, Union

from repro.core.browser import BrowserService
from repro.errors import ConfigurationError
from repro.trader.offers import ServiceOffer
from repro.trader.service_types import ServiceType
from repro.trader.trader import LocalTrader

_BYTES_MARKER = "__bytes_hex__"
SNAPSHOT_VERSION = 1


# -- JSON-safe wrapping -------------------------------------------------------


def _wrap(value: Any) -> Any:
    if isinstance(value, (bytes, bytearray)):
        return {_BYTES_MARKER: bytes(value).hex()}
    if isinstance(value, dict):
        return {key: _wrap(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_wrap(item) for item in value]
    return value


def _unwrap(value: Any) -> Any:
    if isinstance(value, dict):
        if set(value) == {_BYTES_MARKER}:
            return bytes.fromhex(value[_BYTES_MARKER])
        return {key: _unwrap(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_unwrap(item) for item in value]
    return value


# -- trader snapshots -------------------------------------------------------------


def trader_snapshot(trader: LocalTrader) -> Dict[str, Any]:
    """Everything a trader needs to resume: types and offers (links are
    re-established by the operator; they name live peers)."""
    return {
        "version": SNAPSHOT_VERSION,
        "kind": "trader",
        "trader_id": trader.trader_id,
        "types": [
            {
                "wire": service_type.to_wire(),
                "registered_at": trader.types.registered_at(service_type.name),
                "masked": trader.types.masked(service_type.name),
            }
            for service_type in trader.types
        ],
        "offers": [offer.to_wire() for offer in trader.offers.all()],
    }


def restore_trader(snapshot: Dict[str, Any], **trader_options: Any) -> LocalTrader:
    _check(snapshot, "trader")
    trader = LocalTrader(snapshot["trader_id"], **trader_options)
    # two passes: types may name super types registered later in the list
    pending = list(snapshot["types"])
    while pending:
        progressed = []
        for entry in pending:
            service_type = ServiceType.from_wire(entry["wire"])
            if all(trader.types.has(s) for s in service_type.super_types):
                trader.types.add(service_type, entry.get("registered_at") or 0.0)
                if entry.get("masked"):
                    trader.types.mask(service_type.name)
                progressed.append(entry)
        if not progressed:
            names = [e["wire"]["name"] for e in pending]
            raise ConfigurationError(f"unresolvable super types among {names}")
        pending = [entry for entry in pending if entry not in progressed]
    for offer_wire in snapshot["offers"]:
        trader.offers.add(ServiceOffer.from_wire(offer_wire))
    return trader


# -- shard snapshots -------------------------------------------------------------


def shard_snapshot(shard: Any) -> Dict[str, Any]:
    """A :class:`~repro.trader.sharding.shard.TraderShard` checkpoint.

    The trader snapshot plus the replication coordinates — role, applied
    sequence, shard-map version — so a restarted shard knows where in the
    delta stream to resume (``deltas_since(applied_seq)``) instead of
    refetching the world.  Open migration records and type seals ride
    along: a shard checkpointed mid-migration restarts still inside the
    protocol (still sealed, still holding the begin-time snapshot list),
    so a resumed coordinator picks up exactly where the crash cut in.
    """
    snapshot = trader_snapshot(shard.trader)
    snapshot["kind"] = "trader_shard"
    snapshot["shard_id"] = shard.shard_id
    snapshot["offer_prefix"] = shard.trader.offers.prefix
    snapshot["role"] = shard.role
    snapshot["applied_seq"] = shard.applied_seq
    snapshot["map_version"] = shard.map_version
    snapshot["migrations"] = {
        migration_id: dict(record)
        for migration_id, record in shard.migrations.items()
    }
    snapshot["sealed_types"] = sorted(shard.sealed_types)
    if shard.migrations:
        # An open migration still needs the delta tail back to its
        # begin-time snapshot for CATCH_UP replay; compacting it into
        # this snapshot would strand a resumed coordinator (SyncGap).
        retain_from = min(
            int(record.get("snapshot_seq", 0))
            for record in shard.migrations.values()
        )
        snapshot["delta_tail"] = [
            delta.to_wire()
            for delta in shard.log.since(max(retain_from, shard.log.base_seq))
        ]
    return snapshot


def restore_shard(
    snapshot: Dict[str, Any], now: Optional[float] = None, **shard_options: Any
) -> Any:
    """Rebuild a shard from its checkpoint — lease-aware.

    A snapshot freezes lease expiry times as absolutes; any lease that
    lapsed while the shard was down is expired immediately when ``now``
    is given, *before* the shard serves anything — the restart half of
    the anti-entropy contract (the catch-up half lives in
    ``TraderShard.sync_from``).  The restored log starts empty at
    ``applied_seq``, so replicas older than the snapshot are told to
    take a snapshot themselves rather than a delta batch.
    """
    from repro.trader.sharding.replication import DeltaLog, ShardDelta
    from repro.trader.sharding.shard import TraderShard

    _check(snapshot, "trader_shard")
    shard = TraderShard(
        snapshot["shard_id"],
        offer_prefix=snapshot.get("offer_prefix", "offer"),
        role=snapshot.get("role", "primary"),
        base_seq=snapshot.get("applied_seq", 0),
        **shard_options,
    )
    shard.map_version = snapshot.get("map_version", 0)
    tail = snapshot.get("delta_tail", [])
    if tail:
        # Re-seed the retained tail (see ``shard_snapshot``) so a resumed
        # migration can still pull ``deltas_since(snapshot_seq)``.
        shard.log = DeltaLog(tail[0]["seq"] - 1)
        for wire in tail:
            shard.log.record(ShardDelta.from_wire(wire))
    trader_view = dict(snapshot, kind="trader")
    restored = restore_trader(
        trader_view,
        offer_prefix=snapshot.get("offer_prefix", "offer"),
    )
    shard.trader.types = restored.types
    shard.trader.offers = restored.offers
    # Open records come back the way a replica learns them — through the
    # interpreter, which also re-burns each recipient's mint floor (the
    # counters aren't in the snapshot).  It lifts an ``in`` type's seal
    # too, so the snapshot's seals are laid over it afterwards.
    for record in snapshot.get("migrations", {}).values():
        shard._apply("migrate_begin", {"record": record})
    shard.sealed_types = set(snapshot.get("sealed_types", ()))
    if now is not None:
        # The shard's sweep, not the raw trader's: types mid-absorption
        # stay shielded across a restart too.
        shard._apply("expire", {"now": now})
    return shard


# -- browser snapshots ---------------------------------------------------------------


def browser_snapshot(browser: BrowserService) -> Dict[str, Any]:
    entries = browser._implementation._entries
    return {
        "version": SNAPSHOT_VERSION,
        "kind": "browser",
        "entries": [
            {"sid": entry["sid"].to_wire(), "ref": entry["ref"].to_wire()}
            for entry in entries.values()
        ],
    }


def restore_browser(browser: BrowserService, snapshot: Dict[str, Any]) -> int:
    """Load registrations into a (fresh) browser; returns how many."""
    _check(snapshot, "browser")
    for entry in snapshot["entries"]:
        browser._implementation.Register(entry["sid"], entry["ref"])
    return len(snapshot["entries"])


# -- files -------------------------------------------------------------------------------


def _write_atomic(path: pathlib.Path, text: str) -> None:
    """Replace ``path``'s content all-or-nothing: a crash mid-write leaves
    the previous file intact (and a stray ``.tmp``), never a torn one."""
    temp = path.with_name(path.name + ".tmp")
    with open(temp, "w") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temp, path)


def save_snapshot(snapshot: Dict[str, Any], path: Union[str, pathlib.Path]) -> None:
    _write_atomic(
        pathlib.Path(path), json.dumps(_wrap(snapshot), indent=2, sort_keys=True)
    )


def load_snapshot(path: Union[str, pathlib.Path]) -> Dict[str, Any]:
    data = _unwrap(json.loads(pathlib.Path(path).read_text()))
    if not isinstance(data, dict) or "kind" not in data:
        raise ConfigurationError(f"{path} does not hold a COSM snapshot")
    return data


def _check(snapshot: Dict[str, Any], kind: str) -> None:
    if snapshot.get("kind") != kind:
        raise ConfigurationError(
            f"expected a {kind} snapshot, got {snapshot.get('kind')!r}"
        )
    if snapshot.get("version") != SNAPSHOT_VERSION:
        raise ConfigurationError(
            f"snapshot version {snapshot.get('version')!r} not supported"
        )
