"""Wire plane for sharding: the replication program and remote backends.

A shard *node* runs two programs on one server: the ordinary trader
program (100200) for the client-facing surface, and this replication
program for the delta stream, catch-up SYNC, promotion, and shard-map
distribution.  A router reaches such a node through
:class:`RemoteShardBackend`, which presents the same duck surface as an
in-process :class:`~repro.trader.sharding.shard.TraderShard` — except
that its IMPORT answer stays encoded (:class:`~repro.rpc.codec.Encoded`),
so the router can relay a single owner's reply without a codec pass.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.context import CallContext
from repro.rpc.client import reply_to_result
from repro.rpc.codec import CODECS, Encoded
from repro.rpc.errors import RemoteFault
from repro.rpc.message import ReplyStatus
from repro.rpc.server import RpcProgram, RpcServer
from repro.trader.errors import TraderError
from repro.trader.service_types import ServiceType
from repro.trader.sharding.shard import TraderShard
from repro.trader.trader import TRADER_PROGRAM, TraderClient

SHARDING_PROGRAM = 100900

_PROC_APPLY_DELTA = 1
_PROC_DELTAS_SINCE = 2
_PROC_PROMOTE = 3
_PROC_STATUS = 4
_PROC_SET_MAP = 5
_PROC_EXPIRE = 6
# Live resharding (see repro.trader.sharding.migration).  MIGRATE_CHUNK
# carries both directions of one migration stream, told apart by the
# argument present: ``cursor`` reads a copy chunk off the donor,
# ``deltas`` absorbs donor deltas (a copied chunk or a catch-up tail)
# into the recipient.  MIGRATE_FLIP carries the cutover family via ``action``
# (``flip`` seals the donor, ``done`` drops the moved offers, ``abort``
# rolls both sides back).
_PROC_MIGRATE_BEGIN = 7
_PROC_MIGRATE_CHUNK = 8
_PROC_MIGRATE_FLIP = 9
_PROC_MIGRATE_STATUS = 10

_PROC_TRADER_IMPORT = 4  # the trader program's IMPORT procedure


class ShardReplicationService:
    """Expose a :class:`TraderShard`'s replication surface over RPC."""

    def __init__(self, server: RpcServer, shard: TraderShard, now=None) -> None:
        self.shard = shard
        self._now = now or server.transport.now
        program = RpcProgram(SHARDING_PROGRAM, 1, "sharding")
        program.register(_PROC_APPLY_DELTA, self._apply_delta, "apply_delta")
        program.register(_PROC_DELTAS_SINCE, self._deltas_since, "deltas_since")
        program.register(_PROC_PROMOTE, self._promote, "promote")
        program.register(_PROC_STATUS, self._status, "status")
        program.register(_PROC_SET_MAP, self._set_map, "set_map")
        program.register(_PROC_EXPIRE, self._expire, "expire")
        program.register(_PROC_MIGRATE_BEGIN, self._migrate_begin, "migrate_begin")
        program.register(_PROC_MIGRATE_CHUNK, self._migrate_chunk, "migrate_chunk")
        program.register(_PROC_MIGRATE_FLIP, self._migrate_flip, "migrate_flip")
        program.register(_PROC_MIGRATE_STATUS, self._migrate_status, "migrate_status")
        server.serve(program)
        self.address = server.address

    def _apply_delta(self, args) -> bool:
        return self.shard.apply_delta(args["delta"])

    def _deltas_since(self, args) -> List[Dict[str, Any]]:
        return self.shard.deltas_since(args["seq"], args.get("service_type"))

    def _promote(self, args) -> int:
        return self.shard.promote(args.get("now", self._now()))

    def _status(self, args) -> Dict[str, Any]:
        return self.shard.status()

    def _set_map(self, args) -> bool:
        return self.shard.set_map(args["map"])

    def _expire(self, args) -> int:
        return self.shard.expire_offers(args.get("now", self._now()))

    def _migrate_begin(self, args) -> Dict[str, Any]:
        return self.shard.migrate_begin(args["migration"], args["side"])

    def _migrate_chunk(self, args) -> Any:
        migration_id = args["migration_id"]
        if "deltas" in args:
            return self.shard.migrate_absorb(migration_id, args["deltas"])
        return self.shard.migrate_chunk_out(
            migration_id, args["cursor"], args.get("limit", 256)
        )

    def _migrate_flip(self, args) -> Any:
        migration_id = args["migration_id"]
        action = args.get("action", "flip")
        if action == "done":
            return self.shard.migrate_done(migration_id)
        if action == "abort":
            return self.shard.migrate_abort(migration_id)
        return self.shard.migrate_flip(migration_id)

    def _migrate_status(self, args) -> Dict[str, Any]:
        return self.shard.migrate_status(args["migration_id"])


class RemoteShardBackend(TraderClient):
    """A shard living on another node, duck-shaped like a TraderShard.

    The trader surface (exports, imports, …) is the ordinary trader stub
    — adapted where a shard's signature carries a ``now`` that is the
    remote node's clock concern, never the wire's; the replication and
    migration surface is the sharding program.  So a
    :class:`ShardHandle` holds local and remote shards interchangeably.
    """

    def export(
        self,
        service_type: str,
        ref,
        properties: Dict[str, Any],
        now: float = 0.0,
        lease_seconds: Optional[float] = None,
    ) -> str:
        return super().export(service_type, ref, properties, lease_seconds)

    def renew(self, offer_id: str, now: float = 0.0) -> Optional[float]:
        return super().renew(offer_id)

    def add_type(self, service_type: ServiceType, now: float = 0.0) -> bool:
        return super().add_type(service_type)

    def import_wire(
        self,
        request_wire: Dict[str, Any],
        now: float = 0.0,
        ctx: Optional[CallContext] = None,
    ) -> Encoded:
        """The shard's IMPORT answer, its SUCCESS body left undecoded:
        the router relays a single owner's reply as it came and decodes
        only the answers it merges.  Any other status raises the typed
        error ``reply_to_result`` maps it to, a shard's own as it raised it."""
        key = (TRADER_PROGRAM, 1, _PROC_TRADER_IMPORT)
        reply = self._client.call_raw(
            self.address, *key, CODECS.encode_args(*key, request_wire), context=ctx
        )
        if reply.status is not ReplyStatus.SUCCESS:
            try:
                reply_to_result(reply, self.address, *key)
            except RemoteFault as fault:
                fault.reraise_as(TraderError)
        return Encoded(reply.body, *key)

    # replication surface ----------------------------------------------------

    def apply_delta(self, delta_wire: Dict[str, Any]) -> bool:
        return self._shard_call(_PROC_APPLY_DELTA, {"delta": delta_wire})

    def deltas_since(
        self, seq: int, service_type: Optional[str] = None
    ) -> List[Dict[str, Any]]:
        return self._shard_call(
            _PROC_DELTAS_SINCE, {"seq": seq, "service_type": service_type}
        )

    def promote(self, now: Optional[float] = None) -> int:
        return self._shard_call(_PROC_PROMOTE, {"now": now})

    def status(self) -> Dict[str, Any]:
        return self._shard_call(_PROC_STATUS, {})

    def set_map(self, map_wire: Dict[str, Any]) -> bool:
        return self._shard_call(_PROC_SET_MAP, {"map": map_wire})

    def expire_offers(self, now: Optional[float] = None) -> int:
        return self._shard_call(_PROC_EXPIRE, {"now": now})

    # migration surface ------------------------------------------------------

    def migrate_begin(self, migration_wire: Dict[str, Any], side: str) -> Dict[str, Any]:
        return self._shard_call(
            _PROC_MIGRATE_BEGIN, {"migration": migration_wire, "side": side}
        )

    def migrate_chunk_out(
        self, migration_id: str, cursor: int, limit: int
    ) -> Dict[str, Any]:
        return self._shard_call(
            _PROC_MIGRATE_CHUNK,
            {"migration_id": migration_id, "cursor": cursor, "limit": limit},
        )

    def migrate_absorb(self, migration_id: str, deltas) -> int:
        return self._shard_call(
            _PROC_MIGRATE_CHUNK, {"migration_id": migration_id, "deltas": deltas}
        )

    def migrate_flip(self, migration_id: str) -> Dict[str, Any]:
        return self._shard_call(
            _PROC_MIGRATE_FLIP, {"migration_id": migration_id, "action": "flip"}
        )

    def migrate_done(self, migration_id: str) -> int:
        return self._shard_call(
            _PROC_MIGRATE_FLIP, {"migration_id": migration_id, "action": "done"}
        )

    def migrate_abort(self, migration_id: str) -> bool:
        return self._shard_call(
            _PROC_MIGRATE_FLIP, {"migration_id": migration_id, "action": "abort"}
        )

    def migrate_status(self, migration_id: str) -> Dict[str, Any]:
        return self._shard_call(_PROC_MIGRATE_STATUS, {"migration_id": migration_id})

    def _shard_call(self, proc: int, args: Dict[str, Any]) -> Any:
        return self._call(proc, args, prog=SHARDING_PROGRAM)
