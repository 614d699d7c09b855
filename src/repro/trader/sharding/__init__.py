"""Sharded, replicated trading: partition the offer space, survive crashes.

The offer space is partitioned by service-type name with rendezvous
hashing over a versioned :class:`ShardMap`; each partition is a
:class:`TraderShard` (a whole ``LocalTrader`` plus a replication role)
streaming sequence-numbered deltas to its replicas; a
:class:`ShardRouter` presents the full trader surface over the fleet and
fails over — promoting a replica that first expires any leases that
lapsed in the failover window — when a primary's breaker opens.
"""

from repro.trader.sharding.hashing import ShardMap, rendezvous_score
from repro.trader.sharding.migration import (
    FileCheckpoints,
    MemoryCheckpoints,
    MigrationCoordinator,
    MigrationError,
    MigrationState,
    PHASES,
)
from repro.trader.sharding.replication import (
    DeltaLog,
    MigrationSealed,
    ShardDelta,
    ShardingError,
    ShardNotDrained,
    ShardUnavailable,
    SyncGap,
)
from repro.trader.sharding.router import (
    SHARD_BREAKER,
    ShardHandle,
    ShardRouter,
    build_local_router,
)
from repro.trader.sharding.rpc import (
    SHARDING_PROGRAM,
    RemoteShardBackend,
    ShardReplicationService,
)
from repro.trader.sharding.shard import ROLE_PRIMARY, ROLE_REPLICA, TraderShard

__all__ = [
    "DeltaLog",
    "FileCheckpoints",
    "MemoryCheckpoints",
    "MigrationCoordinator",
    "MigrationError",
    "MigrationSealed",
    "MigrationState",
    "PHASES",
    "RemoteShardBackend",
    "ShardNotDrained",
    "ROLE_PRIMARY",
    "ROLE_REPLICA",
    "SHARD_BREAKER",
    "SHARDING_PROGRAM",
    "ShardDelta",
    "ShardHandle",
    "ShardMap",
    "ShardReplicationService",
    "ShardRouter",
    "ShardUnavailable",
    "ShardingError",
    "SyncGap",
    "TraderShard",
    "build_local_router",
    "rendezvous_score",
]
