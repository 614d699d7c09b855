"""``python -m repro sharded-trader`` — a sharded trader walkthrough.

Builds an in-process sharded, replicated trader; spreads offers over the
shards; runs routed exports, fanned-out imports, and a forced primary
crash with breaker-driven replica promotion — printing the shard map,
placement, and replication status at each step.  The quickest way to see
the partitioned deployment shape without writing any code.
"""

from __future__ import annotations

import argparse
from typing import List, Optional, Sequence

from repro.errors import CommunicationError
from repro.naming.refs import ServiceRef
from repro.net.endpoints import Address
from repro.sidl.types import DOUBLE, InterfaceType, LONG, OperationType
from repro.trader.service_types import ServiceType
from repro.trader.sharding.router import build_local_router
from repro.trader.trader import ImportRequest


class _CrashedBackend:
    """Stands in for a crashed shard process: every call raises."""

    def __getattr__(self, name):
        def refuse(*args, **kwargs):
            raise CommunicationError("shard primary crashed")

        return refuse


def _service_type(name: str) -> ServiceType:
    return ServiceType(
        name,
        InterfaceType("I", [OperationType("Use", [], LONG)]),
        [("ChargePerDay", DOUBLE)],
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro sharded-trader", description=__doc__
    )
    parser.add_argument("--shards", type=int, default=4, help="shard count (default 4)")
    parser.add_argument(
        "--replicas", type=int, default=1, help="replicas per shard (default 1)"
    )
    parser.add_argument(
        "--types", type=int, default=8, help="service types to spread (default 8)"
    )
    parser.add_argument(
        "--offers", type=int, default=5, help="offers per type (default 5)"
    )
    parser.add_argument(
        "--reshard",
        action="store_true",
        help="grow the fleet by one shard and live-migrate the moved types "
        "(stepping the migration state machine under live traffic)",
    )
    args = parser.parse_args(list(argv) if argv is not None else None)

    shard_ids = [f"s{index}" for index in range(max(1, args.shards))]
    router = build_local_router(
        shard_ids, replicas=max(0, args.replicas), router_id="demo"
    )
    print(f"shard map v{router.map.version}: {list(router.map.shard_ids)}")

    type_names: List[str] = [f"Service{index}" for index in range(max(1, args.types))]
    for name in type_names:
        router.add_type(_service_type(name))
    placement = {name: router.map.owner(name) for name in type_names}
    print("placement (rendezvous by type name):")
    for name, owner in placement.items():
        print(f"  {name:<12} -> {owner}")

    for name in type_names:
        for index in range(max(1, args.offers)):
            router.export(
                name,
                ServiceRef.create(f"{name}-{index}", Address("host", 1000 + index), 1),
                {"ChargePerDay": 10.0 + index},
                now=0.0,
                lease_seconds=60.0,
            )
    print(f"\nexported {len(router.offers.all())} offers across {len(shard_ids)} shards")

    request = ImportRequest(type_names[0], "ChargePerDay < 12", "min ChargePerDay")
    matches = router.import_(request, now=1.0)
    print(f"import {request.constraint!r}: {[offer.offer_id for offer in matches]}")

    if args.reshard:
        return _reshard_walkthrough(router, type_names, args)

    victim = placement[type_names[0]]
    print(f"\ncrashing primary of shard {victim!r} …")
    router.handle(victim).primary = _CrashedBackend()
    matches_after = router.import_(request, now=2.0)
    print(
        "after breaker-driven failover the same import still answers: "
        f"{[offer.offer_id for offer in matches_after]}"
    )
    identical = [o.offer_id for o in matches] == [o.offer_id for o in matches_after]
    print(f"result identical across failover: {identical}")
    print("\nshard status:")
    for shard_id, status in router.status()["shards"].items():
        print(f"  {shard_id}: breaker={status['breaker']} replicas={status['replicas']}")
    return 0 if identical else 1


def _reshard_walkthrough(router, type_names: List[str], args) -> int:
    """Add one shard and stream every moved type across, proving the
    dual-ownership window: imports and exports keep succeeding — with
    identical answers — at every step of every migration."""
    from repro.trader.sharding.migration import MigrationCoordinator
    from repro.trader.sharding.shard import TraderShard

    new_shard = f"s{max(1, args.shards)}"
    print(f"\nresharding: adding shard {new_shard!r} …")
    primary = TraderShard(
        f"{router.trader_id}/{new_shard}", offer_prefix=router.offer_prefix
    )
    moved = sorted(router.add_shard(new_shard, primary))
    print(f"shard map v{router.map.version}: {list(router.map.shard_ids)}")
    print(f"types whose placement moved: {moved or 'none'}")
    if not moved:
        print("rendezvous moved nothing this time; add more types and retry")
        return 0
    print(f"pinned to their old owners until migrated: {router.status()['pins']}")

    coordinator = MigrationCoordinator(router, chunk_size=2)
    failures = 0
    for name in moved:
        donor = router.effective_owner(name)
        target = router.map.owner(name)
        baseline = [
            offer.offer_id for offer in router.import_(ImportRequest(name, "", "first"))
        ]
        state = coordinator.begin(name, target)
        print(f"\nmigrating {name!r}: {donor} -> {target} ({state.migration_id})")
        while not state.finished:
            coordinator.step(state)
            live = [
                offer.offer_id
                for offer in router.import_(ImportRequest(name, "", "first"))
            ]
            ok = live == baseline
            failures += 0 if ok else 1
            print(
                f"  {state.phase:<8} copied={state.offers_copied}/{state.total} "
                f"replayed={state.deltas_replayed} "
                f"import {'unchanged' if ok else 'DIVERGED: ' + str(live)}"
            )
        print(
            f"  routed to {router.effective_owner(name)} "
            f"(map v{router.map.version}); donor now holds "
            f"{len([o for o in router.handle(donor).primary.list_offers() if o.service_type == name])} "
            f"offers of {name!r}"
        )
    print(f"\nreshard complete: {len(moved)} types moved, {failures} diverged imports")
    return 0 if failures == 0 else 1
