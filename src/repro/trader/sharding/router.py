"""The shard router: the full trader surface over a partitioned offer space.

The router implements the same computational and management interface as
:class:`~repro.trader.trader.LocalTrader` — ``TraderService`` can wrap
either without knowing which it got.  EXPORT/WITHDRAW/MODIFY/RENEW route
to the one shard that owns the offer's service type (rendezvous placement
over the versioned :class:`ShardMap`); IMPORT fans out to the owner plus
every shard covering a subtype-widened query, asking them one after
another under the caller's deadline, and merges and re-ranks their
answers — except a bounded, deterministic import that one shard covers,
whose answer is relayed exactly as the shard encoded it; management ops
broadcast.

Each shard is a :class:`ShardHandle`: a primary and its ranked replicas,
tried in order on the one failover engine, ``ResilientCaller.run``.  An
outage fails over within the caller's deadline and promotes the replica
reached, which expires any lease that lapsed in the failover window before
it serves; a shard's application error (an unknown offer id, a sealed
type) is an answer, not an outage, whether the shard is local or remote.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Union

from repro.context import CallContext, Clock, current_context
from repro.naming.refs import ServiceRef
from repro.rpc.codec import Encoded
from repro.rpc.resilience import BackoffPolicy, BreakerPolicy, ResilientCaller, transient
from repro.telemetry.metrics import METRICS
from repro.trader.errors import OfferNotFound, TraderError, UnknownServiceType
from repro.trader.federation import TraderLink
from repro.trader.offers import ServiceOffer, parse_offer_id
# bench/trace.py patches this attribute by name; leaves with ROADMAP item 7b
from repro.trader.policies import parse_preference  # noqa: F401
from repro.trader.service_types import ServiceType
from repro.trader.sharding.hashing import ShardMap
from repro.trader.sharding.migration import DUAL_READ_PHASES, MigrationState
from repro.trader.sharding.replication import (
    MigrationSealed,
    ShardNotDrained,
    ShardUnavailable,
)
from repro.trader.sharding.shard import TraderShard
from repro.trader.trader import ImportRequest, plan_import, rank
from repro.trader.type_manager import TypeManager

#: Breaker policy for shard backends: one hard failure opens the
#: circuit, because unlike a federation peer a shard has a warm replica
#: standing by — failing over immediately beats retrying a corpse.
SHARD_BREAKER = BreakerPolicy(failure_threshold=1, probe_interval=30.0)

#: No pause before a replica: it is warm, and a promotion is not a retry.
SHARD_BACKOFF = BackoffPolicy(base=0.0, cap=0.0)


class ShardHandle:
    """One shard: ``[primary, *replicas]``, a ranked target list.  Breakers
    go by rank as built (``router/s0``, ``router/s0-r1`` …): a promoted
    replica keeps its own."""

    def __init__(
        self, router_id: str, shard_id: str, primary: Any, replicas: Iterable[Any],
        engine: ResilientCaller,
    ) -> None:
        self.shard_id = shard_id
        self.primary = primary
        self.replicas: List[Any] = list(replicas)
        self._engine = engine
        self._labels = (router_id, shard_id)
        self._promoted = 0  # ranks spent on promotions

    @property
    def breaker(self):
        return self._engine.breaker_for(self._key(self.primary))

    def _key(self, backend: Any) -> str:
        built_as = self._promoted
        if backend is not self.primary:
            built_as += 1 + self.replicas.index(backend)
        return "/".join(self._labels) + (f"-r{built_as}" if built_as else "")

    def call(self, op: str, *args: Any, ctx: Optional[CallContext] = None) -> Any:
        """Invoke ``op`` on the first backend that answers, promoting the
        replica reached.  Outages fail over (``resilience.transient``);
        application errors propagate and leave the breakers alone.  With
        ``ctx`` the backend gets the attempt's deadline slice as its last
        argument.  No backend answering raises :class:`ShardUnavailable`.
        """

        def attempt(backend: Any, child: Optional[CallContext]) -> Any:
            if backend is not self.primary:
                backend.promote(self._engine.clock())
                index = self.replicas.index(backend)
                del self.replicas[: index + 1]
                self._promoted += index + 1
                self.primary = backend
                METRICS.inc("sharding.failovers", self._labels)
            method = getattr(backend, op)
            return method(*args) if ctx is None else method(*args, child)

        try:
            return self._engine.run(
                [self.primary, *self.replicas], attempt, ctx, self._key, op
            )
        except Exception as failure:
            if not transient(failure):
                raise
            raise ShardUnavailable(
                f"shard {self.shard_id}: no backend answered {op}"
            ) from failure

    def status(self) -> Dict[str, Any]:
        return {
            "shard_id": self.shard_id,
            "breaker": self.breaker.state_name,
            "replicas": len(self.replicas),
        }


class _RouterOffers:
    """Read-only aggregate of every shard's offers (duck-typing the
    corner of ``OfferStore`` that service wrappers and tools consume)."""

    def __init__(self, router: "ShardRouter") -> None:
        self._router = router

    def all(self) -> List[ServiceOffer]:
        router = self._router
        shard_ids = router.map.shard_ids
        return router._merge_owned(
            shard_ids,
            [router.handle(shard_id).call("list_offers") for shard_id in shard_ids],
        )

    def get(self, offer_id: str) -> ServiceOffer:
        for offer in self.all():
            if offer.offer_id == offer_id:
                return offer
        raise OfferNotFound(f"no offer {offer_id!r}")

    def __len__(self) -> int:
        return len(self.all())


class ShardRouter:
    """Route the trader surface over rendezvous-placed shards.

    An import asks its covering shards one after another.
    ``fanout_workers`` is accepted for existing callers and unread.
    An import's deadline is sliced over a shard's backends on ``clock``, the
    remote shards' transport clock; a router without one passes it whole.
    """

    def __init__(
        self,
        router_id: str = "router",
        offer_prefix: Optional[str] = None,
        seed: int = 0,
        clock: Optional[Clock] = None,
        fanout_workers: int = 1,
    ) -> None:
        self.trader_id = router_id
        self.offer_prefix = offer_prefix or router_id
        self.types = TypeManager()
        self.rng = random.Random(seed)
        self.map = ShardMap((), version=0)
        self.clock = clock
        self.links: Dict[str, TraderLink] = {}  # routers do not federate (yet)
        self.dynamic_evaluator = None
        # Every shard's failover engine (PROTOCOL §8): one pass per call.
        self._engine = ResilientCaller(
            None, SHARD_BACKOFF, SHARD_BREAKER, rounds=1,
            clock=lambda: self.clock() if self.clock else 0.0,
        )
        self._handles: Dict[str, ShardHandle] = {}
        self.offers = _RouterOffers(self)
        self.exports_accepted = 0
        self.imports_served = 0
        #: Open migrations by service type: the dual-ownership window.
        self._migrations: Dict[str, MigrationState] = {}
        #: Routing pins that override rendezvous placement: a type whose
        #: map owner changed stays pinned to the shard actually holding
        #: its offers until a migration FLIPs it across.
        self._pins: Dict[str, str] = {}

    # -- topology ---------------------------------------------------------------

    def add_shard(self, shard_id: str, primary: Any, replicas: Iterable[Any] = ()) -> set:
        """Register a shard backend and re-version the map; returns the
        set of registered types whose rendezvous ownership moved.

        Backends are anything exposing the shard surface —
        :class:`TraderShard` in-process, or the RPC backend from
        :mod:`repro.trader.sharding.rpc` for a shard living elsewhere.

        Moved types are **pinned** to their old owner, so their resident
        offers keep being found and mutated exactly where they are; the
        returned set is the work-list a
        :class:`~repro.trader.sharding.migration.MigrationCoordinator`
        streams across (each migration's FLIP repoints the pin).
        """
        old_map = self.map if len(self.map) else None
        self._handles[shard_id] = ShardHandle(
            self.trader_id, shard_id, primary, replicas, self._engine
        )
        self.map = self.map.with_shard(shard_id)
        self._seed_types(self._handles[shard_id])
        moved: set = set()
        if old_map is not None:
            for service_type in self.types:
                name = service_type.name
                if name in self._pins or name in self._migrations:
                    continue  # routing is pinned: map movement is latent
                old_owner = old_map.owner(name)
                if old_owner != self.map.owner(name):
                    moved.add(name)
                    self._pins[name] = old_owner
        self._push_map()
        return moved

    def remove_shard(self, shard_id: str, force: bool = False) -> None:
        """Retire a shard.  Refused while the victim still holds offers —
        a removal would silently strand them — unless ``force=True``
        (accepting the loss; e.g. the shard's data is already gone).
        Drain it first: ``MigrationCoordinator.drain(shard_id)``.
        """
        handle = self._handles.get(shard_id)
        if handle is not None and not force:
            resident = handle.call("list_offers")
            if resident:
                raise ShardNotDrained(
                    f"shard {shard_id!r} still holds {len(resident)} offers; "
                    "drain it with a migration or pass force=True"
                )
        self._handles.pop(shard_id, None)
        self.map = self.map.without_shard(shard_id)
        for name, pin in list(self._pins.items()):
            if pin == shard_id or (len(self.map) and self.map.owner(name) == pin):
                del self._pins[name]
        self._push_map()

    def handle(self, shard_id: str) -> ShardHandle:
        return self._handles[shard_id]

    def _seed_types(self, handle: ShardHandle) -> None:
        """A shard joining a live router learns the registered types (in
        registration order, so supers always precede their subtypes)."""
        for service_type in self.types:
            name = service_type.name
            try:
                handle.call(
                    "add_type", service_type, self.types.registered_at(name) or 0.0
                )
            except TraderError:
                continue  # backend already knows it (rejoining shard)
            if self.types.masked(name):
                handle.call("mask_type", name)

    # -- live resharding: the dual-ownership window -------------------------------

    def migration_for(self, service_type: str) -> Optional[MigrationState]:
        return self._migrations.get(service_type)

    def open_migration(self, state: MigrationState) -> None:
        """Open (or re-open, on resume) the forwarding window for a type."""
        self._migrations[state.service_type] = state

    def close_migration(self, state: MigrationState) -> None:
        self._migrations.pop(state.service_type, None)

    def flip_type(self, state: MigrationState) -> None:
        """The atomic cutover: repoint the type's routing at the migration
        target and bump the shard-map version so every shard (and every
        delta logged from here on) sees the new ownership epoch.
        Idempotent — resuming a flipped migration re-applies at no cost."""
        name = state.service_type
        if self.map.owner(name) == state.target:
            changed = self._pins.pop(name, None) is not None
        else:
            changed = self._pins.get(name) != state.target
            self._pins[name] = state.target
        if changed:
            self.map = ShardMap(self.map.shard_ids, self.map.version + 1)
            self._push_map()

    def effective_owner(self, service_type: str) -> str:
        """Where the type's offers actually live *right now*: the open
        migration's authoritative side, else the pin, else the map."""
        state = self._migrations.get(service_type)
        if state is not None:
            return state.target if state.flipped else state.source
        pin = self._pins.get(service_type)
        if pin is not None:
            return pin
        return self.map.owner(service_type)

    def _forward_target(self, service_type: str, owner: str) -> Optional[str]:
        """Where to retry a write the sealed donor refused."""
        state = self._migrations.get(service_type)
        if state is not None:
            return state.target if owner != state.target else state.source
        pin = self._pins.get(service_type)
        if pin is not None and pin != owner:
            return pin
        mapped = self.map.owner(service_type)
        return mapped if mapped != owner else None

    def _route_write(self, op: str, service_type: str, *args: Any) -> Any:
        """Route a mutation to the effective owner; a ``MigrationSealed``
        refusal (the donor was flipped under the call) forwards to the
        other side of the window — the caller never sees the cutover."""
        owner = self.effective_owner(service_type)
        METRICS.inc("sharding.routed", (self.trader_id, owner, op))
        try:
            return self._handles[owner].call(op, *args)
        except MigrationSealed:
            fallback = self._forward_target(service_type, owner)
            if fallback is None:
                raise
            METRICS.inc(
                "sharding.migration.forwarded_calls",
                (self.trader_id, service_type),
            )
            METRICS.inc("sharding.routed", (self.trader_id, fallback, op))
            return self._handles[fallback].call(op, *args)

    def _push_map(self) -> None:
        METRICS.set_gauge("sharding.map_version", self.map.version, (self.trader_id,))
        map_wire = self.map.to_wire()
        for handle in self._handles.values():
            try:
                handle.call("set_map", map_wire)
            except Exception:  # noqa: BLE001 - a dark shard learns the map on sync
                METRICS.inc("sharding.map_push_failed", (self.trader_id,))

    # -- management interface (broadcast) ----------------------------------------

    def add_type(self, service_type: ServiceType, now: float = 0.0) -> None:
        # The router's mirror first: it raises on duplicates/unknown
        # supers exactly as a single trader would, before any shard moves.
        self.types.add(service_type, now)
        for handle in self._handles.values():
            handle.call("add_type", service_type, now)

    def remove_type(self, name: str) -> bool:
        removed = self.types.remove(name)
        for handle in self._handles.values():
            handle.call("remove_type", name)
        return removed

    def mask_type(self, name: str) -> None:
        self.types.mask(name)
        for handle in self._handles.values():
            handle.call("mask_type", name)

    # -- exporter interface --------------------------------------------------------

    def export(
        self,
        service_type: str,
        ref: Union[ServiceRef, Dict[str, Any]],
        properties: Dict[str, Any],
        now: float = 0.0,
        lease_seconds: Optional[float] = None,
    ) -> str:
        offer_id = self._route_write(
            "export", service_type, service_type, ref, properties, now, lease_seconds
        )
        self.exports_accepted += 1
        return offer_id

    def renew(self, offer_id: str, now: float = 0.0) -> Optional[float]:
        return self._route_by_id("renew", offer_id, now)

    def withdraw(self, offer_id: str) -> ServiceOffer:
        return self._route_by_id("withdraw", offer_id)

    def modify(self, offer_id: str, properties: Dict[str, Any]) -> ServiceOffer:
        return self._route_by_id("modify", offer_id, properties)

    def expire_offers(self, now: float) -> int:
        """Broadcast the lease sweep; each primary replicates its own."""
        return sum(
            self._handles[shard_id].call("expire_offers", now)
            for shard_id in self.map.shard_ids
        )

    def _route_by_id(self, op: str, offer_id: str, *args: Any) -> Any:
        """Offer ids are ``prefix:type:n`` — placement needs no lookup."""
        minted = parse_offer_id(offer_id, self.offer_prefix)
        if minted is None:
            raise OfferNotFound(f"no offer {offer_id!r}")
        return self._route_write(op, minted[0], offer_id, *args)

    # -- importer interface ---------------------------------------------------------

    def import_(
        self,
        request: Union[ImportRequest, Dict[str, Any]],
        now: float = 0.0,
        ctx: Optional[CallContext] = None,
    ) -> Union[List[ServiceOffer], List[Dict[str, Any]], Encoded]:
        """Fan the query out to every covering shard; rank at the router.

        Planned exactly as an unsharded trader plans it (``plan_import``),
        so a malformed constraint or an unknown type raises before any
        shard is asked.  The router restores the single-trader candidate
        order — types in ``matching_types`` order, offers in per-type
        export order, both recoverable from the offer id — and ranks once
        (``rank``), so ranking (and the rng behind ``random``) is
        bit-identical to an unsharded trader.

        Where ``ImportPlan.partition_top_k`` holds (it carries the
        soundness argument) the request travels as it came —
        **scatter-gather top-K**: each shard returns only its local top-K,
        riding the sorted-index walk for ``min``/``max`` — otherwise
        shards return raw matches.  The *only* covering shard's top-K is
        the answer as it stands: the global candidate order restricted to
        one partition is that partition's (a shard stores each type's
        offers in mint order), so re-ranking would be the identity.  A
        request in wire form (from :meth:`import_wire`) is answered in
        wire form — a remote single owner's reply still encoded.
        """
        wire_form = not isinstance(request, ImportRequest)
        if wire_form:
            request = ImportRequest.from_wire(request)
        if ctx is None:
            ctx = current_context()
        if ctx is None:
            ctx = CallContext.background(
                hops=request.hop_limit, visited=tuple(request.visited)
            )
        self.imports_served += 1
        METRICS.inc("trader.imports", (self.trader_id,))
        plan = plan_import(request, self.types)
        owners = self._covering_shards(plan.type_names)
        if plan.partition_top_k:
            METRICS.inc("sharding.topk_pushdown", (self.trader_id,))
            forwarded = request.to_wire()
        else:
            forwarded = request.to_raw_wire()  # shards return raw matches; we order
        forwarded["hop_limit"] = 0  # shards are partitions, not federation hops
        answers = self._gather(owners, forwarded, ctx, now)
        if plan.partition_top_k and len(owners) == 1:
            if wire_form:
                return answers[0]
            return [ServiceOffer.from_wire(item) for item in _wires(answers[0])]
        merged = self._merge_owned(
            owners,
            [
                [ServiceOffer.from_wire(item) for item in _wires(answer)]
                for answer in answers
            ],
        )
        position = {name: index for index, name in enumerate(plan.type_names)}
        prefix = self.offer_prefix

        def canonical(offer: ServiceOffer):
            minted = parse_offer_id(offer.offer_id, prefix)
            return (
                position.get(offer.service_type, len(position)),
                minted[1] if minted else 0,
            )

        merged.sort(key=canonical)
        ranked = rank(merged, plan.preference, plan.limit, self.rng)
        return [offer.to_wire() for offer in ranked] if wire_form else ranked

    def _merge_owned(
        self, shard_ids: Iterable[str], offer_lists: Iterable[Iterable[ServiceOffer]]
    ) -> List[ServiceOffer]:
        """Union per-shard answers, one copy per offer id.  While a type
        is migrating both sides may hold the same offer; the copy from
        the type's *effective owner* wins, so a not-yet-replayed RENEW or
        MODIFY on the other side is never observable — no stale mediation."""
        merged: Dict[str, ServiceOffer] = {}
        for shard_id, offers in zip(shard_ids, offer_lists):
            for offer in offers:
                if (
                    offer.offer_id not in merged
                    or shard_id == self.effective_owner(offer.service_type)
                ):
                    merged[offer.offer_id] = offer
        return list(merged.values())

    def _covering_shards(self, type_names: Sequence[str]) -> List[str]:
        """The shards an import must ask: each queried type's effective
        owner, plus — for types inside a dual-ownership window — the other
        side of the migration (the double-read), appended after the
        authoritative owners so its rows only fill gaps in the merge."""
        owners: List[str] = []
        for name in type_names:
            owner = self.effective_owner(name)
            if owner not in owners:
                owners.append(owner)
        for name in type_names:
            state = self._migrations.get(name)
            if state is None or state.phase not in DUAL_READ_PHASES:
                continue
            other = state.source if state.flipped else state.target
            if other not in owners:
                owners.append(other)
        return owners

    def _gather(
        self,
        owners: List[str],
        forwarded: Dict[str, Any],
        ctx: CallContext,
        now: float,
    ) -> List[Any]:
        METRICS.inc(
            "sharding.fanout", (self.trader_id,), amount=max(len(owners), 1)
        )
        args, sliced = ((forwarded, now), ctx) if self.clock else ((forwarded, now, ctx), None)
        return [
            self._handles[shard_id].call("import_wire", *args, ctx=sliced)
            for shard_id in owners
        ]

    def select_best(
        self,
        request: ImportRequest,
        now: float = 0.0,
        ctx: Optional[CallContext] = None,
    ) -> Optional[ServiceOffer]:
        offers = self.import_(replace(request, max_matches=1), now, ctx)
        return offers[0] if offers else None

    def import_wire(
        self,
        request_wire: Dict[str, Any],
        now: float = 0.0,
        ctx: Optional[CallContext] = None,
    ) -> Union[List[Dict[str, Any]], Encoded]:
        """Wire dicts, or a remote single owner's reply still encoded
        (``TraderService`` hands either to the RPC layer as it is)."""
        try:
            return self.import_(request_wire, now, ctx)
        except UnknownServiceType:
            return []  # the peer rule, as LocalTrader.import_wire states it

    # -- introspection ----------------------------------------------------------------

    def status(self) -> Dict[str, Any]:
        return {
            "router_id": self.trader_id,
            "map_version": self.map.version,
            "shards": {
                shard_id: self._handles[shard_id].status()
                for shard_id in self.map.shard_ids
            },
            "migrations": {
                name: state.phase for name, state in sorted(self._migrations.items())
            },
            "pins": dict(sorted(self._pins.items())),
        }


def _wires(answer: Any) -> List[Dict[str, Any]]:
    """A shard's IMPORT answer as wire dicts: a remote one arrives encoded."""
    if isinstance(answer, Encoded):
        return answer.decode()
    return answer or []


def build_local_router(
    shard_ids: Iterable[str],
    replicas: int = 0,
    router_id: str = "router",
    offer_prefix: Optional[str] = None,
    seed: int = 0,
    clock: Optional[Clock] = None,
    dynamic_evaluator=None,
    range_index: bool = True,
) -> ShardRouter:
    """An in-process sharded trader: N primaries, R replicas each, wired.

    Every primary pushes deltas straight into its replicas' ``apply_delta``;
    a push that finds the replica out of sequence falls back to a pull
    ``sync_from`` (which also runs the lease-expiry catch-up step).
    """
    router = ShardRouter(
        router_id=router_id,
        offer_prefix=offer_prefix,
        seed=seed,
        clock=clock,
    )
    for shard_id in shard_ids:
        primary = TraderShard(
            f"{router.trader_id}/{shard_id}",
            offer_prefix=router.offer_prefix,
            seed=seed,
            dynamic_evaluator=dynamic_evaluator,
            clock=clock,
            range_index=range_index,
        )
        shard_replicas = []
        for replica_index in range(replicas):
            replica = TraderShard(
                f"{router.trader_id}/{shard_id}-r{replica_index + 1}",
                offer_prefix=router.offer_prefix,
                seed=seed,
                dynamic_evaluator=dynamic_evaluator,
                clock=clock,
                range_index=range_index,
                role="replica",
            )
            primary.attach_replica(
                replica.shard_id, _push_with_sync(primary, replica, clock)
            )
            shard_replicas.append(replica)
        router.add_shard(shard_id, primary, shard_replicas)
    return router


def _push_with_sync(
    primary: TraderShard, replica: TraderShard, clock: Optional[Clock]
) -> Callable[[Dict[str, Any]], None]:
    def push(delta_wire: Dict[str, Any]) -> None:
        if not replica.apply_delta(delta_wire):
            now = clock() if clock is not None else 0.0
            replica.sync_from(primary.deltas_since, now)

    return push
