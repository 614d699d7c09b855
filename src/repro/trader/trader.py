"""The trader: export, withdraw, modify, import — plus the RPC service.

Implements the compound ODP trader of §2.1: a computational interface for
exporters and importers, a management interface for the service-type
domain, and (via :mod:`repro.trader.federation`) links to peer traders.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Any, Collection, Dict, Iterable, List, Optional, Tuple, Union

from repro.context import CallContext, Clock, current_context
from repro.naming.refs import ServiceRef
from repro.net.endpoints import Address
from repro.rpc.client import RpcClient
from repro.rpc.codec import CODECS
from repro.rpc.errors import RemoteFault
from repro.rpc.server import RpcProgram, RpcServer
from repro.sidl import layout
from repro.telemetry.log import LOG
from repro.telemetry.metrics import METRICS
from repro.trader.constraints import Constraint, parse_constraint
from repro.trader.dynamic import resolve_properties
from repro.trader.errors import TraderError, UnknownServiceType
from repro.trader.federation import (
    DEFAULT_FANOUT_WORKERS,
    PROC_IMPORT,
    TRADER_PROGRAM,
    TraderLink,
    fan_out,
)
from repro.trader.offers import OFFER_LAYOUT, OfferStore, ServiceOffer
from repro.trader.policies import Preference, parse_preference
from repro.trader.service_types import ServiceType
from repro.trader.type_manager import TypeManager

_PROC_EXPORT = 1
_PROC_WITHDRAW = 2
_PROC_MODIFY = 3
_PROC_IMPORT = PROC_IMPORT  # what federation links call
_PROC_ADD_TYPE = 5
_PROC_REMOVE_TYPE = 6
_PROC_LIST_TYPES = 7
_PROC_GET_TYPE = 8
_PROC_LIST_OFFERS = 9
_PROC_MASK_TYPE = 10
_PROC_RENEW = 11

# Compiled wire codecs for the trader procedures whose signatures the
# SID pins down statically.  RENEW is the hot write — every exported
# offer heartbeats it for its whole lifetime — IMPORT and LIST_OFFERS
# answer with offer records (``OFFER_LAYOUT``, properties riding as one
# ``any`` field), and the management calls are pure fixed-shape string
# traffic.  Procedures built on genuinely dynamic values (IMPORT
# constraints, EXPORT/MODIFY property dicts, type definitions) keep
# those directions tagged by simply not registering them.
_OFFER_ID_ARGS = layout.struct(offer_id=layout.string())
_NAME_ARGS = layout.struct(name=layout.string())
CODECS.register(
    TRADER_PROGRAM, 1, _PROC_RENEW,
    args=_OFFER_ID_ARGS, result=layout.optional(layout.f64()),
)
CODECS.register(
    TRADER_PROGRAM, 1, _PROC_WITHDRAW,
    args=_OFFER_ID_ARGS, result=layout.boolean(),
)
CODECS.register(
    TRADER_PROGRAM, 1, _PROC_REMOVE_TYPE,
    args=_NAME_ARGS, result=layout.boolean(),
)
CODECS.register(
    TRADER_PROGRAM, 1, _PROC_MASK_TYPE,
    args=_NAME_ARGS, result=layout.boolean(),
)
CODECS.register(
    TRADER_PROGRAM, 1, _PROC_LIST_TYPES,
    args=layout.struct(), result=layout.seq(layout.string()),
)
CODECS.register(TRADER_PROGRAM, 1, _PROC_EXPORT, result=layout.string())
CODECS.register(TRADER_PROGRAM, 1, _PROC_IMPORT, result=layout.seq(OFFER_LAYOUT))
CODECS.register(TRADER_PROGRAM, 1, _PROC_LIST_OFFERS, result=layout.seq(OFFER_LAYOUT))


@dataclass
class ImportRequest:
    """An importer's query (step 2 of Fig. 1)."""

    service_type: str
    constraint: str = ""
    preference: str = ""
    max_matches: int = 0  # 0 = unlimited
    structural: bool = False  # also match structurally conforming types
    hop_limit: int = 0  # 0 = this trader only
    visited: List[str] = field(default_factory=list)

    def to_wire(self) -> Dict[str, Any]:
        return {
            "service_type": self.service_type,
            "constraint": self.constraint,
            "preference": self.preference,
            "max_matches": self.max_matches,
            "structural": self.structural,
            "hop_limit": self.hop_limit,
            "visited": list(self.visited),
        }

    @classmethod
    def from_wire(cls, data: Dict[str, Any]) -> "ImportRequest":
        return cls(
            service_type=data["service_type"],
            constraint=data.get("constraint", ""),
            preference=data.get("preference", ""),
            max_matches=data.get("max_matches", 0),
            structural=data.get("structural", False),
            hop_limit=data.get("hop_limit", 0),
            visited=list(data.get("visited", [])),
        )

    def to_raw_wire(self) -> Dict[str, Any]:
        """The forwarded form asking for *every* match, unranked: whoever
        gathers the answers (federating trader, shard router) ranks them."""
        return {**self.to_wire(), "preference": "", "max_matches": 0}


@dataclass(frozen=True)
class ImportPlan:
    """What one import means, decided once (:func:`plan_import`) for
    every read path — :meth:`LocalTrader.import_` and the shard router."""

    constraint: Constraint
    preference: Preference
    type_names: Tuple[str, ...]  # canonical order: the major tie-break key
    limit: int  # 0 = unbounded

    @property
    def partition_top_k(self) -> bool:
        """May a partition answer with only its own top-``limit``?

        Yes when bounded under a deterministic preference: each is a
        total order whose ties break on the canonical candidate order,
        and a partition's candidate order is the global one restricted
        to it — so the global top-K lies inside the union of the local
        top-Ks and re-ranking that union is exact.  ``random`` (rng over
        the *full* match set) and unbounded imports gather raw matches.
        """
        return self.limit > 0 and self.preference.kind != "random"

    @property
    def prefix_suffices(self) -> bool:
        """Under ``first`` rank order *is* candidate order: the answer is
        the first ``limit`` matches, whatever comes after them."""
        return self.limit > 0 and self.preference.kind == "first"


def plan_import(request: ImportRequest, types: TypeManager) -> ImportPlan:
    """Parse and expand ``request``; raises ``ConstraintSyntaxError`` /
    ``UnknownServiceType`` before any offer is examined or shard asked."""
    return ImportPlan(
        parse_constraint(request.constraint),
        parse_preference(request.preference),
        tuple(types.matching_types(request.service_type, structural=request.structural)),
        request.max_matches,
    )


def rank(
    offers: Iterable[ServiceOffer], preference: Preference, limit: int, rng: random.Random
) -> List[ServiceOffer]:
    """Dedup → order → truncate, over ``offers`` in candidate order: the
    first copy of an offer id wins (federation diamonds), ties keep
    candidate order, ``limit > 0`` keeps the best ``limit``."""
    unique: Dict[str, ServiceOffer] = {}
    for offer in offers:
        unique.setdefault(offer.offer_id, offer)
    ordered = preference.apply(list(unique.values()), rng)
    return ordered[:limit] if limit > 0 else ordered


class LocalTrader:
    """The trader's logic, independent of any transport."""

    def __init__(
        self,
        trader_id: str = "trader",
        type_manager: Optional[TypeManager] = None,
        seed: int = 0,
        dynamic_evaluator=None,
        fanout_workers: int = DEFAULT_FANOUT_WORKERS,
        clock: Optional[Clock] = None,
        offer_prefix: Optional[str] = None,
        range_index: bool = True,
    ) -> None:
        self.trader_id = trader_id
        self.types = type_manager or TypeManager()
        # ``offer_prefix`` decouples the minted offer-id namespace from
        # the trader's identity: shards of one logical trader share the
        # router's prefix so the ids they mint are indistinguishable from
        # a single trader's, while metrics stay keyed by trader_id.
        self.offers = OfferStore(
            prefix=offer_prefix or trader_id, range_index=range_index
        )
        self.links: Dict[str, TraderLink] = {}
        self.rng = random.Random(seed)
        # resolves dynamic-property markers at import time (ODP-style
        # late-bound attributes); None = dynamic properties never match
        self.dynamic_evaluator = dynamic_evaluator
        # A federated sweep keeps up to ``fanout_workers`` remote link
        # forwards in flight; ``clock`` feeds deadline splitting and the
        # per-link spans.  None freezes time at each import's ``now`` —
        # right for virtual-time tests, where budgets must not tick
        # between forwards; networked traders pass their transport clock.
        self.fanout_workers = fanout_workers
        self.clock = clock
        self.exports_accepted = 0
        self.imports_served = 0

    # -- management interface ------------------------------------------------

    def add_type(self, service_type: ServiceType, now: float = 0.0) -> None:
        self.types.add(service_type, now)

    def remove_type(self, name: str) -> bool:
        return self.types.remove(name)

    def mask_type(self, name: str) -> None:
        self.types.mask(name)

    # -- exporter interface (step 1 of Fig. 1) ---------------------------------

    def export(
        self,
        service_type: str,
        ref: Union[ServiceRef, Dict[str, Any]],
        properties: Dict[str, Any],
        now: float = 0.0,
        lease_seconds: Optional[float] = None,
    ) -> str:
        """Register a service offer; returns the offer id.

        ``lease_seconds`` grants a liveness lease: the offer stops
        matching at ``now + lease_seconds`` unless the exporter refreshes
        it via :meth:`renew` (the RENEW wire operation — service runtimes
        heartbeat it).  ``None`` keeps the historical behaviour: the
        offer lives until withdrawn.
        """
        declared = self.types.get(service_type)
        checked = declared.check_properties(properties)
        ref_wire = ref.to_wire() if isinstance(ref, ServiceRef) else dict(ref)
        # Stamps are floats whatever the exporter's clock or lease spelling,
        # so every offer fits the compiled record (``OFFER_LAYOUT``).
        now = float(now)
        if lease_seconds is not None:
            lease_seconds = float(lease_seconds)
        offer = ServiceOffer(
            offer_id=self.offers.new_offer_id(service_type),
            service_type=service_type,
            ref=ref_wire,
            properties=checked,
            exported_at=now,
            expires_at=None if lease_seconds is None else now + lease_seconds,
            lease_seconds=lease_seconds,
        )
        self.offers.add(offer)
        self.exports_accepted += 1
        self._gauge_live_offers()
        return offer.offer_id

    def renew(self, offer_id: str, now: float = 0.0) -> Optional[float]:
        """Refresh an offer's lease; returns the new ``expires_at``.

        Renewing a lease that lapsed but was not yet swept revives the
        offer — the grace a slow heartbeat gets before
        :meth:`expire_offers` makes the eviction final.  Renewing an
        offer exported without a lease is a no-op (returns ``None``).
        Raises :class:`~repro.trader.errors.OfferNotFound` once the offer
        is withdrawn or swept, which tells the exporter to re-export.
        """
        offer = self.offers.get(offer_id)
        expires_at = offer.renew(now)
        METRICS.inc("trader.offers.renewed", (self.trader_id,))
        return expires_at

    def expire_offers(
        self,
        now: float,
        only: Optional[Iterable[str]] = None,
        spare: Collection[str] = (),
    ) -> int:
        """Sweep lease-expired offers out of the store; returns the count.

        Matching already excludes expired offers lazily — the sweep is
        about memory and index hygiene: evicted offers leave the equality
        index as well, so a dead fleet stops occupying candidate buckets.
        ``only`` narrows the sweep to those service types; ``spare``
        exempts types (a shard shields the ones it is mid-absorbing).
        """
        pool = self.offers.all() if only is None else self.offers.of_types(only)
        expired = [
            o.offer_id
            for o in pool
            if o.service_type not in spare and o.expired(now)
        ]
        for offer_id in expired:
            self.offers.remove(offer_id)
        if expired:
            METRICS.inc(
                "trader.offers.expired", (self.trader_id, "swept"), amount=len(expired)
            )
            self._gauge_live_offers()
            if LOG.active:
                for offer_id in expired:
                    self._log_lease_expired(offer_id, now, "swept")
        return len(expired)

    def withdraw(self, offer_id: str) -> ServiceOffer:
        offer = self.offers.remove(offer_id)
        self._gauge_live_offers()
        return offer

    def _gauge_live_offers(self) -> None:
        """Keep the live-offer gauge current for the STATS snapshot."""
        METRICS.set_gauge("trader.offers.live", len(self.offers), (self.trader_id,))

    def modify(self, offer_id: str, properties: Dict[str, Any]) -> ServiceOffer:
        offer = self.offers.get(offer_id)
        declared = self.types.get(offer.service_type)
        checked = declared.check_properties(properties)
        return self.offers.replace_properties(offer_id, checked)

    # -- importer interface (steps 2-3 of Fig. 1) -------------------------------

    def import_(
        self,
        request: ImportRequest,
        now: float = 0.0,
        ctx: Optional[CallContext] = None,
    ) -> List[ServiceOffer]:
        """Match offers; forward to linked traders within the hop budget.

        One pipeline (DESIGN.md §6d): :func:`plan_import`, the access
        path chosen below, :meth:`_matching`, :func:`rank`.

        The hop budget and visited scope live on the
        :class:`~repro.context.CallContext`; the request's legacy
        ``hop_limit``/``visited`` fields are folded into the context when
        no explicit budget was set (the compatibility shim).  Without an
        explicit ``ctx`` the ambient request context — installed by the
        RPC server around the IMPORT handler — is used, so federated
        queries share one budget end to end.
        """
        ctx = self._import_context(request, ctx)
        self.imports_served += 1
        METRICS.inc("trader.imports", (self.trader_id,))
        plan = plan_import(request, self.types)
        constraint, preference = plan.constraint, plan.preference
        # The access path.  A bounded import ranked by one bare property
        # walks the sorted index in rank order and stops at the limit —
        # sound only while nothing can re-rank the walk: no peer offers to
        # merge in, no dynamic marker hiding the property (``can_walk``).
        prop = preference.key_property
        if (
            plan.limit > 0
            and prop is not None
            and not self.links
            and self.offers.can_walk(plan.type_names, prop)
        ):
            METRICS.inc("trader.ordered_scans", (self.trader_id,))
            walk = self.offers.ordered_by(plan.type_names, prop, preference.kind == "max")
            return self._matching(walk, constraint, now, stop_after=plan.limit)
        # Otherwise every candidate the pinned conjuncts leave: equalities
        # through the equality index, ceilings and floors through the
        # sorted index, neither = the full type scan.  Under ``first`` the
        # answer is the first ``limit`` matches, so the loop stops there.
        candidates = self.offers.candidates(
            plan.type_names, constraint.equality_conjuncts, constraint.range_conjuncts
        )
        stop_after = plan.limit if plan.prefix_suffices else 0
        matched = self._matching(candidates, constraint, now, stop_after)
        # Local offers merge ahead of remote ones, so when a prefix
        # suffices peers only fill what is still short; ranking
        # preferences see the full federated candidate set.
        needed = plan.limit - len(matched) if plan.prefix_suffices else 0
        if needed > 0 or not plan.prefix_suffices:
            matched.extend(self._federated_matches(request, ctx, now, needed=needed))
        return rank(matched, preference, plan.limit, self.rng)

    def _matching(
        self, offers: Iterable[ServiceOffer], constraint: Constraint, now: float, stop_after: int
    ) -> List[ServiceOffer]:
        """The matching loop: the live offers among ``offers`` that satisfy
        ``constraint``, in the order given, ending at ``stop_after``
        matches (0 = examine every offer).  Offers after the stop are
        never examined, so ``trader.offers.expired{lazy}`` counts only
        the lapsed leases met before it."""
        evaluator = self.dynamic_evaluator
        holds = constraint.evaluate
        matched: List[ServiceOffer] = []
        for offer in offers:
            if offer.expired(now):
                # Lazy exclusion: a lapsed lease stops matching before any
                # sweep runs, so importers never see a dead exporter.
                METRICS.inc("trader.offers.expired", (self.trader_id, "lazy"))
                if LOG.active:
                    self._log_lease_expired(offer.offer_id, now, "lazy")
                continue
            resolved = resolve_properties(offer.properties, evaluator)
            if holds(resolved):
                if resolved is not offer.properties:
                    # importers see the fresh values, the store keeps markers
                    offer = replace(offer, properties=resolved)
                matched.append(offer)
                if len(matched) == stop_after:
                    break
        return matched

    def _log_lease_expired(self, offer_id: str, now: float, mode: str) -> None:
        LOG.event(
            "trader.lease_expired",
            level="warning",
            at=now,
            trader=self.trader_id,
            offer=offer_id,
            mode=mode,
        )

    def select_best(
        self,
        request: ImportRequest,
        now: float = 0.0,
        ctx: Optional[CallContext] = None,
    ) -> Optional[ServiceOffer]:
        """The "best possible" single offer as of ``now``, or None."""
        offers = self.import_(replace(request, max_matches=1), now, ctx)
        return offers[0] if offers else None

    def import_wire(
        self,
        request_wire: Dict[str, Any],
        now: float = 0.0,
        ctx: Optional[CallContext] = None,
    ) -> List[Dict[str, Any]]:
        """Wire-dict façade used by RPC handlers and federation links."""
        try:
            offers = self.import_(ImportRequest.from_wire(request_wire), now, ctx)
        except UnknownServiceType:
            # A peer may ask about types this trader never standardised.
            # Every other fault — a malformed constraint or preference —
            # propagates: the RPC layer answers it as a typed REMOTE_FAULT.
            return []
        return [offer.to_wire() for offer in offers]

    def _import_context(
        self, request: ImportRequest, ctx: Optional[CallContext]
    ) -> CallContext:
        """Fold the legacy wire fields into the governing context."""
        if ctx is None:
            ctx = current_context()
        if ctx is None:
            return CallContext.background(
                hops=request.hop_limit, visited=tuple(request.visited)
            )
        hops = ctx.hops if ctx.hops is not None else request.hop_limit
        merged = tuple(dict.fromkeys(tuple(request.visited) + ctx.visited))
        return ctx.derive(hops=hops, visited=merged)

    def _federated_matches(
        self, request: ImportRequest, ctx: CallContext, now: float, needed: int = 0
    ) -> List[ServiceOffer]:
        """Sweep the federation links (:func:`fan_out`); ``needed > 0``
        allows early exit."""
        if not self.links:
            return []
        if not ctx.can_hop():
            # Links exist but the budget is spent: the query stops
            # travelling here.  Counted — hop exhaustion is the federated
            # search's principal truncation signal.
            METRICS.inc("trader.hop_exhausted", (self.trader_id,))
            return []
        if ctx.seen(self.trader_id):
            return []
        child = ctx.hop(self.trader_id)
        forwarded = request.to_raw_wire()  # peers return raw matches; we order
        if child.hops is None:
            # Unbounded budget: let each link apply its own max_hops cap.
            forwarded.pop("hop_limit", None)
        else:
            forwarded["hop_limit"] = child.hops
        forwarded["visited"] = list(child.visited)
        wire_lists = fan_out(
            list(self.links.values()), forwarded, child,
            self.clock or (lambda: now),
            workers=self.fanout_workers, needed=needed,
        )
        return self._offers_from(wire_lists)

    @staticmethod
    def _offers_from(
        wire_lists: List[Optional[List[Dict[str, Any]]]]
    ) -> List[ServiceOffer]:
        return [
            ServiceOffer.from_wire(item)
            for wires in wire_lists
            if wires
            for item in wires
        ]

    # -- federation ------------------------------------------------------------

    def link(self, link: TraderLink) -> None:
        self.links[link.name] = link

    def link_local(self, peer: "LocalTrader") -> None:
        """Convenience: federate with a co-located trader instance."""
        self.link(TraderLink(peer.trader_id, peer.import_wire))

    def unlink(self, name: str) -> bool:
        return self.links.pop(name, None) is not None


class TraderService:
    """RPC wrapper exposing a :class:`LocalTrader` (the Fig. 6 box)."""

    def __init__(
        self,
        server: RpcServer,
        trader: Optional[LocalTrader] = None,
        client: Optional[RpcClient] = None,
        now=None,
    ) -> None:
        self.trader = trader or LocalTrader()
        self._client = client
        self._now = now or server.transport.now
        if client is not None and self.trader.dynamic_evaluator is None:
            from repro.trader.dynamic import BindingEvaluator

            self.trader.dynamic_evaluator = BindingEvaluator(client)
        if client is not None and self.trader.clock is None:
            self.trader.clock = client.transport.now
        program = RpcProgram(TRADER_PROGRAM, 1, "trader")
        program.register(_PROC_EXPORT, self._export, "export")
        program.register(_PROC_WITHDRAW, self._withdraw, "withdraw")
        program.register(_PROC_MODIFY, self._modify, "modify")
        program.register(_PROC_IMPORT, self._import, "import")
        program.register(_PROC_ADD_TYPE, self._add_type, "add_type")
        program.register(_PROC_REMOVE_TYPE, self._remove_type, "remove_type")
        program.register(_PROC_LIST_TYPES, self._list_types, "list_types")
        program.register(_PROC_GET_TYPE, self._get_type, "get_type")
        program.register(_PROC_LIST_OFFERS, self._list_offers, "list_offers")
        program.register(_PROC_MASK_TYPE, self._mask_type, "mask_type")
        program.register(_PROC_RENEW, self._renew, "renew")
        server.serve(program)
        self.address = server.address

    def link_to(self, peer_address: Address, name: Optional[str] = None) -> None:
        """Federate with a remote trader over RPC."""
        if self._client is None:
            raise TraderError("TraderService needs an RpcClient to federate")
        link_name = name or f"link:{peer_address.host}:{peer_address.port}"
        self.trader.link(
            TraderLink(link_name, client=self._client, address=peer_address)
        )

    # -- handlers ---------------------------------------------------------------

    def _export(self, args) -> str:
        lease_seconds = args.get("lease_seconds")
        if lease_seconds is None:
            lease_seconds = args.get("lifetime")  # the pre-lease wire spelling
        return self.trader.export(
            args["service_type"], args["ref"], args["properties"], self._now(),
            lease_seconds,
        )

    def _renew(self, args) -> Optional[float]:
        return self.trader.renew(args["offer_id"], self._now())

    def _withdraw(self, args) -> bool:
        self.trader.withdraw(args["offer_id"])
        return True

    def _modify(self, args) -> bool:
        self.trader.modify(args["offer_id"], args["properties"])
        return True

    def _import(self, args) -> List[Dict[str, Any]]:
        return self.trader.import_wire(args, self._now())

    def _add_type(self, args) -> bool:
        self.trader.add_type(ServiceType.from_wire(args["type"]), self._now())
        return True

    def _remove_type(self, args) -> bool:
        return self.trader.remove_type(args["name"])

    def _mask_type(self, args) -> bool:
        self.trader.mask_type(args["name"])
        return True

    def _list_types(self, args) -> List[str]:
        return self.trader.types.names()

    def _get_type(self, args) -> Dict[str, Any]:
        return self.trader.types.get(args["name"]).to_wire()

    def _list_offers(self, args) -> List[Dict[str, Any]]:
        return [offer.to_wire() for offer in self.trader.offers.all()]


class TraderClient:
    """Importer/exporter stub for a remote trader."""

    def __init__(self, client: RpcClient, address: Address) -> None:
        self._client = client
        self.address = address

    def export(
        self,
        service_type: str,
        ref: Union[ServiceRef, Dict[str, Any]],
        properties: Dict[str, Any],
        lease_seconds: Optional[float] = None,
    ) -> str:
        ref_wire = ref.to_wire() if isinstance(ref, ServiceRef) else ref
        return self._call(
            _PROC_EXPORT,
            {
                "service_type": service_type,
                "ref": ref_wire,
                "properties": properties,
                "lease_seconds": lease_seconds,
            },
        )

    def renew(self, offer_id: str) -> Optional[float]:
        """Refresh an offer's liveness lease (the RENEW heartbeat)."""
        return self._call(_PROC_RENEW, {"offer_id": offer_id})

    def withdraw(self, offer_id: str) -> bool:
        return self._call(_PROC_WITHDRAW, {"offer_id": offer_id})

    def modify(self, offer_id: str, properties: Dict[str, Any]) -> bool:
        return self._call(_PROC_MODIFY, {"offer_id": offer_id, "properties": properties})

    def import_(
        self,
        request: Union[ImportRequest, Dict[str, Any]],
        ctx: Optional[CallContext] = None,
    ) -> List[ServiceOffer]:
        wire = request.to_wire() if isinstance(request, ImportRequest) else request
        results = self._call(_PROC_IMPORT, wire, ctx)
        return [ServiceOffer.from_wire(item) for item in results]

    def select_best(
        self, request: ImportRequest, ctx: Optional[CallContext] = None
    ) -> Optional[ServiceOffer]:
        offers = self.import_(replace(request, max_matches=1), ctx)
        return offers[0] if offers else None

    def add_type(self, service_type: ServiceType) -> bool:
        return self._call(_PROC_ADD_TYPE, {"type": service_type.to_wire()})

    def remove_type(self, name: str) -> bool:
        return self._call(_PROC_REMOVE_TYPE, {"name": name})

    def mask_type(self, name: str) -> bool:
        return self._call(_PROC_MASK_TYPE, {"name": name})

    def list_types(self) -> List[str]:
        return self._call(_PROC_LIST_TYPES, {})

    def get_type(self, name: str) -> ServiceType:
        return ServiceType.from_wire(self._call(_PROC_GET_TYPE, {"name": name}))

    def list_offers(self) -> List[ServiceOffer]:
        return [ServiceOffer.from_wire(item) for item in self._call(_PROC_LIST_OFFERS, {})]

    def _call(
        self, proc: int, args, ctx: Optional[CallContext] = None, prog: int = TRADER_PROGRAM
    ) -> Any:
        """A remote :class:`TraderError` raises as itself, as a local one does."""
        try:
            if ctx is None:
                return self._client.call(self.address, prog, 1, proc, args)
            with ctx.span("trader", f"proc {proc}", self._client.transport.now):
                return self._client.call(self.address, prog, 1, proc, args, context=ctx)
        except RemoteFault as fault:
            fault.reraise_as(TraderError)
