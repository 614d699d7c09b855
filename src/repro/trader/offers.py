"""Service offers and the trader's offer store."""

from __future__ import annotations

import itertools
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from heapq import merge as _heap_merge
from types import MappingProxyType
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Set, Tuple

from repro.naming.refs import ServiceRef
from repro.sidl import layout
from repro.telemetry.metrics import METRICS
from repro.trader.dynamic import is_dynamic
from repro.trader.errors import OfferNotFound


@dataclass
class ServiceOffer:
    """One exported offer: a reference plus characterising properties.

    ``expires_at`` implements offer lifetimes: an expired offer never
    matches an import and is reaped by the trader's expiry sweep.  ``None``
    means the offer lives until withdrawn.

    ``lease_seconds`` is the liveness lease granted at export: exporters
    refresh it via RENEW (the service runtime heartbeats it), and a lease
    that lapses — because the exporter crashed or lost connectivity —
    takes the offer out of matching without any explicit withdraw.

    Once in an :class:`OfferStore`, ``properties`` is a read-only view of
    a dict the store owns; only the store's MODIFY path replaces it.
    """

    offer_id: str
    service_type: str
    ref: Dict[str, Any]  # ServiceRef wire form (kept marshallable)
    properties: Mapping[str, Any] = field(default_factory=dict)
    exported_at: float = 0.0
    expires_at: Optional[float] = None
    lease_seconds: Optional[float] = None

    def service_ref(self) -> ServiceRef:
        return ServiceRef.from_wire(self.ref)

    def expired(self, now: float) -> bool:
        return self.expires_at is not None and now >= self.expires_at

    def renew(self, now: float) -> Optional[float]:
        """Refresh the lease: a fresh ``lease_seconds`` of life from ``now``.

        A no-op for offers exported without a lease (they never expire).
        Returns the new ``expires_at``.
        """
        if self.lease_seconds is not None:
            self.expires_at = now + self.lease_seconds
        return self.expires_at

    def to_wire(self) -> Dict[str, Any]:
        return {
            "offer_id": self.offer_id,
            "service_type": self.service_type,
            "ref": dict(self.ref),
            "properties": dict(self.properties),
            "exported_at": self.exported_at,
            "expires_at": self.expires_at,
            "lease_seconds": self.lease_seconds,
        }

    @classmethod
    def from_wire(cls, data: Dict[str, Any]) -> "ServiceOffer":
        return cls(
            offer_id=data["offer_id"],
            service_type=data["service_type"],
            ref=data["ref"],
            properties=data.get("properties", {}),
            exported_at=data.get("exported_at", 0.0),
            expires_at=data.get("expires_at"),
            lease_seconds=data.get("lease_seconds"),
        )


#: The compiled wire layout of :meth:`ServiceOffer.to_wire`, key for key:
#: an IMPORT or LIST_OFFERS reply is a ``seq`` of these.
OFFER_LAYOUT = layout.struct(
    offer_id=layout.string(),
    service_type=layout.string(),
    ref=layout.struct(**{
        "__cosm__": layout.string(),
        "service_id": layout.string(),
        "name": layout.string(),
        "host": layout.string(),
        "port": layout.i64(),
        "prog": layout.i64(),
        "vers": layout.i64(),
    }),
    properties=layout.any_value(),
    exported_at=layout.f64(),
    expires_at=layout.optional(layout.f64()),
    lease_seconds=layout.optional(layout.f64()),
)


def _indexable(value: Any) -> bool:
    """Static, hashable values go in the equality index; the rest cannot.

    A dynamic-property marker's stored form is a dict, and its *resolved*
    value — the one constraints see — is unknown until import time, so
    such offers must always survive index pre-filtering.
    """
    if is_dynamic(value):
        return False
    try:
        hash(value)
    except TypeError:
        return False
    return True


def _range_class(value: Any) -> Optional[str]:
    """Which sorted-index value class ``value`` belongs to, if any.

    Numbers (bools included — they *are* ints under comparison) share one
    total order; strings another.  Everything else — dynamic markers,
    containers — has no order a range conjunct could exploit: comparing
    such a value against a numeric or string literal raises ``TypeError``,
    which constraint semantics turn into ``False``, so leaving those
    offers out of a range pre-filter is *correct*, not just convenient.
    Dynamic markers are the one exception (their import-time value is
    unknown) and they are re-admitted via the unindexed fallback bucket.
    """
    if isinstance(value, bool) or isinstance(value, (int, float)):
        # NaN has no order: every comparison with it is false, and inside
        # the sorted run it would misplace every bisect cut.
        return "num" if value == value else None
    if isinstance(value, str):
        return "str"
    return None


class _SortedValues:
    """One sorted run of ``(value, seq, offer_id)`` plus a write overlay.

    Keeping the run exactly sorted on every insert would cost an O(n)
    memmove per export at million-offer scale, so writes land in a small
    sorted ``pending`` list and removals in a ``dead`` tombstone set (the
    two never share an entry).  Only writes fold the overlay into the
    run, once either side outgrows a threshold geometric in the run
    length, so a bulk load compacts O(log n) times.  Reads never fold:
    range lookups bisect the run and the overlay, and an ordered walk
    merges the two lazily, so a bounded walk costs O(K) however recent
    the last write.  A walk must be consumed before the next write.
    """

    #: Floor of the overlay bound: a write folds once ``pending`` or
    #: ``dead`` exceeds ``max(_FOLD_FLOOR, len(entries) >> 3)``, so bulk
    #: loads stay amortised-linear while the overlay stays small.
    _FOLD_FLOOR = 512

    __slots__ = ("entries", "pending", "dead")

    def __init__(self) -> None:
        self.entries: List[Tuple[Any, int, str]] = []
        self.pending: List[Tuple[Any, int, str]] = []
        self.dead: Set[Tuple[Any, int, str]] = set()

    def add(self, value: Any, seq: int, offer_id: str) -> None:
        entry = (value, seq, offer_id)
        # Re-adding an entry that was just tombstoned (modify back to the
        # same value) must cancel the tombstone, not duplicate the entry.
        if entry in self.dead:
            self.dead.discard(entry)
        else:
            insort(self.pending, entry)
        self._bound()

    def discard(self, value: Any, seq: int, offer_id: str) -> None:
        entry = (value, seq, offer_id)
        pending = self.pending
        at = bisect_left(pending, entry)
        if at < len(pending) and pending[at] == entry:
            del pending[at]
        else:
            self.dead.add(entry)
        self._bound()

    def _bound(self) -> None:
        limit = max(self._FOLD_FLOOR, len(self.entries) >> 3)
        if len(self.pending) > limit or len(self.dead) > limit:
            self.compact()

    def compact(self) -> None:
        if self.dead:
            dead = self.dead
            self.entries = [entry for entry in self.entries if entry not in dead]
            self.dead = set()
        if self.pending:
            # Timsort merges the two sorted runs: O(n + k), not a full sort.
            self.entries.extend(self.pending)
            self.entries.sort()
            self.pending = []

    def ids_matching(self, operator: str, literal: Any) -> Set[str]:
        """Live offer ids whose indexed value satisfies ``value OP literal``."""
        dead = self.dead
        matched: Set[str] = set()
        for run in (self.entries, self.pending):
            # ``(x,)`` sorts before every ``(x, seq, id)`` and ``(x, inf)``
            # after (seq is always an int), giving clean half-open cuts.
            if operator == "<":
                start, stop = 0, bisect_left(run, (literal,))
            elif operator == "<=":
                start, stop = 0, bisect_left(run, (literal, float("inf")))
            elif operator == ">":
                start, stop = bisect_left(run, (literal, float("inf"))), len(run)
            else:  # ">="
                start, stop = bisect_left(run, (literal,)), len(run)
            matched.update(entry[2] for entry in run[start:stop] if entry not in dead)
        return matched

    def walk(self, reverse: bool = False) -> Iterator[Tuple[Any, int, str]]:
        """Live entries ordered by ``(value, seq)``, merged lazily: a
        caller that stops after K entries pays for K plus the tombstones
        it skipped, and nothing is folded.

        For ``reverse`` the values descend but *ties keep ascending
        seq* — exactly the order a ``max`` preference ranks candidates
        (stable sort on the negated value preserves insertion order).
        """
        order = _descending if reverse else iter
        run, dead = order(self.entries), self.dead
        if dead:
            run = (entry for entry in run if entry not in dead)
        if not self.pending:
            return run
        # Reversed, both streams descend by ``(value, -seq)``.
        key = (lambda entry: (entry[0], -entry[1])) if reverse else None
        return _heap_merge(run, order(self.pending), key=key, reverse=reverse)


def _descending(run: List[Tuple[Any, int, str]]) -> Iterator[Tuple[Any, int, str]]:
    """``run`` by descending value, each tie in its ascending seq order."""
    upper = len(run)
    while upper:
        lower = upper - 1
        value = run[lower][0]
        while lower and run[lower - 1][0] == value:
            lower -= 1
        yield from run[lower:upper]
        upper = lower


def parse_offer_id(offer_id: str, prefix: str) -> Optional[Tuple[str, int]]:
    """``prefix:type:n`` → ``(type, n)``; ``None`` for anything
    :meth:`OfferStore.new_offer_id` could not have minted under ``prefix``.

    The number is cut from the right, so type names may contain ``:``.
    """
    head, _, number = offer_id.rpartition(":")
    if number.isdecimal() and head.startswith(prefix + ":") and len(head) > len(prefix) + 1:
        return head[len(prefix) + 1 :], int(number)
    return None


class OfferStore:
    """Offers indexed by id, by service type, and by property equality.

    The equality index maps ``(service_type, property) -> value -> ids``
    so an import whose constraint pins ``Prop == literal`` can pre-filter
    candidates without evaluating the constraint against every offer.
    Values that cannot be indexed (unhashable, or dynamic-property
    markers whose import-time value is unknown) land in a per-property
    fallback set that every index lookup includes.

    The store is the only writer of an offer's properties: :meth:`add`
    and :meth:`replace_properties` keep a read-only view over a private
    copy, so what :meth:`_index` put where can always be derived again
    from the offer itself.
    """

    def __init__(self, prefix: str = "offer", range_index: bool = True) -> None:
        self._prefix = prefix
        self._by_id: Dict[str, ServiceOffer] = {}
        self._by_type: Dict[str, Dict[str, ServiceOffer]] = {}
        self._eq_index: Dict[Tuple[str, str], Dict[Any, Set[str]]] = {}
        self._unindexed: Dict[Tuple[str, str], Set[str]] = {}
        self._range_index: Dict[Tuple[str, str], Dict[str, _SortedValues]] = {}
        self._range_enabled = range_index
        # Store-wide insertion sequence, stable across property modifies
        # and idempotent re-adds: within a type it is ``_by_type``'s
        # order, so index probes and sorted-index walks both come out in
        # exactly candidate order.
        self._order: Dict[str, int] = {}
        self._order_counter = itertools.count(1)
        self._counters: Dict[str, int] = {}

    @property
    def prefix(self) -> str:
        return self._prefix

    def new_offer_id(self, service_type: str) -> str:
        """Mint ``prefix:type:n`` with a counter *per service type*.

        Per-type numbering makes the id a pure function of the export
        sequence for that type — a sharded deployment that partitions by
        type then mints the same ids a single trader would, which is what
        lets parity tests compare outcome maps verbatim.
        """
        count = self._counters.get(service_type, 0)
        # skip ids already present (e.g. after a snapshot restore)
        while True:
            count += 1
            candidate = f"{self._prefix}:{service_type}:{count}"
            if candidate not in self._by_id:
                self._counters[service_type] = count
                return candidate

    def minted(self, service_type: str) -> int:
        """Highest id number ever minted (or seen) for ``service_type``."""
        return self._counters.get(service_type, 0)

    def burn_to(self, service_type: str, count: int) -> None:
        """Advance the per-type counter to at least ``count``.

        Ids up to ``count`` are spent even if no offer carrying them
        survives — a migration recipient burns the donor's counter at
        begin so it can never re-mint an id the donor already used,
        even when every such offer was withdrawn before the copy.
        """
        if count > self._counters.get(service_type, 0):
            self._counters[service_type] = count

    def add(self, offer: ServiceOffer) -> None:
        # Offers arrive without a local mint on replicas, recipients and
        # restores; the counter must reflect the highest id *ever seen*,
        # not the ids present — a promoted replica that re-minted a
        # withdrawn offer's id would fork from the id sequence an
        # unsharded trader produces.
        minted = parse_offer_id(offer.offer_id, self._prefix)
        if minted is not None and minted[0] == offer.service_type:
            self.burn_to(offer.service_type, minted[1])
        existing = self._by_id.get(offer.offer_id)
        if existing is not None:
            # Idempotent re-add (replication retry, snapshot double-apply):
            # drop the old generation's index entries first.
            self._unindex(existing)
            if existing.service_type != offer.service_type:
                # It joins the new type's insertion order at the end.
                self._drop_from_type(existing)
                del self._order[offer.offer_id]
        # A copy, not just a view: ``from_wire`` aliases the caller's dict.
        offer.properties = MappingProxyType(dict(offer.properties))
        self._by_id[offer.offer_id] = offer
        self._by_type.setdefault(offer.service_type, {})[offer.offer_id] = offer
        self._index(offer)

    def get(self, offer_id: str) -> ServiceOffer:
        offer = self._by_id.get(offer_id)
        if offer is None:
            raise OfferNotFound(f"no offer {offer_id!r}")
        return offer

    def remove(self, offer_id: str) -> ServiceOffer:
        offer = self.get(offer_id)
        del self._by_id[offer_id]
        self._drop_from_type(offer)
        self._unindex(offer)
        del self._order[offer_id]
        return offer

    def _drop_from_type(self, offer: ServiceOffer) -> None:
        per_type = self._by_type.get(offer.service_type, {})
        per_type.pop(offer.offer_id, None)
        if not per_type:
            self._by_type.pop(offer.service_type, None)

    def replace_properties(self, offer_id: str, properties: Dict[str, Any]) -> ServiceOffer:
        offer = self.get(offer_id)
        self._unindex(offer)
        offer.properties = MappingProxyType(dict(properties))
        self._index(offer)
        return offer

    def of_types(self, type_names: Iterable[str]) -> List[ServiceOffer]:
        offers: List[ServiceOffer] = []
        for type_name in type_names:
            offers.extend(self._by_type.get(type_name, {}).values())
        return offers

    def candidates(
        self,
        type_names: Iterable[str],
        equalities: Iterable[Tuple[str, Any]],
        ranges: Iterable[Tuple[str, str, Any]] = (),
    ) -> List[ServiceOffer]:
        """Offers of ``type_names`` that can still satisfy the conjuncts.

        For each equality ``(property, literal)`` pair the index keeps
        only offers whose stored value equals the literal; for each range
        ``(property, operator, literal)`` triple the sorted index keeps
        only offers whose stored value satisfies the bound.  Both always
        re-admit offers whose stored value is unindexable (dynamic
        markers), since the import-time value may yet match.  A superset
        of the true matches: callers still run the full constraint, they
        just run it over far fewer offers.
        """
        equalities = list(equalities)
        ranges = list(ranges)
        if equalities:
            METRICS.inc("offers.index_hits", (self._prefix,))
            return self._filter(type_names, self._eq_bucket, equalities)
        if ranges and self._range_enabled:
            METRICS.inc("offers.range_hits", (self._prefix,))
            return self._filter(type_names, self._range_bucket, ranges)
        # No exploitable conjunct: the full per-type scan.  Counted, so
        # benchmark output can say *why* an import was fast or slow.
        METRICS.inc("offers.fallback_scans", (self._prefix,))
        return self.of_types(type_names)

    def _filter(self, type_names, bucket_for, conjuncts) -> List[ServiceOffer]:
        offers: List[ServiceOffer] = []
        for type_name in type_names:
            per_type = self._by_type.get(type_name)
            if not per_type:
                continue
            surviving: Optional[Set[str]] = None
            for conjunct in conjuncts:
                bucket = bucket_for(type_name, per_type, conjunct)
                surviving = bucket if surviving is None else surviving & bucket
                if not surviving:
                    break
            if surviving:
                # ``_order`` is the per-type insertion order ``_by_type``
                # keeps: sorting the bucket by it is O(bucket), not O(type).
                offers.extend(
                    per_type[offer_id]
                    for offer_id in sorted(surviving, key=self._order.__getitem__)
                )
        return offers

    def _eq_bucket(self, type_name, per_type, conjunct) -> Set[str]:
        prop, literal = conjunct
        bucket = set(self._unindexed.get((type_name, prop), ()))
        try:
            exact = self._eq_index.get((type_name, prop), {}).get(literal)
        except TypeError:  # unhashable literal: index can't help
            exact = set(per_type)
        if exact:
            bucket |= exact
        return bucket

    def _range_bucket(self, type_name, per_type, conjunct) -> Set[str]:
        prop, operator, literal = conjunct
        literal_class = _range_class(literal)
        if literal_class is None:  # e.g. list literal: index can't help
            return set(per_type)
        bucket = set(self._unindexed.get((type_name, prop), ()))
        sorted_values = self._range_index.get((type_name, prop), {}).get(literal_class)
        if sorted_values is not None:
            bucket |= sorted_values.ids_matching(operator, literal)
        return bucket

    def ordered_by(
        self, type_names: Iterable[str], prop: str, reverse: bool = False
    ) -> Iterator[ServiceOffer]:
        """Yield offers in exactly min/max-preference rank order.

        Offers with a numeric value for ``prop`` come first, ordered by
        ``(value, position)`` — position being the offer's index in the
        ``of_types`` candidate list — with values descending when
        ``reverse``; offers where the preference is undefined (missing
        property, non-numeric or NaN value) follow in candidate order,
        matching ``Preference.apply`` term for term.  Callers that only
        need the top-k stop early and skip sorting the whole candidate set.

        Only sound where :meth:`can_walk` says so.
        """
        type_names = list(type_names)

        def ranked(position: int, entries):
            # A function call binds this stream's own ``position``; a
            # generator expression in the loop would see the last one.
            for value, seq, offer_id in entries:
                yield (-value if reverse else value), position, seq, offer_id

        streams = []
        for position, type_name in enumerate(type_names):
            sorted_values = self._range_index.get((type_name, prop), {}).get("num")
            if sorted_values is not None:
                streams.append(ranked(position, sorted_values.walk(reverse)))
        for _value, _position, _seq, offer_id in _heap_merge(*streams):
            yield self._by_id[offer_id]
        # The tail is exactly what the walk did not yield.
        for type_name in type_names:
            for offer in self._by_type.get(type_name, {}).values():
                if _range_class(offer.properties.get(prop)) != "num":
                    yield offer

    def can_walk(self, type_names: Iterable[str], prop: str) -> bool:
        """May :meth:`ordered_by` rank these types by ``prop``?

        Needs the sorted index, and no offer of the types whose value for
        ``prop`` could not be indexed: a dynamic marker's resolved value
        could be numeric and re-rank the walk.
        """
        return self._range_enabled and not any(
            self._unindexed.get((type_name, prop)) for type_name in type_names
        )

    def all(self) -> List[ServiceOffer]:
        return list(self._by_id.values())

    def __len__(self) -> int:
        return len(self._by_id)

    def __contains__(self, offer_id: str) -> bool:
        return offer_id in self._by_id

    # -- index maintenance ---------------------------------------------------

    def _index(self, offer: ServiceOffer) -> None:
        offer_id = offer.offer_id
        seq = self._order.get(offer_id)
        if seq is None:
            seq = self._order[offer_id] = next(self._order_counter)
        for prop, value in offer.properties.items():
            key = (offer.service_type, prop)
            if _indexable(value):
                self._eq_index.setdefault(key, {}).setdefault(value, set()).add(
                    offer_id
                )
            else:
                self._unindexed.setdefault(key, set()).add(offer_id)
            if self._range_enabled:
                value_class = _range_class(value)
                if value_class is not None:
                    per_class = self._range_index.setdefault(key, {})
                    sorted_values = per_class.get(value_class)
                    if sorted_values is None:
                        sorted_values = per_class[value_class] = _SortedValues()
                    sorted_values.add(value, seq, offer_id)

    def _unindex(self, offer: ServiceOffer) -> None:
        # The mirror of _index over the same frozen properties.  It must
        # run while ``_order`` still holds the id (remove() and add()'s
        # re-add path call it first): the sorted entries carry that seq.
        offer_id = offer.offer_id
        seq = self._order[offer_id]
        for prop, value in offer.properties.items():
            key = (offer.service_type, prop)
            if _indexable(value):
                per_value = self._eq_index[key]
                ids = per_value[value]
                ids.discard(offer_id)
                if not ids:
                    del per_value[value]
                if not per_value:
                    del self._eq_index[key]
            else:
                ids = self._unindexed[key]
                ids.discard(offer_id)
                if not ids:
                    del self._unindexed[key]
            if self._range_enabled:
                value_class = _range_class(value)
                if value_class is not None:
                    self._range_index[key][value_class].discard(value, seq, offer_id)
