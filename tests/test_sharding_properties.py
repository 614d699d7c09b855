"""Property tests for the sharding substrate.

* **Rendezvous hashing** — placement is a pure function of (shard set,
  key): independent of insertion order and map history; every key lands
  on a live shard; growing the map by one shard moves keys *only onto
  the new shard*, shrinking it moves *only the removed shard's* keys —
  the minimal-disruption contract, stated exactly, not statistically.
* **Balance** — over 10k distinct names the fullest shard carries no
  more than 1.5× the emptiest (blake2b spreads; a seeded, deterministic
  check because the hash is keyless).
* **Range index** — for any offer population and any comparison
  constraint, a range-indexed trader and a linear-scanning trader
  (``range_index=False``) return byte-identical import results under
  every preference flavour: the index is an accelerator, never a filter
  with opinions — also across the leaves of a supertype when rank values
  tie, where a bounded answer is the prefix of the unbounded one.
* **Offer ids** — the one id parser inverts the one id minter for any
  prefix and type name (``:`` and digits included), and answers ``None``
  — never an exception — for anything the minter could not have made.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.naming.refs import ServiceRef
from repro.net.endpoints import Address
from repro.sidl.types import DOUBLE, InterfaceType, LONG, OperationType
from repro.trader.offers import OfferStore, parse_offer_id
from repro.trader.service_types import ServiceType
from repro.trader.sharding.hashing import ShardMap
from repro.trader.trader import ImportRequest, LocalTrader

# -- rendezvous placement ----------------------------------------------------

_shard_ids = st.lists(
    st.text(
        alphabet="abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1, max_size=12
    ),
    min_size=1,
    max_size=8,
    unique=True,
)
_keys = st.lists(st.text(min_size=1, max_size=24), min_size=1, max_size=40, unique=True)


@given(shards=_shard_ids, keys=_keys)
def test_placement_is_order_and_history_independent(shards, keys):
    forward = ShardMap(shards)
    backward = ShardMap(list(reversed(shards)))
    # A map that *arrived* at the same shard set through churn places
    # identically to one built from it directly.
    churned = ShardMap(shards).with_shard("transient").without_shard("transient")
    for key in keys:
        owner = forward.owner(key)
        assert owner in shards
        assert backward.owner(key) == owner
        assert churned.owner(key) == owner


@given(shards=_shard_ids, keys=_keys, new=st.text(min_size=1, max_size=12))
def test_adding_a_shard_moves_keys_only_onto_it(shards, keys, new):
    if new in shards:
        return
    before = ShardMap(shards)
    after = before.with_shard(new)
    assert after.version == before.version + 1
    for key in keys:
        if after.owner(key) != before.owner(key):
            assert after.owner(key) == new


@given(shards=_shard_ids, keys=_keys, victim_index=st.integers(0, 7))
def test_removing_a_shard_moves_only_its_keys(shards, keys, victim_index):
    if len(shards) < 2:
        return
    victim = shards[victim_index % len(shards)]
    before = ShardMap(shards)
    after = before.without_shard(victim)
    for key in keys:
        if before.owner(key) == victim:
            assert after.owner(key) != victim
        else:
            assert after.owner(key) == before.owner(key)


def test_owners_dedups_in_first_use_order():
    shard_map = ShardMap(["s0", "s1", "s2"])
    names = [f"svc-{n}" for n in range(30)]
    owners = shard_map.owners(names)
    assert len(set(owners)) == len(owners)  # each covering shard once
    assert set(owners) == {shard_map.owner(name) for name in names}
    first_use = list(dict.fromkeys(shard_map.owner(name) for name in names))
    assert owners == first_use


def test_ten_thousand_names_spread_within_1_5x():
    shard_map = ShardMap([f"s{n}" for n in range(4)])
    loads = {shard_id: 0 for shard_id in shard_map.shard_ids}
    for n in range(10_000):
        loads[shard_map.owner(f"service-type-{n}")] += 1
    assert sum(loads.values()) == 10_000
    assert max(loads.values()) <= 1.5 * min(loads.values()), loads


def test_growing_a_four_shard_map_moves_about_a_fifth():
    names = [f"service-type-{n}" for n in range(10_000)]
    before = ShardMap([f"s{n}" for n in range(4)])
    after = before.with_shard("s4")
    moved = sum(1 for name in names if after.owner(name) != before.owner(name))
    # Expectation is 1/5 of the keys; full rehash would move ~3/4.
    assert 0.1 < moved / len(names) < 0.3, moved


def test_wire_roundtrip_preserves_version_and_placement():
    shard_map = ShardMap(["a", "b", "c"]).with_shard("d")
    restored = ShardMap.from_wire(shard_map.to_wire())
    assert restored.version == shard_map.version
    assert [restored.owner(f"k{n}") for n in range(50)] == [
        shard_map.owner(f"k{n}") for n in range(50)
    ]


# -- range index vs. the linear-scan oracle ----------------------------------


def _rental_type():
    return ServiceType(
        "CarRentalService",
        InterfaceType("I", [OperationType("SelectCar", [], LONG)]),
        [("ChargePerDay", DOUBLE)],
    )


_values = st.lists(
    st.one_of(
        st.integers(min_value=-100, max_value=100),
        st.floats(min_value=-100, max_value=100, allow_nan=False, width=32),
        st.just(float("nan")),  # DOUBLE accepts it; it has no order
        st.booleans(),
        st.sampled_from(["HH", "B", "M", ""]),  # strings: TypeError -> no match
    ),
    min_size=0,
    max_size=25,
)
_bounds = st.sampled_from(["<", "<=", ">", ">=", "==", "!="])
# Quarter-steps keep ``repr`` inside the constraint grammar (no exponent
# notation); negatives exercise the unary-minus, non-indexable fallback.
_literals = st.integers(min_value=-400, max_value=400).map(lambda n: n / 4)
_preferences = st.sampled_from(
    ["", "min Price", "max Price", "first", "newest", "random"]
)


def _populate(trader, values):
    trader.add_type(_rental_type())
    for index, value in enumerate(values):
        # ``Price`` is undeclared, so any value class passes the export
        # type check — exactly the mixed population the index must sort
        # into numeric/string lanes and an unindexable remainder.
        trader.export(
            "CarRentalService",
            ServiceRef.create(f"svc-{index}", Address("host", 1), 1),
            {"ChargePerDay": 1.0, "Price": value},
        )


@settings(max_examples=120, deadline=None)
@given(
    values=_values,
    bound=_bounds,
    literal=_literals,
    preference=_preferences,
    max_matches=st.sampled_from([0, 1, 3]),
)
def test_range_index_matches_linear_scan_oracle(
    values, bound, literal, preference, max_matches
):
    indexed = LocalTrader("t", offer_prefix="m", range_index=True)
    oracle = LocalTrader("t", offer_prefix="m", range_index=False)
    _populate(indexed, values)
    _populate(oracle, values)
    request = ImportRequest(
        "CarRentalService",
        f"Price {bound} {literal!r}",
        preference,
        max_matches=max_matches,
    )
    expected = [offer.offer_id for offer in oracle.import_(request)]
    assert [offer.offer_id for offer in indexed.import_(request)] == expected


@settings(max_examples=60, deadline=None)
@given(values=_values, preference=_preferences)
def test_unconstrained_import_agrees_with_oracle(values, preference):
    indexed = LocalTrader("t", offer_prefix="m", range_index=True)
    oracle = LocalTrader("t", offer_prefix="m", range_index=False)
    _populate(indexed, values)
    _populate(oracle, values)
    request = ImportRequest("CarRentalService", "", preference)
    expected = [offer.offer_id for offer in oracle.import_(request)]
    assert [offer.offer_id for offer in indexed.import_(request)] == expected


def test_nan_prices_past_the_compaction_threshold_agree_with_oracle():
    """1 200 offers, every fifth priced NaN: past 512 pending entries the
    sorted run compacts and range probes bisect it, so a NaN inside the
    run would cut in the wrong places."""
    values = [float("nan") if n % 5 == 0 else float(n % 7) for n in range(1200)]
    indexed = LocalTrader("t", offer_prefix="m", range_index=True)
    oracle = LocalTrader("t", offer_prefix="m", range_index=False)
    _populate(indexed, values)
    _populate(oracle, values)
    for constraint in ["", "Price < 4", "Price >= 2", "Price > 5", "Price <= 0"]:
        for preference in ["", "min Price", "max Price", "min Price * 2"]:
            for max_matches in (0, 3):
                request = ImportRequest(
                    "CarRentalService", constraint, preference, max_matches=max_matches
                )
                expected = [offer.offer_id for offer in oracle.import_(request)]
                got = [offer.offer_id for offer in indexed.import_(request)]
                assert got == expected, (constraint, preference, max_matches)


@settings(max_examples=40, deadline=None)
@given(values=_values, bound=_bounds, literal=_literals)
def test_index_stays_oracle_true_across_mutations(values, bound, literal):
    """Modify every third offer, withdraw every fourth, then compare."""
    indexed = LocalTrader("t", offer_prefix="m", range_index=True)
    oracle = LocalTrader("t", offer_prefix="m", range_index=False)
    _populate(indexed, values)
    _populate(oracle, values)
    for trader in (indexed, oracle):
        for index in range(len(values)):
            offer_id = f"m:CarRentalService:{index + 1}"
            if index % 4 == 3:
                trader.withdraw(offer_id)
            elif index % 3 == 2:
                trader.modify(
                    offer_id, {"ChargePerDay": 1.0, "Price": float(index)}
                )
    request = ImportRequest(
        "CarRentalService", f"Price {bound} {literal!r}", "min ChargePerDay"
    )
    expected = [offer.offer_id for offer in oracle.import_(request)]
    assert [offer.offer_id for offer in indexed.import_(request)] == expected


def _leaf_type(name, supers=()):
    return ServiceType(
        name,
        InterfaceType("I", [OperationType("SelectCar", [], LONG)]),
        [("ChargePerDay", DOUBLE)],
        super_types=list(supers),
    )


@settings(max_examples=80, deadline=None)
@given(
    exports=st.lists(
        st.tuples(
            st.sampled_from(["Rental", "A", "B", "C"]),
            st.sampled_from([5.0, 5.0, 5.0, 7.0, 3.0]),  # tie-heavy
        ),
        max_size=14,
    ),
    preference=st.sampled_from(["min ChargePerDay", "max ChargePerDay"]),
    max_matches=st.integers(min_value=1, max_value=6),
)
def test_bounded_cross_type_ties_are_a_prefix_of_the_unbounded_answer(
    exports, preference, max_matches
):
    """Bounded answer ≡ prefix of the unbounded answer ≡ the linear oracle."""
    indexed = LocalTrader("t", offer_prefix="m", range_index=True)
    oracle = LocalTrader("t", offer_prefix="m", range_index=False)
    for trader in (indexed, oracle):
        trader.add_type(_leaf_type("Rental"))
        for leaf in ("A", "B", "C"):
            trader.add_type(_leaf_type(leaf, supers=["Rental"]))
        for index, (type_name, charge) in enumerate(exports):
            trader.export(
                type_name,
                ServiceRef.create(f"svc-{index}", Address("host", 1), 1),
                {"ChargePerDay": charge},
            )

    def ids(trader, bound):
        request = ImportRequest("Rental", "", preference, max_matches=bound)
        return [offer.offer_id for offer in trader.import_(request)]

    unbounded = ids(oracle, 0)
    assert ids(indexed, 0) == unbounded
    assert ids(oracle, max_matches) == unbounded[:max_matches]
    assert ids(indexed, max_matches) == unbounded[:max_matches]


# -- offer ids ---------------------------------------------------------------

_id_parts = st.text(alphabet="abXY:/-_019", min_size=1, max_size=10)


@given(prefix=_id_parts, service_type=_id_parts, mints=st.integers(1, 5))
def test_offer_id_parser_inverts_the_minter(prefix, service_type, mints):
    store = OfferStore(prefix)
    for number in range(1, mints + 1):
        minted = store.new_offer_id(service_type)
        assert parse_offer_id(minted, prefix) == (service_type, number)


@given(offer_id=st.text(max_size=20))
def test_offer_id_parser_never_raises_and_rejects_foreign_ids(offer_id):
    parsed = parse_offer_id(offer_id, "p")
    if parsed is not None:
        service_type, number = parsed
        assert service_type and number >= 0
        assert offer_id.startswith("p:" + service_type + ":")


def test_offer_id_parser_rejects_malformed_ids():
    for malformed in (
        "", "p", "p:", "p:T", "p:T:", "p:T:x", "p:T:-1", "p:T:1.5", "p::3",
        "q:T:3", "pT:3", ":T:3", "p:T:3:", "p:T:\u00b2",  # superscript two: a digit, not a number
    ):
        assert parse_offer_id(malformed, "p") is None, malformed
