"""Indexed matching: constraint cache, type-match memo, equality index.

Every cache on the import hot path must be invalidated by the operation
that changes its inputs — export/withdraw/modify for the offer index,
add/remove/mask for the type-match memo — or imports would answer from a
stale world.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.naming.refs import ServiceRef
from repro.net.endpoints import Address
from repro.sidl.types import DOUBLE, InterfaceType, LONG, OperationType, STRING
from repro.trader.constraints import parse_constraint
from repro.trader.dynamic import dynamic_property
from repro.trader.offers import OfferStore, ServiceOffer
from repro.trader.service_types import ServiceType
from repro.trader.trader import ImportRequest, LocalTrader


def rental_type(name="CarRentalService", supers=()):
    return ServiceType(
        name,
        InterfaceType("I", [OperationType("SelectCar", [], LONG)]),
        [("ChargePerDay", DOUBLE), ("City", STRING)],
        super_types=list(supers),
    )


def make_trader(**kwargs):
    trader = LocalTrader("t", **kwargs)
    trader.add_type(rental_type())
    return trader


def export(trader, name, charge, city="HH", type_name="CarRentalService", **kw):
    return trader.export(
        type_name,
        ServiceRef.create(name, Address("t", 1), 4711),
        {"ChargePerDay": charge, "City": city},
        **kw,
    )


def names(offers):
    return sorted(offer.service_ref().name for offer in offers)


# -- constraint compile cache ------------------------------------------------


def test_parse_constraint_is_cached_by_text():
    first = parse_constraint("ChargePerDay < 90 and City == 'HH'")
    second = parse_constraint("ChargePerDay < 90 and City == 'HH'")
    assert first is second
    assert first.evaluate({"ChargePerDay": 50.0, "City": "HH"})
    assert not first.evaluate({"ChargePerDay": 50.0, "City": "B"})


def test_equality_conjuncts_extracted_from_and_chain():
    constraint = parse_constraint(
        "City == 'HH' and ChargePerDay < 90 and Seats == 4"
    )
    assert dict(constraint.equality_conjuncts) == {"City": "HH", "Seats": 4}
    # Mirrored literal-first comparisons count too.
    assert parse_constraint("'HH' == City").equality_conjuncts == (("City", "HH"),)
    # Disjunctions, negations, and non-equality shapes pin nothing.
    assert parse_constraint("City == 'HH' or Seats == 4").equality_conjuncts == ()
    assert parse_constraint("not City == 'HH'").equality_conjuncts == ()
    assert parse_constraint("ChargePerDay < 90").equality_conjuncts == ()
    # Prop-to-prop equality is not a literal pin.
    assert parse_constraint("City == OtherCity").equality_conjuncts == ()


# -- offer-store equality index ---------------------------------------------


def test_index_prefilter_matches_linear_scan():
    trader = make_trader()
    export(trader, "hh-1", 40.0, "HH")
    export(trader, "hh-2", 90.0, "HH")
    export(trader, "b-1", 40.0, "B")
    offers = trader.import_(
        ImportRequest("CarRentalService", "City == 'HH' and ChargePerDay < 50")
    )
    assert names(offers) == ["hh-1"]


def test_export_withdraw_modify_keep_index_fresh():
    trader = make_trader()
    request = ImportRequest("CarRentalService", "City == 'HH'")
    assert trader.import_(request) == []
    offer_id = export(trader, "hh-1", 40.0, "HH")
    assert names(trader.import_(request)) == ["hh-1"]
    trader.modify(offer_id, {"ChargePerDay": 40.0, "City": "B"})
    assert trader.import_(request) == []
    assert names(trader.import_(ImportRequest("CarRentalService", "City == 'B'"))) == [
        "hh-1"
    ]
    trader.modify(offer_id, {"ChargePerDay": 40.0, "City": "HH"})
    assert names(trader.import_(request)) == ["hh-1"]
    trader.withdraw(offer_id)
    assert trader.import_(request) == []


def test_dynamic_property_offers_survive_prefilter():
    marker = dynamic_property(
        ServiceRef.create("svc", Address("t", 1), 4711), "CurrentCity"
    )
    trader = make_trader(dynamic_evaluator=lambda m: "HH")
    trader.export(
        "CarRentalService",
        ServiceRef.create("dyn-1", Address("t", 1), 4711),
        {"ChargePerDay": 40.0, "City": marker},
    )
    # Stored value is the marker dict, but the live value matches: the
    # index must not filter the offer out before resolution.
    offers = trader.import_(ImportRequest("CarRentalService", "City == 'HH'"))
    assert names(offers) == ["dyn-1"]


def test_unhashable_property_values_survive_prefilter():
    trader = make_trader()
    trader.export(
        "CarRentalService",
        ServiceRef.create("tagged", Address("t", 1), 4711),
        {"ChargePerDay": 10.0, "City": "HH", "Models": ["AUDI", "VW"]},
    )
    offers = trader.import_(
        ImportRequest("CarRentalService", "City == 'HH' and 'AUDI' in Models")
    )
    assert names(offers) == ["tagged"]


def test_contradictory_conjuncts_short_circuit_to_empty():
    trader = make_trader()
    export(trader, "hh-1", 40.0, "HH")
    offers = trader.import_(
        ImportRequest("CarRentalService", "City == 'HH' and City == 'B'")
    )
    assert offers == []


# -- type-match memo ---------------------------------------------------------


def test_add_type_invalidates_matching_memo():
    trader = make_trader()
    export(trader, "base-1", 10.0)
    assert len(trader.import_(ImportRequest("CarRentalService"))) == 1
    trader.add_type(rental_type("LuxuryRental", supers=["CarRentalService"]))
    export(trader, "lux-1", 99.0, type_name="LuxuryRental")
    # A stale memo would still answer with the pre-subtype match set.
    assert names(trader.import_(ImportRequest("CarRentalService"))) == [
        "base-1",
        "lux-1",
    ]


def test_remove_type_invalidates_matching_memo():
    trader = make_trader()
    trader.add_type(rental_type("LuxuryRental", supers=["CarRentalService"]))
    export(trader, "lux-1", 99.0, type_name="LuxuryRental")
    assert len(trader.import_(ImportRequest("CarRentalService"))) == 1
    trader.remove_type("LuxuryRental")
    assert trader.import_(ImportRequest("CarRentalService")) == []


def test_mask_and_unmask_invalidate_matching_memo():
    trader = make_trader()
    export(trader, "base-1", 10.0)
    assert len(trader.import_(ImportRequest("CarRentalService"))) == 1
    trader.mask_type("CarRentalService")
    assert trader.import_(ImportRequest("CarRentalService")) == []
    trader.types.unmask("CarRentalService")
    assert len(trader.import_(ImportRequest("CarRentalService"))) == 1


# -- satellite regressions ---------------------------------------------------


def test_import_preserves_expiry_on_resolved_dynamic_offers():
    """Regression: the dynamic-resolution rebuild dropped ``expires_at``."""
    marker = dynamic_property(
        ServiceRef.create("svc", Address("t", 1), 4711), "CurrentCharge"
    )
    trader = make_trader(dynamic_evaluator=lambda m: 55.0)
    trader.export(
        "CarRentalService",
        ServiceRef.create("dyn-1", Address("t", 1), 4711),
        {"ChargePerDay": marker, "City": "HH"},
        now=0.0,
        lease_seconds=10.0,
    )
    offers = trader.import_(ImportRequest("CarRentalService"), now=1.0)
    assert len(offers) == 1
    assert offers[0].properties["ChargePerDay"] == 55.0
    assert offers[0].expires_at == 10.0
    # And the expiry still bites on the rebuilt offer's next import.
    assert trader.import_(ImportRequest("CarRentalService"), now=10.0) == []


def test_select_best_honours_now():
    """Regression: select_best ignored ``now`` so expired offers won."""
    trader = make_trader()
    export(trader, "stale", 1.0, lease_seconds=5.0)
    export(trader, "fresh", 2.0)
    request = ImportRequest("CarRentalService", preference="min ChargePerDay")
    assert trader.select_best(request, now=1.0).service_ref().name == "stale"
    assert trader.select_best(request, now=6.0).service_ref().name == "fresh"


# -- range/equality index invalidation under MODIFY ---------------------------


def _index_counters(prefix="t"):
    from repro.telemetry.metrics import METRICS

    return {
        name: METRICS.counter(f"offers.{name}", (prefix,))
        for name in ("index_hits", "range_hits", "fallback_scans")
    }


def _deltas(before, after):
    return {name: after[name] - before[name] for name in before if after[name] != before[name]}


def test_modify_from_unhashable_value_rehomes_the_equality_index():
    """Regression: a value that entered the store unhashable (a list) and
    later became hashable via MODIFY must land in the equality bucket —
    and leave it again when modified back."""
    trader = make_trader()
    offer_id = trader.export(
        "CarRentalService",
        ServiceRef.create("tagged", Address("t", 1), 4711),
        {"ChargePerDay": 10.0, "City": "HH", "Tier": ["gold"]},
    )
    request = ImportRequest("CarRentalService", "Tier == 'gold'")

    before = _index_counters()
    assert trader.import_(request) == []  # the list is not the string
    assert _deltas(before, _index_counters()) == {"index_hits": 1}

    trader.modify(offer_id, {"ChargePerDay": 10.0, "City": "HH", "Tier": "gold"})
    before = _index_counters()
    assert names(trader.import_(request)) == ["tagged"]
    assert _deltas(before, _index_counters()) == {"index_hits": 1}

    trader.modify(offer_id, {"ChargePerDay": 10.0, "City": "HH", "Tier": ["silver"]})
    before = _index_counters()
    assert trader.import_(request) == []  # no stale bucket entry survives
    assert _deltas(before, _index_counters()) == {"index_hits": 1}


def test_modify_keeps_the_range_index_fresh():
    trader = make_trader()
    offer_id = export(trader, "hh-1", 10.0)
    request = ImportRequest("CarRentalService", "ChargePerDay < 20")

    before = _index_counters()
    assert names(trader.import_(request)) == ["hh-1"]
    assert _deltas(before, _index_counters()) == {"range_hits": 1}

    trader.modify(offer_id, {"ChargePerDay": 30.0, "City": "HH"})
    before = _index_counters()
    assert trader.import_(request) == []
    assert _deltas(before, _index_counters()) == {"range_hits": 1}

    trader.modify(offer_id, {"ChargePerDay": 10.0, "City": "HH"})
    before = _index_counters()
    assert names(trader.import_(request)) == ["hh-1"]
    assert _deltas(before, _index_counters()) == {"range_hits": 1}


def test_readding_the_same_offer_id_is_idempotent():
    """A replication retry re-adds an offer the store already holds; the
    index must not double-count it."""
    from repro.trader.offers import ServiceOffer

    trader = make_trader()
    offer_id = export(trader, "hh-1", 40.0)
    replayed = ServiceOffer.from_wire(trader.offers.get(offer_id).to_wire())
    trader.offers.add(replayed)
    assert len(trader.offers) == 1
    assert names(trader.import_(ImportRequest("CarRentalService", "City == 'HH'"))) == [
        "hh-1"
    ]
    assert names(
        trader.import_(ImportRequest("CarRentalService", "ChargePerDay < 50"))
    ) == ["hh-1"]


def test_inplace_property_mutation_cannot_strand_index_entries():
    """Stored properties are read-only, so withdraw's removals, derived
    from the offer, are exactly what export indexed."""
    trader = make_trader()
    offer_id = export(trader, "hh-1", 40.0, "HH")
    with pytest.raises(TypeError):
        trader.offers.get(offer_id).properties["City"] = "B"  # aliasing abuse
    trader.withdraw(offer_id)
    assert trader.import_(ImportRequest("CarRentalService", "City == 'HH'")) == []
    assert trader.import_(ImportRequest("CarRentalService", "City == 'B'")) == []
    export(trader, "hh-2", 41.0, "HH")
    assert names(trader.import_(ImportRequest("CarRentalService", "City == 'HH'"))) == [
        "hh-2"
    ]


def test_mutating_the_dict_handed_to_add_reaches_neither_index_nor_offer():
    """The store keeps its own copy: ``from_wire`` aliases the caller's
    dict, and a later write to it must not move the stored offer."""
    store = OfferStore(prefix="t")
    wire = {"ChargePerDay": 40.0, "City": "HH"}
    ref = ServiceRef.create("hh-1", Address("t", 1), 4711).to_wire()
    store.add(ServiceOffer.from_wire(
        {"offer_id": "t:T:1", "service_type": "T", "ref": ref, "properties": wire}
    ))
    wire["City"] = "B"
    wire["ChargePerDay"] = 1.0
    assert dict(store.get("t:T:1").properties) == {"ChargePerDay": 40.0, "City": "HH"}
    assert [o.offer_id for o in store.candidates(["T"], [("City", "HH")])] == ["t:T:1"]
    assert store.candidates(["T"], [("City", "B")]) == []
    assert store.candidates(["T"], [], [("ChargePerDay", "<", 2.0)]) == []
    store.remove("t:T:1")
    assert store.candidates(["T"], [("City", "HH")]) == []
    assert list(store.ordered_by(["T"], "ChargePerDay")) == []


def test_ordered_by_ranks_numbers_then_the_undefined_tail_per_type():
    """Numbers first by value; then, per type in candidate order, the
    offers the walk could not rank: a string, a missing property, NaN.
    A removal from a folded run leaves a tombstone the walk skips."""
    store = OfferStore(prefix="t")
    ref = ServiceRef.create("svc", Address("t", 1), 4711).to_wire()
    population = [
        ("A", {"p": 3}), ("A", {"p": "x"}), ("A", {}), ("B", {"p": float("nan")}),
        ("B", {"p": 1}), ("A", {"p": 2.5}), ("B", {"p": 3}),
    ]
    for n, (type_name, properties) in enumerate(population, start=1):
        store.add(ServiceOffer(f"t:{type_name}:{n}", type_name, ref, properties))
    ranked = [o.offer_id for o in store.ordered_by(["A", "B"], "p")]
    assert ranked == ["t:B:5", "t:A:6", "t:A:1", "t:B:7", "t:A:2", "t:A:3", "t:B:4"]
    descending = [o.offer_id for o in store.ordered_by(["A", "B"], "p", reverse=True)]
    assert descending[:4] == ["t:A:1", "t:B:7", "t:A:6", "t:B:5"]
    run = store._range_index[("A", "p")]["num"]
    run.compact()  # fold the overlay, so the removal below is a tombstone
    store.remove("t:A:6")
    assert run.dead == {(2.5, 6, "t:A:6")} and not run.pending
    ranked = [o.offer_id for o in store.ordered_by(["A", "B"], "p")]
    assert ranked == ["t:B:5", "t:A:1", "t:B:7", "t:A:2", "t:A:3", "t:B:4"]
    assert [o.offer_id for o in store.candidates(["A"], [], [("p", ">", 2)])] == ["t:A:1"]


# -- an index probe answers in candidate order ---------------------------------

STORE_TYPES = ("A", "B")
_MARKER = dynamic_property(ServiceRef.create("svc", Address("t", 1), 4711), "Now")
probe_values = st.sampled_from([0, 1, 2, 2.0, "x", "y", ["x"], _MARKER])
probe_properties = st.dictionaries(st.sampled_from(["p", "q"]), probe_values)
store_steps = st.lists(
    st.one_of(
        st.tuples(st.just("export"), st.sampled_from(STORE_TYPES), probe_properties),
        st.tuples(st.just("modify"), st.integers(0, 99), probe_properties),
        st.tuples(st.just("withdraw"), st.integers(0, 99)),
        # an idempotent re-add of a live id, possibly under another type
        st.tuples(st.just("readd"), st.integers(0, 99), st.sampled_from(STORE_TYPES)),
        st.tuples(st.just("reexport"), st.integers(0, 99)),  # a withdrawn id returns
    ),
    max_size=24,
)
EQ_PROBES = [[("p", 1)], [("q", "x")], [("p", 2), ("q", "x")], [("p", ["x"])]]
RANGE_PROBES = [[("p", "<", 2)], [("p", ">=", 1), ("q", "<=", "x")], [("q", ">", "x")]]
TYPE_ORDERS = [("A",), ("B",), ("A", "B"), ("B", "A")]


@settings(deadline=None)
@given(steps=store_steps)
def test_index_probes_answer_in_candidate_order(steps):
    """``candidates(types, eq)`` and ``candidates(types, (), ranges)`` are
    ``of_types(types)`` filtered to the bucket, element for element: the
    store's ``_order`` sequence is the per-type insertion order."""
    store = OfferStore(prefix="t")
    withdrawn = {}
    for step in steps:
        live = [offer.offer_id for offer in store.all()]
        if step[0] == "export":
            __, type_name, properties = step
            store.add(ServiceOffer(store.new_offer_id(type_name), type_name, {}, properties))
        elif step[0] == "modify" and live:
            store.replace_properties(live[step[1] % len(live)], step[2])
        elif step[0] == "withdraw" and live:
            offer = store.remove(live[step[1] % len(live)])
            withdrawn[offer.offer_id] = offer
        elif step[0] == "readd" and live:
            old = store.get(live[step[1] % len(live)])
            store.add(ServiceOffer(old.offer_id, step[2], {}, dict(old.properties)))
        elif step[0] == "reexport" and withdrawn:
            store.add(withdrawn.pop(sorted(withdrawn)[step[1] % len(withdrawn)]))
        for types in TYPE_ORDERS:
            scan = store.of_types(types)
            probes = [(eq, ()) for eq in EQ_PROBES] + [((), rg) for rg in RANGE_PROBES]
            for equalities, ranges in probes:
                probed = [o.offer_id for o in store.candidates(types, equalities, ranges)]
                bucket = set(probed)
                assert probed == [o.offer_id for o in scan if o.offer_id in bucket]
            for prop, literal in (("p", 1), ("q", "x")):
                exact = {o.offer_id for o in scan if o.properties.get(prop) == literal}
                assert exact <= {o.offer_id for o in store.candidates(types, [(prop, literal)])}


def test_min_max_fast_path_counts_ordered_scans():
    from repro.telemetry.metrics import METRICS

    trader = make_trader()
    for index in range(5):
        export(trader, f"car-{index}", 10.0 + index)
    before = METRICS.counter("trader.ordered_scans", ("t",))
    offers = trader.import_(
        ImportRequest("CarRentalService", "", "min ChargePerDay", max_matches=2)
    )
    assert [o.service_ref().name for o in offers] == ["car-0", "car-1"]
    assert METRICS.counter("trader.ordered_scans", ("t",)) == before + 1
