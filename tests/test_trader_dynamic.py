"""Tests for dynamic service properties (ODP late-bound attributes)."""

import random

from repro.core.service_runtime import ServiceRuntime
from repro.naming.refs import ServiceRef
from repro.net.endpoints import Address
from repro.sidl.builder import load_service_description
from repro.sidl.types import DOUBLE, InterfaceType, OperationType, STRING
from repro.trader.dynamic import (
    BindingEvaluator,
    dynamic_property,
    is_dynamic,
    resolve_properties,
)
from repro.trader.offers import ServiceOffer
from repro.trader.service_types import ServiceType
from repro.trader.sharding import TraderShard
from repro.trader.trader import ImportRequest, LocalTrader, TraderClient, TraderService

PRICED_SIDL = """
module PricedRental {
  interface COSM_Operations {
    float CurrentCharge();
    boolean Rent();
  };
};
"""


class PricedImpl:
    """A service whose charge changes over time."""

    def __init__(self, charge: float = 80.0) -> None:
        self.charge = charge
        self.price_queries = 0

    def CurrentCharge(self) -> float:
        self.price_queries += 1
        return self.charge

    def Rent(self) -> bool:
        return True


def rental_type():
    return ServiceType(
        "PricedRental",
        InterfaceType("I", [OperationType("Rent", [], DOUBLE)]),
        [("ChargePerDay", DOUBLE), ("City", STRING)],
    )


def start_priced(make_server, charge: float):
    sid = load_service_description(PRICED_SIDL)
    implementation = PricedImpl(charge)
    runtime = ServiceRuntime(make_server(), sid, implementation)
    return runtime, implementation


# -- marker mechanics -------------------------------------------------------------


def test_marker_shape(rental):
    marker = dynamic_property(rental.ref, "SelectCar", {"x": 1})
    assert is_dynamic(marker)
    assert marker["operation"] == "SelectCar"
    assert not is_dynamic({"plain": "dict"})
    assert not is_dynamic(80.0)


def test_resolve_passthrough_without_markers():
    properties = {"a": 1}
    assert resolve_properties(properties, None) is properties


def test_resolve_without_evaluator_drops_dynamic(rental):
    properties = {"a": 1, "b": dynamic_property(rental.ref, "Op")}
    resolved = resolve_properties(properties, None)
    assert resolved == {"a": 1}


def test_resolve_evaluator_failure_drops_property(rental):
    def exploding(marker):
        raise RuntimeError("down")

    properties = {"b": dynamic_property(rental.ref, "Op")}
    assert resolve_properties(properties, exploding) == {}


# -- trader integration --------------------------------------------------------------


def test_export_accepts_dynamic_markers(make_server, make_client):
    runtime, __ = start_priced(make_server, 80.0)
    trader = LocalTrader()
    trader.add_type(rental_type())
    offer_id = trader.export(
        "PricedRental",
        runtime.ref,
        {
            "ChargePerDay": dynamic_property(runtime.ref, "CurrentCharge"),
            "City": "Hamburg",
        },
    )
    stored = trader.offers.get(offer_id)
    assert is_dynamic(stored.properties["ChargePerDay"])


def test_import_resolves_live_values(make_server, make_client):
    runtime, implementation = start_priced(make_server, 80.0)
    evaluator = BindingEvaluator(make_client())
    trader = LocalTrader(dynamic_evaluator=evaluator)
    trader.add_type(rental_type())
    trader.export(
        "PricedRental",
        runtime.ref,
        {
            "ChargePerDay": dynamic_property(runtime.ref, "CurrentCharge"),
            "City": "Hamburg",
        },
    )
    offers = trader.import_(ImportRequest("PricedRental", "ChargePerDay < 100"))
    assert offers[0].properties["ChargePerDay"] == 80.0

    # the price changes; the next import sees it with NO re-export
    implementation.charge = 120.0
    assert trader.import_(ImportRequest("PricedRental", "ChargePerDay < 100")) == []
    offers = trader.import_(ImportRequest("PricedRental"))
    assert offers[0].properties["ChargePerDay"] == 120.0
    assert implementation.price_queries >= 3


def test_stored_offer_keeps_marker(make_server, make_client):
    runtime, __ = start_priced(make_server, 80.0)
    trader = LocalTrader(dynamic_evaluator=BindingEvaluator(make_client()))
    trader.add_type(rental_type())
    offer_id = trader.export(
        "PricedRental",
        runtime.ref,
        {
            "ChargePerDay": dynamic_property(runtime.ref, "CurrentCharge"),
            "City": "Hamburg",
        },
    )
    trader.import_(ImportRequest("PricedRental"))
    assert is_dynamic(trader.offers.get(offer_id).properties["ChargePerDay"])


def test_preferences_order_by_live_values(make_server, make_client):
    evaluator = BindingEvaluator(make_client())
    trader = LocalTrader(dynamic_evaluator=evaluator)
    trader.add_type(rental_type())
    impls = {}
    for name, charge in (("cheap", 50.0), ("dear", 150.0)):
        runtime, implementation = start_priced(make_server, charge)
        impls[name] = implementation
        trader.export(
            "PricedRental",
            runtime.ref,
            {
                "ChargePerDay": dynamic_property(runtime.ref, "CurrentCharge"),
                "City": name,
            },
        )
    offers = trader.import_(ImportRequest("PricedRental", preference="min ChargePerDay"))
    assert [o.properties["City"] for o in offers] == ["cheap", "dear"]
    # prices swap; the ordering follows without any re-export
    impls["cheap"].charge, impls["dear"].charge = 200.0, 10.0
    offers = trader.import_(ImportRequest("PricedRental", preference="min ChargePerDay"))
    assert [o.properties["City"] for o in offers] == ["dear", "cheap"]


def test_dead_exporter_fails_to_match_not_crash(make_server, make_client, net):
    runtime, __ = start_priced(make_server, 80.0)
    evaluator = BindingEvaluator(make_client(timeout=0.02, retries=0))
    trader = LocalTrader(dynamic_evaluator=evaluator)
    trader.add_type(rental_type())
    trader.export(
        "PricedRental",
        runtime.ref,
        {
            "ChargePerDay": dynamic_property(runtime.ref, "CurrentCharge"),
            "City": "Hamburg",
        },
    )
    net.faults.crash(runtime.ref.host)
    assert trader.import_(ImportRequest("PricedRental", "ChargePerDay < 100")) == []
    # the static property alone still matches
    offers = trader.import_(ImportRequest("PricedRental", "City == 'Hamburg'"))
    assert len(offers) == 1
    assert "ChargePerDay" not in offers[0].properties


def test_networked_trader_evaluates_dynamics(make_server, make_client):
    runtime, implementation = start_priced(make_server, 80.0)
    trader_service = TraderService(make_server("trader"), client=make_client())
    client = TraderClient(make_client(), trader_service.address)
    client.add_type(rental_type())
    client.export(
        "PricedRental",
        runtime.ref,
        {
            "ChargePerDay": dynamic_property(runtime.ref, "CurrentCharge"),
            "City": "Hamburg",
        },
    )
    offers = client.import_(ImportRequest("PricedRental", "ChargePerDay == 80"))
    assert len(offers) == 1
    implementation.charge = 95.0
    offers = client.import_(ImportRequest("PricedRental", "ChargePerDay == 95"))
    assert len(offers) == 1


# -- the store's book of marked offers ----------------------------------------------


def _marked(store):
    """The ids whose stored properties hold a marker, read off the offers."""
    return {
        offer.offer_id
        for offer in store.all()
        if any(is_dynamic(value) for value in offer.properties.values())
    }


def test_marker_book_follows_every_write_on_primary_and_replica():
    """Export, modify (marker <-> static), withdraw, an idempotent re-add
    and replayed deltas: after every step each store's ``dynamic_ids`` is
    exactly the set of offers holding a marker."""
    rng = random.Random(1994)
    primary = TraderShard("p", offer_prefix="m")
    replica = TraderShard("r", offer_prefix="m", role="replica")
    primary.attach_replica("r", replica.apply_delta)
    primary.add_type(rental_type())
    marker = dynamic_property(ServiceRef.create("live", Address("h", 1), 1), "CurrentCharge")

    def properties():
        return {
            "ChargePerDay": rng.choice([marker, 10.0, 20.0]),
            "City": rng.choice([marker, "Hamburg"]),
            "Tags": rng.choice([marker, ["not", "hashable"], "static"]),  # undeclared
        }

    live = []
    for step in range(300):
        action = rng.choice(["export", "export", "modify", "modify", "withdraw", "re-add", "replay"])
        if action == "export" or not live:
            ref = ServiceRef.create(f"s{step}", Address("h", 2), 1)
            live.append(primary.export("PricedRental", ref, properties()))
        elif action == "modify":
            primary.modify(rng.choice(live), properties())
        elif action == "withdraw":
            primary.withdraw(live.pop(rng.randrange(len(live))))
        elif action == "re-add":
            store = rng.choice([primary, replica]).trader.offers
            store.add(ServiceOffer.from_wire(store.get(rng.choice(live)).to_wire()))
        else:
            assert replica.apply_delta(rng.choice(primary.deltas_since(0))) is True
        for shard in (primary, replica):
            assert shard.trader.offers.dynamic_ids == _marked(shard.trader.offers), (step, action)
    assert primary.trader.offers.dynamic_ids == replica.trader.offers.dynamic_ids
    assert primary.trader.offers.dynamic_ids  # the walk did hold markers


def test_only_marked_offers_are_resolved():
    """Unmarked offers match as stored: the evaluator sees markers only."""
    seen = []

    def evaluator(marker):
        seen.append(marker["operation"])
        return 5.0

    trader = LocalTrader(dynamic_evaluator=evaluator)
    trader.add_type(rental_type())
    ref = ServiceRef.create("x", Address("h", 1), 1)
    static = trader.export("PricedRental", ref, {"ChargePerDay": 10.0, "City": "Kiel"})
    dynamic = trader.export(
        "PricedRental", ref, {"ChargePerDay": dynamic_property(ref, "Live"), "City": "Kiel"}
    )
    assert trader.offers.dynamic_ids == {dynamic}
    offers = trader.import_(ImportRequest("PricedRental", "ChargePerDay < 20"))
    assert [offer.offer_id for offer in offers] == [static, dynamic]
    assert offers[1].properties["ChargePerDay"] == 5.0
    assert seen == ["Live"]
    trader.modify(dynamic, {"ChargePerDay": 7.0, "City": "Kiel"})
    assert trader.offers.dynamic_ids == set()
