"""Tests for the local trader: export / withdraw / modify / import."""

import pytest

from repro.naming.refs import ServiceRef
from repro.net.endpoints import Address
from repro.sidl.types import DOUBLE, InterfaceType, LONG, OperationType, STRING
from repro.trader.errors import (
    InvalidOfferProperties,
    OfferNotFound,
    UnknownServiceType,
)
from repro.trader.service_types import ServiceType
from repro.trader.trader import ImportRequest, LocalTrader


def rental_type(name="CarRentalService", super_types=()):
    return ServiceType(
        name,
        InterfaceType("I", [OperationType("SelectCar", [], LONG)]),
        [("ChargePerDay", DOUBLE), ("ChargeCurrency", STRING)],
        super_types=super_types,
    )


def ref(name="svc", port=1):
    return ServiceRef.create(name, Address("host", port), 4711)


PROPS = {"ChargePerDay": 80.0, "ChargeCurrency": "USD"}


@pytest.fixture
def trader():
    trader = LocalTrader("t1")
    trader.add_type(rental_type())
    return trader


# -- export side (Fig. 1 step 1) ----------------------------------------------------


def test_export_returns_offer_id(trader):
    offer_id = trader.export("CarRentalService", ref(), PROPS)
    assert offer_id.startswith("t1:CarRentalService:")
    assert trader.exports_accepted == 1


def test_export_unknown_type_rejected(trader):
    with pytest.raises(UnknownServiceType):
        trader.export("Ghost", ref(), PROPS)


def test_export_invalid_properties_rejected(trader):
    with pytest.raises(InvalidOfferProperties):
        trader.export("CarRentalService", ref(), {"ChargePerDay": 80.0})


def test_withdraw_removes_offer(trader):
    offer_id = trader.export("CarRentalService", ref(), PROPS)
    trader.withdraw(offer_id)
    with pytest.raises(OfferNotFound):
        trader.withdraw(offer_id)
    assert trader.import_(ImportRequest("CarRentalService")) == []


def test_modify_replaces_properties(trader):
    offer_id = trader.export("CarRentalService", ref(), PROPS)
    trader.modify(offer_id, {"ChargePerDay": 60.0, "ChargeCurrency": "DEM"})
    offers = trader.import_(ImportRequest("CarRentalService"))
    assert offers[0].properties["ChargePerDay"] == 60.0


def test_modify_validates_against_type(trader):
    offer_id = trader.export("CarRentalService", ref(), PROPS)
    with pytest.raises(InvalidOfferProperties):
        trader.modify(offer_id, {"ChargePerDay": 60.0})


# -- import side (Fig. 1 steps 2-3) -----------------------------------------------------


def test_import_matches_by_type(trader):
    trader.export("CarRentalService", ref("a", 1), PROPS)
    trader.export("CarRentalService", ref("b", 2), PROPS)
    offers = trader.import_(ImportRequest("CarRentalService"))
    assert len(offers) == 2
    assert trader.imports_served == 1


def test_import_unknown_type_raises(trader):
    with pytest.raises(UnknownServiceType):
        trader.import_(ImportRequest("Ghost"))


def test_import_constraint_filters(trader):
    trader.export("CarRentalService", ref("cheap", 1), {"ChargePerDay": 50.0, "ChargeCurrency": "USD"})
    trader.export("CarRentalService", ref("dear", 2), {"ChargePerDay": 120.0, "ChargeCurrency": "USD"})
    offers = trader.import_(ImportRequest("CarRentalService", "ChargePerDay < 100"))
    assert len(offers) == 1
    assert offers[0].service_ref().name == "cheap"


def test_import_preference_orders(trader):
    trader.export("CarRentalService", ref("a", 1), {"ChargePerDay": 80.0, "ChargeCurrency": "USD"})
    trader.export("CarRentalService", ref("b", 2), {"ChargePerDay": 60.0, "ChargeCurrency": "USD"})
    offers = trader.import_(ImportRequest("CarRentalService", preference="min ChargePerDay"))
    assert [o.service_ref().name for o in offers] == ["b", "a"]


def test_import_max_matches_truncates(trader):
    for port in range(5):
        trader.export("CarRentalService", ref(f"s{port}", port), PROPS)
    offers = trader.import_(ImportRequest("CarRentalService", max_matches=2))
    assert len(offers) == 2


def test_select_best_returns_single_offer(trader):
    trader.export("CarRentalService", ref("a", 1), {"ChargePerDay": 80.0, "ChargeCurrency": "USD"})
    trader.export("CarRentalService", ref("b", 2), {"ChargePerDay": 60.0, "ChargeCurrency": "USD"})
    best = trader.select_best(ImportRequest("CarRentalService", preference="min ChargePerDay"))
    assert best.service_ref().name == "b"
    assert trader.select_best(ImportRequest("CarRentalService", "ChargePerDay < 10")) is None


def test_import_includes_declared_subtypes(trader):
    trader.add_type(rental_type("Luxury", super_types=["CarRentalService"]))
    trader.export("Luxury", ref("lux", 9), PROPS)
    trader.export("CarRentalService", ref("plain", 10), PROPS)
    offers = trader.import_(ImportRequest("CarRentalService"))
    assert sorted(o.service_type for o in offers) == ["CarRentalService", "Luxury"]
    # the reverse does not hold: a base-type offer does not serve subtype requests
    assert [o.service_type for o in trader.import_(ImportRequest("Luxury"))] == ["Luxury"]


def test_import_structural_matching_opt_in(trader):
    trader.add_type(rental_type("Twin"))
    trader.export("Twin", ref("twin", 3), PROPS)
    assert trader.import_(ImportRequest("CarRentalService")) == []
    offers = trader.import_(ImportRequest("CarRentalService", structural=True))
    assert [o.service_type for o in offers] == ["Twin"]


def test_import_wire_swallow_unknown_type(trader):
    """Federated peers asking about foreign types get [] not a fault."""
    assert trader.import_wire(ImportRequest("Alien").to_wire()) == []


def test_masked_type_invisible(trader):
    trader.export("CarRentalService", ref(), PROPS)
    trader.mask_type("CarRentalService")
    # The type still exists but matches nothing while masked.
    assert trader.import_(ImportRequest("CarRentalService")) == []
    trader.types.unmask("CarRentalService")
    assert len(trader.import_(ImportRequest("CarRentalService"))) == 1


def test_import_request_wire_roundtrip():
    request = ImportRequest(
        "T", "a < 1", "min a", max_matches=3, structural=True, hop_limit=2,
        visited=["x"],
    )
    assert ImportRequest.from_wire(request.to_wire()) == request


# -- offer lifetimes --------------------------------------------------------------


def test_offer_without_lifetime_never_expires(trader):
    trader.export("CarRentalService", ref(), PROPS, now=0.0)
    offers = trader.import_(ImportRequest("CarRentalService"), now=1e9)
    assert len(offers) == 1


def test_expired_offer_does_not_match(trader):
    trader.export("CarRentalService", ref(), PROPS, now=10.0, lease_seconds=5.0)
    assert len(trader.import_(ImportRequest("CarRentalService"), now=14.9)) == 1
    assert trader.import_(ImportRequest("CarRentalService"), now=15.0) == []
    # the offer is still stored until purged
    assert len(trader.offers) == 1


def test_reexport_refreshes_visibility(trader):
    trader.export("CarRentalService", ref("v1", 1), PROPS, now=0.0, lease_seconds=10.0)
    assert trader.import_(ImportRequest("CarRentalService"), now=11.0) == []
    trader.export("CarRentalService", ref("v2", 2), PROPS, now=11.0, lease_seconds=10.0)
    offers = trader.import_(ImportRequest("CarRentalService"), now=12.0)
    assert [o.service_ref().name for o in offers] == ["v2"]


def test_offer_lifetime_survives_wire():
    from repro.trader.offers import ServiceOffer

    offer = ServiceOffer("id", "T", {}, {}, exported_at=1.0, expires_at=6.0)
    again = ServiceOffer.from_wire(offer.to_wire())
    assert again.expires_at == 6.0
    assert again.expired(6.0)
    assert not again.expired(5.9)
