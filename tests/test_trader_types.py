"""Tests for service types, the type manager, and the offer store."""

import pytest

from repro.sidl.builder import load_service_description
from repro.sidl.types import DOUBLE, EnumType, InterfaceType, LONG, OperationType, STRING
from repro.services.car_rental import CAR_RENTAL_SIDL
from repro.trader.errors import (
    DuplicateServiceType,
    InvalidOfferProperties,
    OfferNotFound,
    UnknownServiceType,
)
from repro.trader.offers import OfferStore, ServiceOffer
from repro.trader.service_types import ServiceType, service_type_from_sid
from repro.trader.type_manager import TypeManager


def simple_interface(*op_names):
    return InterfaceType("I", [OperationType(n, [], LONG) for n in op_names])


@pytest.fixture
def car_type():
    models = EnumType("CarModel_t", ["AUDI", "FIAT-Uno", "VW-Golf"])
    return ServiceType(
        "CarRentalService",
        simple_interface("SelectCar", "BookCar"),
        [
            ("CarModel", models),
            ("AverageMilage", LONG),
            ("ChargePerDay", DOUBLE),
            ("ChargeCurrency", STRING),
        ],
    )


# -- property validation (§2.1: offers specify values for all attributes) ----------


def test_valid_properties_accepted(car_type):
    checked = car_type.check_properties(
        {
            "CarModel": "AUDI",
            "AverageMilage": 9000,
            "ChargePerDay": 75.0,
            "ChargeCurrency": "USD",
        }
    )
    assert checked["CarModel"] == "AUDI"


def test_missing_attribute_rejected(car_type):
    with pytest.raises(InvalidOfferProperties) as excinfo:
        car_type.check_properties({"CarModel": "AUDI"})
    assert "AverageMilage" in str(excinfo.value)


def test_wrong_value_type_rejected(car_type):
    with pytest.raises(InvalidOfferProperties):
        car_type.check_properties(
            {
                "CarModel": "TRABANT",
                "AverageMilage": 1,
                "ChargePerDay": 1.0,
                "ChargeCurrency": "USD",
            }
        )


def test_extra_properties_kept(car_type):
    checked = car_type.check_properties(
        {
            "CarModel": "AUDI",
            "AverageMilage": 9000,
            "ChargePerDay": 75.0,
            "ChargeCurrency": "USD",
            "Airconditioned": True,
        }
    )
    assert checked["Airconditioned"] is True


def test_service_type_wire_roundtrip(car_type):
    again = ServiceType.from_wire(car_type.to_wire())
    assert again == car_type
    assert again.attributes["CarModel"].labels == ("AUDI", "FIAT-Uno", "VW-Golf")


def test_structural_conformance_between_service_types(car_type):
    richer = ServiceType(
        "Premium",
        simple_interface("SelectCar", "BookCar", "Upgrade"),
        list(car_type.attributes.items()) + [("Chauffeur", STRING)],
    )
    assert richer.conforms_to(car_type)
    assert not car_type.conforms_to(richer)


def test_service_type_from_sid_matches_paper():
    sid = load_service_description(CAR_RENTAL_SIDL)
    derived = service_type_from_sid(sid)
    assert derived.name == "CarRentalService"
    assert set(derived.attributes) == {
        "CarModel",
        "AverageMilage",
        "ChargePerDay",
        "ChargeCurrency",
    }
    assert derived.interface is sid.interface
    # enum-valued attributes keep their declared enum type
    assert derived.attributes["CarModel"].labels == ("AUDI", "FIAT-Uno", "VW-Golf")


# -- type manager -------------------------------------------------------------------------


@pytest.fixture
def manager(car_type):
    manager = TypeManager()
    manager.add(car_type, now=10.0)
    return manager


def test_duplicate_type_rejected(manager, car_type):
    with pytest.raises(DuplicateServiceType):
        manager.add(car_type)


def test_unknown_type_raises(manager):
    with pytest.raises(UnknownServiceType):
        manager.get("Ghost")


def test_registration_time_tracked(manager):
    assert manager.registered_at("CarRentalService") == 10.0


def test_super_type_hierarchy(manager, car_type):
    luxury = ServiceType(
        "LuxuryCarRental", car_type.interface, list(car_type.attributes.items()),
        super_types=["CarRentalService"],
    )
    manager.add(luxury)
    assert manager.declared_subtypes("CarRentalService") == {"LuxuryCarRental"}
    assert manager.is_subtype("LuxuryCarRental", "CarRentalService")
    assert not manager.is_subtype("CarRentalService", "LuxuryCarRental")
    assert manager.matching_types("CarRentalService") == [
        "CarRentalService",
        "LuxuryCarRental",
    ]


def test_transitive_subtypes(manager, car_type):
    mid = ServiceType("Mid", car_type.interface, [], super_types=["CarRentalService"])
    leaf = ServiceType("Leaf", car_type.interface, [], super_types=["Mid"])
    manager.add(mid)
    manager.add(leaf)
    assert manager.declared_subtypes("CarRentalService") == {"Mid", "Leaf"}


def test_unknown_super_type_rejected(manager, car_type):
    orphan = ServiceType("X", car_type.interface, [], super_types=["Ghost"])
    with pytest.raises(UnknownServiceType):
        manager.add(orphan)


def test_structural_matching_optional(manager, car_type):
    twin = ServiceType("UnrelatedTwin", car_type.interface, list(car_type.attributes.items()))
    manager.add(twin)
    assert "UnrelatedTwin" not in manager.matching_types("CarRentalService")
    assert "UnrelatedTwin" in manager.matching_types("CarRentalService", structural=True)


def test_masking_hides_from_matching(manager):
    manager.mask("CarRentalService")
    assert manager.matching_types("CarRentalService") == []
    manager.unmask("CarRentalService")
    assert manager.matching_types("CarRentalService") == ["CarRentalService"]


def test_remove_type(manager):
    assert manager.remove("CarRentalService")
    assert not manager.remove("CarRentalService")
    assert len(manager) == 0


# -- offer store -----------------------------------------------------------------------------


def test_offer_store_crud():
    store = OfferStore(prefix="t1")
    offer = ServiceOffer(store.new_offer_id("T"), "T", {}, {"p": 1}, 0.0)
    store.add(offer)
    assert store.get(offer.offer_id) is offer
    assert len(store.of_types(["T"])) == 1
    store.replace_properties(offer.offer_id, {"p": 2})
    assert store.get(offer.offer_id).properties == {"p": 2}
    removed = store.remove(offer.offer_id)
    assert removed is offer
    with pytest.raises(OfferNotFound):
        store.get(offer.offer_id)
    assert store.of_types(["T"]) == []


def test_offer_ids_carry_prefix_and_type():
    store = OfferStore(prefix="trader-x")
    offer_id = store.new_offer_id("CarRentalService")
    assert offer_id.startswith("trader-x:CarRentalService:")


def test_of_types_filters():
    store = OfferStore()
    for type_name in ("A", "A", "B"):
        offer = ServiceOffer(store.new_offer_id(type_name), type_name, {}, {}, 0.0)
        store.add(offer)
    assert len(store.of_types(["A"])) == 2
    assert len(store.of_types(["A", "B"])) == 3
    assert store.of_types(["C"]) == []
    assert len(store.all()) == 3


def test_offer_wire_roundtrip():
    offer = ServiceOffer("id1", "T", {"__cosm__": "service_reference"}, {"p": 1}, 5.0)
    assert ServiceOffer.from_wire(offer.to_wire()) == offer
