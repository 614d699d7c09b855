"""Tests for ServiceDescription: elements, conformance, wire, SIDL output."""

import pytest

from repro.rpc.xdr import decode_value, encode_value
from repro.sidl.builder import load_service_description
from repro.sidl.errors import SidlSemanticError
from repro.sidl.sid import (
    ELEMENT_FSM,
    ELEMENT_OPERATIONS,
    ELEMENT_SERVICE_TYPE,
    ELEMENT_TYPES,
    ServiceDescription,
)
from repro.services.car_rental import CAR_RENTAL_SIDL

BASE = """
module Svc {
  typedef Item_t struct { string name; long count; };
  interface COSM_Operations {
    Item_t Get(in string name);
  };
};
"""

EXTENDED = """
module Svc {
  typedef Item_t struct { string name; long count; float weight; };
  interface COSM_Operations {
    Item_t Get(in string name);
    void Delete(in string name);
  };
  module COSM_FSM {
    state READY;
    initial READY;
    transition READY -> READY on Get;
  };
  module COSM_TraderExport {
    const string TOD = "Svc";
    const float Price = 1.5;
  };
};
"""


@pytest.fixture
def base_sid():
    return load_service_description(BASE)


@pytest.fixture
def extended_sid():
    return load_service_description(EXTENDED)


# -- elements (Fig. 2) ----------------------------------------------------------


def test_base_elements(base_sid):
    assert base_sid.elements() == [ELEMENT_TYPES, ELEMENT_OPERATIONS]


def test_extended_elements(extended_sid):
    elements = extended_sid.elements()
    assert ELEMENT_SERVICE_TYPE in elements
    assert ELEMENT_FSM in elements


def test_every_sid_conforms_to_sidbase(base_sid, extended_sid):
    # SIDBase is the types + operations pair every SID leads with.
    for sid in (base_sid, extended_sid):
        assert sid.elements()[:2] == [ELEMENT_TYPES, ELEMENT_OPERATIONS]


# -- SID conformance (Fig. 2: SIDSub <: SIDBase) ----------------------------------


def test_extended_conforms_to_base(base_sid, extended_sid):
    assert extended_sid.conforms_to(base_sid)


def test_base_does_not_conform_to_extended(base_sid, extended_sid):
    assert not base_sid.conforms_to(extended_sid)


def test_conformance_requires_matching_types(base_sid):
    other = load_service_description(
        """
        module Svc {
          typedef Item_t struct { string name; };
          interface COSM_Operations { Item_t Get(in string name); };
        };
        """
    )
    # Item_t lost the 'count' field: not a subtype of the base's Item_t.
    assert not other.conforms_to(base_sid)


def test_conformance_requires_export_superset(extended_sid):
    richer = load_service_description(EXTENDED)
    richer.trader_export["Extra"] = 1
    assert richer.conforms_to(extended_sid)
    poorer = load_service_description(EXTENDED)
    del poorer.trader_export["Price"]
    assert not poorer.conforms_to(extended_sid)


def test_conformance_requires_equal_fsm(extended_sid):
    changed = load_service_description(EXTENDED)
    changed.fsm = None
    assert not changed.conforms_to(extended_sid)


def test_conforms_reflexive(extended_sid):
    assert extended_sid.conforms_to(extended_sid)


# -- wire form ---------------------------------------------------------------------


def test_wire_roundtrip_equality(extended_sid):
    assert ServiceDescription.from_wire(extended_sid.to_wire()) == extended_sid


def test_wire_form_marshals_through_rpc_codec(extended_sid):
    wire = extended_sid.to_wire()
    assert decode_value(encode_value(wire)) == wire


def test_wire_rejects_non_sid():
    with pytest.raises(SidlSemanticError):
        ServiceDescription.from_wire({"random": "dict"})


def test_wire_shares_named_types(extended_sid):
    rebuilt = ServiceDescription.from_wire(extended_sid.to_wire())
    result_type = rebuilt.interface.operation("Get").result
    assert result_type is rebuilt.types["Item_t"]


def test_double_roundtrip_stable(extended_sid):
    once = ServiceDescription.from_wire(extended_sid.to_wire())
    twice = ServiceDescription.from_wire(once.to_wire())
    assert once.to_wire() == twice.to_wire()


# -- regenerated SIDL source ----------------------------------------------------------


def test_to_sidl_parses_back_equal():
    sid = load_service_description(CAR_RENTAL_SIDL)
    regenerated = load_service_description(sid.to_sidl())
    assert regenerated == sid


def test_to_sidl_preserves_unknown_modules():
    source = """
    module M {
      interface COSM_Operations { void A(); };
      module COSM_Future { const long X = 1; };
    };
    """
    sid = load_service_description(source)
    again = load_service_description(sid.to_sidl())
    assert again.unknown_modules == sid.unknown_modules


# -- validation -----------------------------------------------------------------------


def test_validate_clean_sid():
    assert load_service_description(CAR_RENTAL_SIDL).validate() == []


def test_validate_reports_fsm_operation_mismatch():
    sid = load_service_description(
        """
        module M {
          interface COSM_Operations { void A(); };
          module COSM_FSM { state S; initial S; transition S -> S on Ghost; };
        };
        """
    )
    diagnostics = sid.validate()
    assert any("Ghost" in d for d in diagnostics)


def test_validate_reports_unreachable_states():
    sid = load_service_description(
        """
        module M {
          interface COSM_Operations { void A(); };
          module COSM_FSM { state S, ORPHAN; initial S; transition S -> S on A; };
        };
        """
    )
    assert any("ORPHAN" in d for d in sid.validate())


def test_validate_reports_dangling_annotation():
    sid = load_service_description(
        """
        module M {
          interface COSM_Operations { void A(); };
          module COSM_Annotations { annotation Nothing "about nothing"; };
        };
        """
    )
    assert any("Nothing" in d for d in sid.validate())


def test_new_session_only_with_fsm(base_sid, extended_sid):
    assert base_sid.new_session() is None
    session = extended_sid.new_session()
    assert session.state == "READY"


def test_wire_shares_named_types_in_struct_fields():
    """A named enum used inside a named struct decodes to the same object
    as the table entry (no duplication across the defs table)."""
    sid = load_service_description(CAR_RENTAL_SIDL)
    rebuilt = ServiceDescription.from_wire(sid.to_wire())
    select_t = rebuilt.types["SelectCar_t"]
    field_type = dict(select_t.fields)["CarModel"]
    assert field_type is rebuilt.types["CarModel_t"]


def test_to_sidl_stable_across_wire_roundtrip():
    sid = load_service_description(CAR_RENTAL_SIDL)
    rebuilt = ServiceDescription.from_wire(sid.to_wire())
    assert rebuilt.to_sidl() == sid.to_sidl()
