"""§2.1 / §4.1 listings — parsing and interpreting the paper's SIDL.

Times the description pipeline on the paper's own CarRentalService text:
lexing, parsing, building the SID, deriving the trader's service type,
and the wire encode/decode a SID transfer pays.
"""

from repro.rpc.xdr import decode_value, encode_value
from repro.services.car_rental import CAR_RENTAL_SIDL, PAPER_LISTING_SIDL
from repro.sidl.builder import load_service_description
from repro.sidl.lexer import tokenize
from repro.sidl.parser import parse
from repro.sidl.sid import ServiceDescription
from repro.trader.service_types import service_type_from_sid


def test_lex_paper_listing(benchmark):
    tokens = benchmark(lambda: tokenize(PAPER_LISTING_SIDL))
    assert tokens[-1].kind == "EOF"


def test_parse_paper_listing(benchmark):
    declarations = benchmark(lambda: parse(PAPER_LISTING_SIDL))
    assert declarations[0].name == "CarRentalService"


def test_build_sid_from_paper_listing(benchmark):
    sid = benchmark(lambda: load_service_description(PAPER_LISTING_SIDL))
    assert sid.trader_export["ServiceID"] == 4711


def test_build_sid_full_description(benchmark):
    sid = benchmark(lambda: load_service_description(CAR_RENTAL_SIDL))
    assert sid.fsm is not None


def test_derive_service_type(benchmark):
    sid = load_service_description(CAR_RENTAL_SIDL)
    service_type = benchmark(lambda: service_type_from_sid(sid))
    assert "ChargePerDay" in service_type.attributes


def test_sid_wire_encode(benchmark):
    sid = load_service_description(CAR_RENTAL_SIDL)
    payload = benchmark(lambda: encode_value(sid.to_wire()))
    assert len(payload) > 100


def test_sid_wire_decode(benchmark):
    sid = load_service_description(CAR_RENTAL_SIDL)
    payload = encode_value(sid.to_wire())

    def decode():
        return ServiceDescription.from_wire(decode_value(payload))

    again = benchmark(decode)
    assert again == sid


def test_sid_source_regeneration(benchmark):
    sid = load_service_description(CAR_RENTAL_SIDL)
    source = benchmark(sid.to_sidl)
    assert "CarRentalService" in source
