"""Tests for the example application services."""

import pytest

from repro.core.generic_client import GenericClient
from repro.rpc.errors import RemoteFault
from repro.services.car_rental import (
    CarRentalImpl,
    make_car_rental_sid,
    start_car_rental,
)
from repro.services.image_conversion import (
    convert_image,
    start_image_archive,
    start_image_converter,
)
from repro.services.stock_quotes import StockQuotesImpl, start_stock_quotes
from repro.services.directory import start_directory
from tests.conftest import SELECTION


@pytest.fixture
def generic(make_client):
    return GenericClient(make_client())


# -- car rental --------------------------------------------------------------------


def test_car_rental_quote_scales_with_days():
    impl = CarRentalImpl(charge_per_day=50.0)
    quote = impl.SelectCar({"CarModel": "AUDI", "BookingDate": "d", "Days": 4})
    assert quote == {"available": True, "charge": 200.0, "currency": "USD"}


def test_car_rental_unavailable_model():
    impl = CarRentalImpl()
    impl.fleet = {"AUDI": 0}
    quote = impl.SelectCar({"CarModel": "AUDI", "BookingDate": "d", "Days": 1})
    assert quote["available"] is False
    assert quote["charge"] == 0.0


def test_car_rental_booking_decrements_fleet():
    impl = CarRentalImpl()
    impl.fleet = {"AUDI": 1}
    impl.SelectCar({"CarModel": "AUDI", "BookingDate": "d", "Days": 1})
    booking = impl.BookCar()
    assert booking["pickup_station"] == "Hamburg Airport"
    assert impl.fleet["AUDI"] == 0
    assert impl.bookings == 1


def test_car_rental_book_without_select_raises():
    with pytest.raises(ValueError):
        CarRentalImpl().BookCar()


def test_make_car_rental_sid_parameterised():
    sid = make_car_rental_sid(
        model="AUDI", charge_per_day=99.0, currency="DEM", service_id=5000,
        name="BudgetRental",
    )
    assert sid.name == "BudgetRental"
    assert sid.trader_export["CarModel"] == "AUDI"
    assert sid.trader_export["ChargePerDay"] == 99.0
    assert sid.trader_export["ServiceID"] == 5000


def test_car_rental_full_protocol(generic, make_server):
    runtime = start_car_rental(make_server())
    binding = generic.bind(runtime.ref)
    binding.invoke("SelectCar", {"selection": SELECTION})
    result = binding.invoke("BookCar")
    assert result.value["confirmation"] > 0
    assert binding.state() == "INIT"


# -- image archive & converter (§2.3 value-adding) -----------------------------------


def test_convert_image_tags_payload():
    assert convert_image(b"data", "PPM", "GIF") == b"[PPM->GIF]data"
    assert convert_image(b"data", "PPM", "PPM") == b"data"


def test_archive_serves_images(generic, make_server):
    archive = start_image_archive(make_server())
    binding = generic.bind(archive.ref)
    names = binding.invoke("ListImages").value
    assert names == ["alster", "hafen", "michel"]
    image = binding.invoke("Fetch", {"name": "hafen"}).value
    assert image["format"] == "PPM"
    assert isinstance(image["data"], bytes)


def test_archive_unknown_image_faults(generic, make_server):
    archive = start_image_archive(make_server())
    binding = generic.bind(archive.ref)
    with pytest.raises(RemoteFault):
        binding.invoke("Fetch", {"name": "ghost"})


def test_converter_is_client_of_archive(generic, make_server, make_client):
    archive = start_image_archive(make_server())
    converter = start_image_converter(make_server(), make_client(), archive.ref)
    binding = generic.bind(converter.ref)
    image = binding.invoke(
        "FetchConverted", {"name": "alster", "target": "GIF"}
    ).value
    assert image["format"] == "GIF"
    assert image["data"].startswith(b"[PPM->GIF]")
    # the upstream archive actually served the fetch
    assert archive.implementation.fetches == 1


def test_converter_exposes_upstream_reference(generic, make_server, make_client):
    archive = start_image_archive(make_server())
    converter = start_image_converter(make_server(), make_client(), archive.ref)
    binding = generic.bind(converter.ref)
    result = binding.invoke("Upstream")
    assert result.references[0].service_id == archive.ref.service_id
    upstream_binding = binding.bind_discovered()
    assert upstream_binding.service_name == "ImageArchive"


# -- stock quotes ------------------------------------------------------------------------


def test_quotes_deterministic_by_seed():
    first = StockQuotesImpl().GetQuote("DAI")
    second = StockQuotesImpl().GetQuote("DAI")
    assert first == second
    assert first["ask"] > first["bid"]


def test_quotes_batch_operation(generic, make_server):
    quotes = start_stock_quotes(make_server())
    binding = generic.bind(quotes.ref)
    result = binding.invoke("GetQuotes", {"symbols": ["DAI", "SIE"]}).value
    assert [q["symbol"] for q in result] == ["DAI", "SIE"]


def test_quotes_have_no_trader_export(make_server):
    quotes = start_stock_quotes(make_server())
    assert quotes.sid.trader_export is None
    assert quotes.sid.service_type_name is None


# -- directory -----------------------------------------------------------------------------


def test_directory_categories_and_lookup(generic, make_server, rental):
    directory = start_directory(make_server())
    binding = generic.bind(directory.ref)
    binding.invoke(
        "Advertise",
        {"category": "travel", "description": "cars", "ref": rental.ref.to_wire()},
    )
    assert binding.invoke("Categories").value == ["travel"]
    listing = binding.invoke("Lookup", {"category": "travel"}).value
    assert listing[0]["description"] == "cars"
    assert binding.invoke("Lookup", {"category": "food"}).value == []
