"""Tests for the Browser: registration, search, SID transfer, cascades."""

import pytest

from repro.core.browser import BrowserClient, BrowserService
from repro.core.generic_client import GenericClient
from repro.rpc.errors import RemoteFault
from repro.services.car_rental import start_car_rental
from repro.services.stock_quotes import start_stock_quotes


@pytest.fixture
def browser(make_server):
    return BrowserService(make_server("browser-host"))


@pytest.fixture
def browser_client(browser, make_client):
    return BrowserClient(make_client(), browser.ref)


def test_browser_has_its_own_sid(browser):
    assert browser.sid.name == "CosmBrowser"
    assert "Register" in browser.sid.operation_names()


def test_register_and_list(browser_client, rental):
    assert browser_client.register(rental.sid, rental.ref)
    entries = browser_client.list()
    assert [e.name for e in entries] == ["CarRentalService"]
    assert entries[0].ref == rental.ref


def test_register_local_shortcut(browser, browser_client, rental):
    browser.register_local(rental)
    assert browser.entries() == 1
    assert browser_client.list()[0].name == "CarRentalService"


def test_withdraw(browser_client, rental):
    browser_client.register(rental.sid, rental.ref)
    assert browser_client.withdraw(rental.ref.service_id)
    assert not browser_client.withdraw(rental.ref.service_id)
    assert browser_client.list() == []


def test_fetch_sid_transfers_description(browser_client, rental):
    browser_client.register(rental.sid, rental.ref)
    sid = browser_client.fetch_sid(rental.ref.service_id)
    assert sid == rental.sid


def test_fetch_sid_unknown_faults(browser_client):
    with pytest.raises(RemoteFault) as excinfo:
        browser_client.fetch_sid("ghost")
    assert excinfo.value.kind == "LookupFailure"


def test_search_by_name_operation_annotation(browser, browser_client, make_server):
    rental = start_car_rental(make_server())
    quotes = start_stock_quotes(make_server())
    browser.register_local(rental)
    browser.register_local(quotes)

    assert [e.name for e in browser_client.search("rental")] == ["CarRentalService"]
    # operation name
    assert [e.name for e in browser_client.search("getquote")] == ["StockQuotes"]
    # annotation text
    assert [e.name for e in browser_client.search("airport")] == ["CarRentalService"]
    # trader-export value
    assert [e.name for e in browser_client.search("fiat")] == ["CarRentalService"]
    # no match
    assert browser_client.search("pizza") == []


def test_reregistration_replaces_entry(browser_client, rental):
    browser_client.register(rental.sid, rental.ref)
    browser_client.register(rental.sid, rental.ref)
    assert len(browser_client.list()) == 1


def test_browser_usable_through_generic_client(browser, rental, make_client):
    """No special-case code: the browser is just another COSM service."""
    browser.register_local(rental)
    generic = GenericClient(make_client())
    binding = generic.bind(browser.ref)
    assert binding.sid.name == "CosmBrowser"
    result = binding.invoke("List")
    assert result.value[0]["name"] == "CarRentalService"
    # the entries carry service references -> cascade material
    assert [ref.name for ref in result.references] == ["CarRentalService"]


def test_browser_registers_at_another_browser(browser, make_server, make_client):
    """§3.2: 'the browser may register its own SID at yet another browser'."""
    meta_browser = BrowserService(make_server("meta-host"))
    assert browser.register_at(meta_browser.ref, make_client())
    meta_client = BrowserClient(make_client(), meta_browser.ref)
    entries = meta_client.list()
    assert [e.name for e in entries] == ["CosmBrowser"]
    # and a client can fetch the browser's SID through the meta browser
    fetched = meta_client.fetch_sid(browser.ref.service_id)
    assert fetched.name == "CosmBrowser"


def test_two_browsers_independent(make_server, make_client, rental):
    first = BrowserService(make_server())
    second = BrowserService(make_server())
    first.register_local(rental)
    assert BrowserClient(make_client(), first.ref).list() != []
    assert BrowserClient(make_client(), second.ref).list() == []
