"""Tests for broadcast service discovery (LAN bootstrap)."""

import pytest

from repro.core import BrowserService, GenericClient
from repro.errors import LookupFailure
from repro.naming.discovery import (
    DISCOVERY_PORT,
    BroadcastDiscoverer,
    DiscoveryResponder,
)
from repro.rpc.client import RpcClient
from repro.rpc.message import ReplyStatus
from repro.rpc.xdr import encode_value
from repro.telemetry.metrics import METRICS
from tests.conftest import BAD_UTF8_VALUE, SELECTION


@pytest.fixture
def lan(net, make_server, make_client, rental):
    """Two discoverable hosts: a browser host and a trader host."""
    browser = BrowserService(make_server("browser-host"))
    browser.register_local(rental)
    browser_responder = DiscoveryResponder(net, "browser-host")
    browser_responder.advertise("browser", browser.ref)

    from repro.trader.trader import TraderService

    trader = TraderService(make_server("trader-host"))
    trader_responder = DiscoveryResponder(net, "trader-host")
    trader_responder.advertise(
        "trader",
        {"__cosm__": "service_reference", "service_id": "t", "name": "Trader",
         "host": "trader-host", "port": trader.address.port,
         "prog": 100200, "vers": 1},
    )
    discoverer = BroadcastDiscoverer(net, make_client("newcomer"))
    return {
        "browser": browser,
        "browser_responder": browser_responder,
        "discoverer": discoverer,
    }


def test_discover_all_roles(lan):
    found = lan["discoverer"].discover()
    assert {item["role"] for item in found} == {"browser", "trader"}


def test_discover_filters_by_role(lan):
    browsers = lan["discoverer"].find_refs("browser")
    assert [ref.name for ref in browsers] == ["CosmBrowser"]
    assert lan["discoverer"].find_refs("nameserver") == []


def test_find_first_raises_when_nobody_answers(lan):
    with pytest.raises(LookupFailure):
        lan["discoverer"].find_first("nameserver", timeout=0.01)


def test_discovered_browser_is_usable(lan, make_client):
    """Zero-configuration entry: broadcast, bind, browse, use (Fig. 4)."""
    browser_ref = lan["discoverer"].find_first("browser")
    generic = GenericClient(make_client("fresh-user"))
    browsing = generic.bind(browser_ref)
    browsing.invoke("Search", {"query": "rental"})
    rental_binding = browsing.bind_discovered()
    assert rental_binding.invoke("SelectCar", {"selection": SELECTION}).value[
        "available"
    ]


def test_withdraw_advertisement(lan):
    responder = lan["browser_responder"]
    assert responder.withdraw(lan["browser"].ref)
    assert not responder.withdraw(lan["browser"].ref)
    assert lan["discoverer"].find_refs("browser") == []


def test_discovery_with_lossy_lan(lan, net):
    """Broadcast answers are best-effort; loss shrinks, never breaks."""
    net.faults.drop_probability = 1.0
    assert lan["discoverer"].discover() == []
    net.faults.drop_probability = 0.0
    assert len(lan["discoverer"].discover()) == 2


def test_tcp_transport_rejected(net):
    from repro.rpc.transport import TcpTransport

    transport = TcpTransport()
    try:
        client = RpcClient(transport)
        with pytest.raises(LookupFailure):
            BroadcastDiscoverer(net, client)
    finally:
        transport.close()


def test_empty_lan_returns_empty(net, make_client):
    discoverer = BroadcastDiscoverer(net, make_client())
    assert discoverer.discover(timeout=0.01) == []


def test_malformed_responder_replies_are_skipped_and_counted(lan, rogue_peer):
    """Anyone on the LAN may answer a broadcast; one bad answer spoils nothing."""
    rogue_peer("garbled-host", ReplyStatus.SUCCESS, BAD_UTF8_VALUE, port=DISCOVERY_PORT)
    rogue_peer("odd-host", ReplyStatus.SUCCESS, encode_value(7), port=DISCOVERY_PORT)
    counted = METRICS.counter_total("rpc.client.malformed_replies")
    found = lan["discoverer"].discover()
    assert {item["role"] for item in found} == {"browser", "trader"}
    assert METRICS.counter_total("rpc.client.malformed_replies") == counted + 2
