"""Failure injection across the whole stack: loss, partitions, crashes."""

import pytest

from repro.core import BrowserService, GenericClient
from repro.core.browser import BrowserClient
from repro.errors import BindingError
from repro.rpc.errors import RpcError, RpcTimeout
from repro.services.car_rental import start_car_rental
from repro.trader.trader import ImportRequest, TraderClient, TraderService
from repro.trader.service_types import service_type_from_sid
from tests.conftest import SELECTION


def test_mediation_survives_packet_loss(net, make_server, make_client):
    """Bind + SID transfer + invoke all complete under 30% loss."""
    rental = start_car_rental(make_server())
    net.faults.drop_probability = 0.3
    generic = GenericClient(make_client(timeout=0.05, retries=30))
    binding = generic.bind(rental.ref)
    result = binding.invoke("SelectCar", {"selection": SELECTION})
    assert result.value["available"] is True
    # at-most-once: loss caused retransmissions but only one booking
    binding.invoke("BookCar")
    assert rental.implementation.bookings == 1


def test_trading_survives_packet_loss(net, make_server, make_client, rental):
    trader = TraderService(make_server())
    client = TraderClient(make_client(timeout=0.05, retries=30), trader.address)
    net.faults.drop_probability = 0.25
    client.add_type(service_type_from_sid(rental.sid))
    client.export(
        "CarRentalService",
        rental.ref,
        {
            "CarModel": "AUDI",
            "AverageMilage": 1000,
            "ChargePerDay": 10.0,
            "ChargeCurrency": "USD",
        },
    )
    offers = client.import_(ImportRequest("CarRentalService"))
    assert len(offers) == 1


def test_crashed_service_yields_binding_error(net, make_server, make_client):
    rental = start_car_rental(make_server("dying-host"))
    net.faults.crash("dying-host")
    generic = GenericClient(make_client(timeout=0.02, retries=1))
    with pytest.raises(BindingError):
        generic.bind(rental.ref)


def test_crash_mid_session_times_out_then_recovers(net, make_server, make_client):
    rental = start_car_rental(make_server("flaky-host"))
    generic = GenericClient(make_client(timeout=0.02, retries=1))
    binding = generic.bind(rental.ref)
    net.faults.crash("flaky-host")
    with pytest.raises(RpcError):
        binding.invoke("SelectCar", {"selection": SELECTION})
    # client FSM did not advance on the failed call
    assert binding.state() == "INIT"
    net.faults.recover("flaky-host")
    result = binding.invoke("SelectCar", {"selection": SELECTION})
    assert result.state == "SELECTED"


def test_partition_between_client_and_browser(net, make_server, make_client, rental):
    browser = BrowserService(make_server("browser-host"))
    browser.register_local(rental)
    client_rpc = make_client(host="client-host", timeout=0.02, retries=1)
    browser_client = BrowserClient(client_rpc, browser.ref)
    assert len(browser_client.list()) == 1
    net.faults.partition("client-host", "browser-host")
    with pytest.raises(RpcError):
        browser_client.list()
    # the partition does not affect direct client->service traffic
    generic = GenericClient(client_rpc)
    binding = generic.bind(rental.ref)
    assert binding.invoke("SelectCar", {"selection": SELECTION}).value["available"]
    net.faults.heal_all()
    assert len(browser_client.list()) == 1


def test_federation_survives_dead_peer(net, make_server, make_client):
    """A federated import skips an unreachable peer trader."""
    alive = TraderService(make_server("alive"), client=make_client(timeout=0.02, retries=0))
    dead = TraderService(make_server("dead"), client=make_client())
    alive_client = TraderClient(make_client(), alive.address)
    from repro.sidl.builder import load_service_description
    from repro.services.car_rental import CAR_RENTAL_SIDL

    sid = load_service_description(CAR_RENTAL_SIDL)
    alive_client.add_type(service_type_from_sid(sid))
    alive.link_to(dead.address)
    net.faults.crash("dead")
    offers = alive_client.import_(ImportRequest("CarRentalService", hop_limit=1))
    assert offers == []  # no crash, just no remote offers


def test_duplicated_packets_do_not_double_execute(net, make_server, make_client):
    rental = start_car_rental(make_server())
    net.faults.duplicate_probability = 1.0
    generic = GenericClient(make_client())
    binding = generic.bind(rental.ref)
    binding.invoke("SelectCar", {"selection": SELECTION})
    binding.invoke("BookCar")
    # every request arrived twice; at-most-once kept execution single
    assert rental.implementation.bookings == 1
    assert rental.invocations == 2


def test_timeout_has_bounded_latency(net, make_client):
    from repro.net.endpoints import Address

    client = make_client(timeout=0.05, retries=3)
    start = net.clock.now
    with pytest.raises(RpcTimeout):
        client.call(Address("void", 1), 1234, 1, 1)
    elapsed = net.clock.now - start
    assert elapsed == pytest.approx(0.2, abs=0.01)  # 4 attempts x 50ms
