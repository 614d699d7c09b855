"""Tests for the networked trader (RPC service + client stub) — Fig. 1."""

import pytest

from repro.naming.refs import ServiceRef
from repro.net.endpoints import Address
from repro.rpc.client import RpcClient
from repro.rpc.errors import RemoteFault
from repro.rpc.server import RpcServer
from repro.rpc.transport import TcpTransport
from repro.sidl.types import DOUBLE, InterfaceType, LONG, OperationType, STRING
from repro.telemetry.metrics import METRICS
from repro.trader.errors import ConstraintSyntaxError, TraderError, UnknownServiceType
from repro.trader.service_types import ServiceType
from repro.trader.sharding import MigrationSealed, build_local_router
from repro.trader.trader import (
    _PROC_EXPORT,
    ImportRequest,
    LocalTrader,
    TraderClient,
    TraderService,
)


def rental_type():
    return ServiceType(
        "CarRentalService",
        InterfaceType("I", [OperationType("SelectCar", [], LONG)]),
        [("ChargePerDay", DOUBLE), ("ChargeCurrency", STRING)],
    )


PROPS = {"ChargePerDay": 80.0, "ChargeCurrency": "USD"}


@pytest.fixture
def stack(make_server, make_client):
    service = TraderService(make_server("trader-host"))
    client = TraderClient(make_client(), service.address)
    client.add_type(rental_type())
    return service, client


def test_add_and_list_types(stack):
    __, client = stack
    assert client.list_types() == ["CarRentalService"]
    fetched = client.get_type("CarRentalService")
    assert fetched == rental_type()


def test_remote_export_import_cycle(stack):
    __, client = stack
    ref = ServiceRef.create("rental", Address("h", 2), 4711)
    offer_id = client.export("CarRentalService", ref, PROPS)
    offers = client.import_(ImportRequest("CarRentalService"))
    assert [o.offer_id for o in offers] == [offer_id]
    assert offers[0].service_ref() == ref


def test_remote_withdraw_and_modify(stack):
    __, client = stack
    ref = ServiceRef.create("rental", Address("h", 2), 4711)
    offer_id = client.export("CarRentalService", ref, PROPS)
    assert client.modify(offer_id, {"ChargePerDay": 50.0, "ChargeCurrency": "DEM"})
    assert client.import_(ImportRequest("CarRentalService"))[0].properties[
        "ChargePerDay"
    ] == 50.0
    assert client.withdraw(offer_id)
    assert client.import_(ImportRequest("CarRentalService")) == []


def test_remote_select_best(stack):
    __, client = stack
    for name, charge in (("a", 90.0), ("b", 40.0)):
        client.export(
            "CarRentalService",
            ServiceRef.create(name, Address("h", 3), 4711),
            {"ChargePerDay": charge, "ChargeCurrency": "USD"},
        )
    best = client.select_best(
        ImportRequest("CarRentalService", preference="min ChargePerDay")
    )
    assert best.service_ref().name == "b"


def test_remote_errors_surface_as_faults(stack):
    __, client = stack
    with pytest.raises(UnknownServiceType):
        client.export(
            "Ghost", ServiceRef.create("x", Address("h", 1), 1), {}
        )


def test_a_fault_is_raised_as_the_trader_error_its_kind_names():
    """The stub's rule: a kind naming a :class:`TraderError` subclass raises
    that class, with the remote detail as message and the fault as cause;
    any other kind stays a :class:`RemoteFault`."""
    with pytest.raises(MigrationSealed) as typed:
        RemoteFault("MigrationSealed", "CarRentalService sealed").reraise_as(TraderError)
    assert str(typed.value) == "CarRentalService sealed"
    assert isinstance(typed.value.__cause__, RemoteFault)
    with pytest.raises(RemoteFault, match="KeyError"):
        RemoteFault("KeyError", "'ref'").reraise_as(TraderError)


MALFORMED = (
    ImportRequest("CarRentalService", "ChargePerDay <"),
    ImportRequest("CarRentalService", "", "cheapest"),
)


@pytest.mark.parametrize("request_", MALFORMED, ids=("constraint", "preference"))
@pytest.mark.parametrize("backend", ("bare", "router"))
def test_malformed_import_is_a_typed_fault_not_an_empty_answer(backend, request_):
    """Over real loopback TCP: a constraint or preference that does not
    parse is the importer's error and must come back as one — ``[]``
    would say "no such offers".  An unknown type still answers ``[]``."""
    trader = LocalTrader() if backend == "bare" else build_local_router(["s0", "s1"])
    server_transport, client_transport = TcpTransport(), TcpTransport()
    try:
        service = TraderService(RpcServer(server_transport), trader=trader)
        client = TraderClient(
            RpcClient(client_transport, timeout=2.0, retries=0), service.address
        )
        client.add_type(rental_type())
        client.export(
            "CarRentalService", ServiceRef.create("x", Address("h", 1), 1), PROPS
        )
        with pytest.raises(ConstraintSyntaxError):
            trader.import_wire(request_.to_wire())
        with pytest.raises(ConstraintSyntaxError):
            client.import_(request_)
        assert client.import_(ImportRequest("Ghost")) == []
        assert len(client.import_(ImportRequest("CarRentalService"))) == 1
    finally:
        server_transport.close()
        client_transport.close()


HOSTILE = {
    "parens": "(" * 200 + "ChargePerDay < 90" + ")" * 200,
    "and-chain": " and ".join(["ChargePerDay < 90"] * 3000),
}


@pytest.mark.parametrize("text", HOSTILE.values(), ids=HOSTILE.keys())
@pytest.mark.parametrize("backend", ("bare", "router"))
def test_hostile_constraint_is_a_typed_fault(make_server, make_client, backend, text):
    """A constraint past the nesting or size bound is refused as
    ``ConstraintSyntaxError`` on the wire (never ``RecursionError``), and
    the stub raises it typed, whether a trader or a shard router serves."""
    trader = LocalTrader() if backend == "bare" else build_local_router(["s0", "s1"])
    service = TraderService(make_server("trader-host"), trader=trader)
    client = TraderClient(make_client(), service.address)
    client.add_type(rental_type())
    client.export("CarRentalService", ServiceRef.create("x", Address("h", 1), 1), PROPS)
    with pytest.raises(ConstraintSyntaxError) as typed:
        client.import_(ImportRequest("CarRentalService", text))
    fault = typed.value.__cause__
    assert isinstance(fault, RemoteFault) and fault.kind == "ConstraintSyntaxError"
    assert len(client.import_(ImportRequest("CarRentalService", "ChargePerDay < 90"))) == 1


def test_remote_mask_type(stack):
    __, client = stack
    client.export(
        "CarRentalService", ServiceRef.create("x", Address("h", 1), 1), PROPS
    )
    client.mask_type("CarRentalService")
    assert client.import_(ImportRequest("CarRentalService")) == []


def test_networked_federation(make_server, make_client):
    """Two traders federate over RPC; imports cross the link."""
    hamburg = TraderService(make_server("hh"), client=make_client())
    bremen = TraderService(make_server("hb"), client=make_client())
    hh_client = TraderClient(make_client(), hamburg.address)
    hb_client = TraderClient(make_client(), bremen.address)
    hh_client.add_type(rental_type())
    hb_client.add_type(rental_type())
    hb_client.export(
        "CarRentalService",
        ServiceRef.create("bremen-rental", Address("hb", 7), 4711),
        PROPS,
    )
    hamburg.link_to(bremen.address)
    local_only = hh_client.import_(ImportRequest("CarRentalService"))
    assert local_only == []
    federated = hh_client.import_(ImportRequest("CarRentalService", hop_limit=1))
    assert [o.service_ref().name for o in federated] == ["bremen-rental"]


def test_full_fig1_flow(stack, make_server, make_client, rental):
    """Fig. 1 end to end: export (1), import (2-3), bind+invoke (4-5)."""
    __, trader = stack
    # 1: the exporter registers its offer
    trader.export("CarRentalService", rental.ref, PROPS)
    # 2-3: the importer asks and gets the service identifier back
    offers = trader.import_(ImportRequest("CarRentalService", "ChargePerDay < 100"))
    assert len(offers) == 1
    # 4-5: direct binding and interaction with the selected server
    from repro.naming.binder import Binder

    binding = Binder(make_client()).bind(offers[0].service_ref())
    result = binding.invoke(
        "SelectCar",
        {"selection": {"CarModel": "AUDI", "BookingDate": "1994-06-21", "Days": 1}},
    )
    assert result["available"] is True


# -- IMPORT replies travel as compiled offer records -------------------------


def imported(client, type_name="CarRentalService"):
    return {offer.offer_id: offer for offer in client.import_(ImportRequest(type_name))}


def fallbacks():
    return METRICS.counter("rpc.codec.fallback", ("result", "encode"))


def test_an_offer_that_misfits_the_record_layout_sends_its_reply_tagged(stack):
    service, client = stack
    fits = client.export(
        "CarRentalService", ServiceRef.create("a", Address("h", 1), 1), PROPS
    )
    odd_ref = dict(ServiceRef.create("b", Address("h", 2), 1).to_wire(), zone="eu")
    misfit = client.export("CarRentalService", odd_ref, PROPS)
    before = fallbacks()
    offers = imported(client)
    assert fallbacks() == before + 1
    assert offers[misfit].ref == odd_ref
    assert offers[fits].to_wire() == service.trader.offers.get(fits).to_wire()


def test_an_offer_exported_with_integer_stamps_is_answered_compiled(make_server, make_client):
    """An integer clock and an integer lease (either wire spelling) are
    stored as floats, so one such exporter cannot send every reply that
    holds its offer down the tagged path."""
    service = TraderService(make_server("trader-host"), now=lambda: 100)
    client = TraderClient(make_client(), service.address)
    client.add_type(rental_type())
    ref = ServiceRef.create("a", Address("h", 1), 1)
    leased = client.export("CarRentalService", ref, PROPS, 60)
    old_spelling = client._call(  # the pre-lease ``lifetime`` spelling
        _PROC_EXPORT,
        {"service_type": "CarRentalService", "ref": ref.to_wire(), "properties": PROPS,
         "lifetime": 30},
    )
    before = fallbacks()
    offers = imported(client)
    assert fallbacks() == before
    stamps = {
        offer_id: (offer.exported_at, offer.expires_at, offer.lease_seconds)
        for offer_id, offer in offers.items()
    }
    assert stamps == {leased: (100.0, 160.0, 60.0), old_spelling: (100.0, 130.0, 30.0)}
    assert all(type(stamp) is float for triple in stamps.values() for stamp in triple)
