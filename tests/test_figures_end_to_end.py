"""One end-to-end test per paper figure — the scenarios the benchmarks time.

Each test narrates its figure's numbered steps so a reader can line the
code up with the paper.
"""

import pytest

from repro.core import (
    BrowserService,
    CosmMediator,
    GenericClient,
    ServiceRuntime,
    make_tradable,
)
from repro.core.browser import BrowserClient
from repro.naming.binder import Binder
from repro.naming.nameserver import NameServerClient, NameServerService
from repro.rpc.errors import RemoteFault
from repro.sidl.builder import load_service_description
from repro.sidl.fsm import FsmViolation
from repro.sidl.sid import ServiceDescription
from repro.services.car_rental import start_car_rental
from repro.trader.trader import ImportRequest, TraderClient, TraderService
from repro.uims.session import UiSession
from tests.conftest import SELECTION


def test_fig1_trader_and_its_users(make_server, make_client, rental):
    """Fig. 1: exporter(1) -> trader; importer(2,3); bind(4); invoke(5)."""
    trader_service = TraderService(make_server())
    exporter = TraderClient(make_client(), trader_service.address)
    importer = TraderClient(make_client(), trader_service.address)
    # step 1: export
    make_tradable(rental.sid, rental.ref, exporter)
    # steps 2+3: import returns service identifiers
    offers = importer.import_(
        ImportRequest("CarRentalService", "ChargePerDay <= 80", "min ChargePerDay")
    )
    assert len(offers) == 1
    # steps 4+5: direct binding, then interaction without the trader
    binding = Binder(make_client()).bind(offers[0].service_ref())
    assert binding.invoke("SelectCar", {"selection": SELECTION})["available"]


def test_fig2_sid_extension_and_old_components(make_server, make_client):
    """Fig. 2: SIDSub extends SIDBase; base-aware components still work."""
    base_source = """
    module Printer {
      interface COSM_Operations { boolean Print(in string text); };
    };
    """
    extended_source = """
    module Printer {
      interface COSM_Operations { boolean Print(in string text); };
      module COSM_FSM { state READY; initial READY; transition READY -> READY on Print; };
      module COSM_TraderExport { const string TOD = "Printer"; const float Price = 0.1; };
      module COSM_ColorProfile { const string Gamut = "sRGB"; };
    };
    """
    base = load_service_description(base_source)
    extended = load_service_description(extended_source)
    # the extension conforms to the base (Fig. 2's subtype arrow)
    assert extended.conforms_to(base)
    # an old component transfers the extended SID and still drives it
    runtime = ServiceRuntime(make_server(), extended, {"Print": lambda text: True})
    binding = GenericClient(make_client()).bind(runtime.ref)
    assert binding.sid.conforms_to(base)
    assert binding.invoke("Print", {"text": "hello"}).value is True
    # the unknown COSM_ColorProfile embedding survived the transfer
    assert [name for name, __ in binding.sid.unknown_modules] == ["COSM_ColorProfile"]


def test_fig3_dynamic_binding_sid_transfer_gui_generation(make_client, rental):
    """Fig. 3: bind -> SID transfer -> GUI generation -> invocation."""
    generic = GenericClient(make_client())
    session = UiSession(generic)
    panel = session.open(rental.ref)  # bind + SID transfer + GUI generation
    assert set(panel.controllers) == {"SelectCar", "BookCar"}
    screen = session.screen()
    assert "CarModel" in screen and "BookingDate" in screen
    session.fill("SelectCar.selection.CarModel", "FIAT-Uno")
    session.fill("SelectCar.selection.BookingDate", "1994-06-21")
    session.fill("SelectCar.selection.Days", 1)
    assert session.click("SelectCar")["available"] is True


def test_fig4_browser_mediation_and_cascade(make_server, make_client, rental):
    """Fig. 4: SID registration(1), browsing(2), binding to the server(3)."""
    browser = BrowserService(make_server())
    # step 1: the application server registers its SID
    BrowserClient(make_client(), browser.ref).register(rental.sid, rental.ref)
    # step 2: the generic client browses (the browser is itself a service)
    generic = GenericClient(make_client())
    browser_binding = generic.bind(browser.ref)
    result = browser_binding.invoke("Search", {"query": "rental"})
    assert result.references
    # step 3: binding to the server out of the browse result
    rental_binding = browser_binding.bind_discovered()
    assert rental_binding.depth == 1
    assert rental_binding.invoke("SelectCar", {"selection": SELECTION}).value[
        "available"
    ]


def test_fsm_guard_listing_section_3_1(make_client, rental):
    """§3.1 + §4.2: non-conforming invocations rejected locally."""
    generic = GenericClient(make_client())
    binding = generic.bind(rental.ref)
    sent_before = generic._client.calls_sent
    with pytest.raises(FsmViolation):
        binding.invoke("BookCar")
    assert generic._client.calls_sent == sent_before  # zero network traffic
    # a client with guards off pays the round trip and gets a remote fault
    loose = GenericClient(make_client(), enforce_fsm=False)
    loose_binding = loose.bind(rental.ref)
    with pytest.raises(RemoteFault):
        loose_binding.invoke("BookCar")


def test_section_4_1_integration_listing(make_server, make_client, rental):
    """§4.1: the same SID serves browsing *and* trader export."""
    browser = BrowserService(make_server())
    browser.register_local(rental)
    trader_service = TraderService(make_server())
    trader = TraderClient(make_client(), trader_service.address)
    make_tradable(rental.sid, rental.ref, trader)
    mediator = CosmMediator(
        make_client(), trader_address=trader_service.address, browser_refs=[browser.ref]
    )
    via_trader = mediator.import_from_trader("CarRentalService", "ChargePerDay < 100")
    via_browser = mediator.browse("rental")
    assert via_trader[0].ref.service_id == via_browser[0].ref.service_id


def test_fig6_full_stack_layers(net, make_server, make_client):
    """Fig. 6: one request crossing every architectural layer."""
    # Communication + Service Support Level
    names = NameServerService(make_server("support-host"))
    name_client = NameServerClient(make_client(), names.address)
    # Client/Service Level: an application server + browser
    rental = start_car_rental(make_server("app-host"))
    browser = BrowserService(make_server("browser-host"))
    browser.register_local(rental)
    name_client.bind("cosm/browser", browser.ref.to_wire())
    # Controlling Level: the trader
    trader_service = TraderService(make_server("trader-host"))
    trader = TraderClient(make_client(), trader_service.address)
    make_tradable(rental.sid, rental.ref, trader)
    name_client.bind("cosm/trader", {"host": "trader-host"})
    # User Level: a human at a generic client, entering via the name server
    from repro.naming.refs import ServiceRef

    browser_ref = ServiceRef.from_wire(name_client.resolve("cosm/browser"))
    session = UiSession(GenericClient(make_client(host="user-host")))
    session.open(browser_ref)
    session.fill("Search.query", "rental")
    session.click("Search")
    session.click_bind("Search")
    session.fill("SelectCar.selection.CarModel", "AUDI")
    session.fill("SelectCar.selection.BookingDate", "1994-06-21")
    session.fill("SelectCar.selection.Days", 2)
    session.click("SelectCar")
    booking = session.click("BookCar")
    assert booking["confirmation"] > 0


def test_fig7_generated_interface_matches_description(make_client, rental):
    """Fig. 7: 'Service description and the resulting user interface'."""
    generic = GenericClient(make_client())
    session = UiSession(generic)
    session.open(rental.ref)
    screen = session.screen()
    sid = rental.sid
    # every operation appears as a form
    for operation_name in sid.operation_names():
        assert f"=== {operation_name} ===" in screen
    # every in-parameter field appears as a typed editor
    select_t = sid.types["SelectCar_t"]
    for field_name, __ in select_t.fields:
        assert field_name in screen
    # annotations become captions
    assert "Check availability" in screen
    # and the regenerated SIDL source matches what the UI was built from
    assert ServiceDescription.from_wire(sid.to_wire()).to_sidl() == sid.to_sidl()
