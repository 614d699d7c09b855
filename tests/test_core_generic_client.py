"""Tests for the Generic Client: SID-driven dynamic access (Figs. 3 & 4)."""

import pytest

from repro.core.generic_client import GenericClient
from repro.rpc.errors import RemoteFault
from repro.sidl.errors import SidlTypeError
from repro.sidl.fsm import FsmViolation
from repro.services.car_rental import start_car_rental
from repro.services.directory import start_directory
from repro.services.stock_quotes import start_stock_quotes
from tests.conftest import SELECTION


@pytest.fixture
def generic(make_client):
    return GenericClient(make_client())


@pytest.fixture
def binding(generic, rental):
    return generic.bind(rental.ref)


# -- SID transfer & introspection (Fig. 3) ----------------------------------------


def test_bind_transfers_sid(binding):
    assert binding.sid.name == "CarRentalService"
    assert binding.service_name == "CarRentalService"
    assert binding.operations() == ["SelectCar", "BookCar"]


def test_describe_includes_signature_and_annotation(binding):
    description = binding.describe("SelectCar")
    assert "SelectCar" in description
    assert "selection" in description
    assert "availability" in description  # the SID's annotation text


def test_initial_state_and_allowed_operations(binding):
    assert binding.state() == "INIT"
    assert binding.fsm.allows("SelectCar")
    assert not binding.fsm.allows("BookCar")


# -- dynamic invocation with local guards -------------------------------------------


def test_invoke_returns_result_and_state(binding):
    result = binding.invoke("SelectCar", {"selection": SELECTION})
    assert result.value["available"] is True
    assert result.state == "SELECTED"
    assert binding.fsm.allows("SelectCar") and binding.fsm.allows("BookCar")


def test_local_fsm_rejection_without_network(binding, rental, generic):
    with pytest.raises(FsmViolation):
        binding.invoke("BookCar")
    # rejected locally: the server never saw the call (§4.2)
    assert rental.fsm_rejections == 0
    assert binding.local_rejections == 1
    assert generic.local_rejections == 1


def test_local_type_checking_before_wire(binding, rental):
    invocations_before = rental.invocations
    with pytest.raises(SidlTypeError):
        binding.invoke("SelectCar", {"selection": {"CarModel": "TRABANT"}})
    with pytest.raises(SidlTypeError):
        binding.invoke("SelectCar", {})
    assert rental.invocations == invocations_before


def test_client_fsm_mirrors_server(binding):
    binding.invoke("SelectCar", {"selection": SELECTION})
    binding.invoke("SelectCar", {"selection": SELECTION})  # SELECTED loop
    binding.invoke("BookCar")
    assert binding.state() == "INIT"
    assert binding.invocations == 3


def test_fsm_stays_put_when_server_faults(generic, make_server):
    runtime = start_car_rental(make_server())
    runtime.implementation.fleet = {}  # nothing available
    binding = generic.bind(runtime.ref)
    result = binding.invoke("SelectCar", {"selection": SELECTION})
    assert result.value["available"] is False
    # SelectCar still advanced the FSM (the call succeeded)
    assert binding.state() == "SELECTED"
    # but BookCar raises remotely (no car staged) without desync:
    with pytest.raises(RemoteFault):
        binding.invoke("BookCar")
    assert binding.state() == "SELECTED"  # both sides still in SELECTED


def test_guards_can_be_disabled(make_client, rental):
    loose = GenericClient(make_client(), enforce_fsm=False, check_types=False)
    binding = loose.bind(rental.ref)
    # the client lets it through; the server rejects it
    with pytest.raises(RemoteFault) as excinfo:
        binding.invoke("BookCar")
    assert excinfo.value.kind == "FsmViolation"


def test_stateless_service_has_no_guard(generic, make_server):
    quotes = start_stock_quotes(make_server())
    binding = generic.bind(quotes.ref)
    assert binding.state() is None
    assert binding.fsm is None
    result = binding.invoke("GetQuote", {"symbol": "DAI"})
    assert result.value["symbol"] == "DAI"


# -- cascade binding (Fig. 4) ----------------------------------------------------------


def test_references_discovered_in_results(generic, make_server, rental):
    directory = start_directory(make_server())
    directory_binding = generic.bind(directory.ref)
    directory_binding.invoke(
        "Advertise",
        {"category": "travel", "description": "cars", "ref": rental.ref.to_wire()},
    )
    result = directory_binding.invoke("Lookup", {"category": "travel"})
    assert result.references
    assert result.references[0].name == "CarRentalService"
    assert directory_binding.discovered == result.references


def test_cascade_depth_increases(generic, make_server, rental):
    directory = start_directory(make_server())
    directory_binding = generic.bind(directory.ref)
    directory_binding.invoke(
        "Advertise",
        {"category": "travel", "description": "cars", "ref": rental.ref.to_wire()},
    )
    directory_binding.invoke("Lookup", {"category": "travel"})
    rental_binding = directory_binding.bind_discovered()
    assert rental_binding.depth == 1
    assert rental_binding.service_name == "CarRentalService"
    # the new binding has its own fresh FSM session
    assert rental_binding.state() == "INIT"


def test_three_level_cascade(generic, make_server, rental):
    """Directory -> directory -> service: 'a cascade of bindings ... can
    evolve from several consecutive binding establishments'."""
    inner = start_directory(make_server())
    outer = start_directory(make_server())
    inner_binding = generic.bind(inner.ref)
    inner_binding.invoke(
        "Advertise", {"category": "t", "description": "d", "ref": rental.ref.to_wire()}
    )
    outer_binding = generic.bind(outer.ref)
    outer_binding.invoke(
        "Advertise", {"category": "dirs", "description": "inner", "ref": inner.ref.to_wire()}
    )
    outer_binding.invoke("Lookup", {"category": "dirs"})
    middle = outer_binding.bind_discovered()
    middle.invoke("Lookup", {"category": "t"})
    leaf = middle.bind_discovered()
    assert leaf.depth == 2
    assert leaf.service_name == "CarRentalService"


def test_bind_discovered_without_refs_raises(binding):
    from repro.errors import BindingError

    with pytest.raises(BindingError):
        binding.bind_discovered()


def test_context_manager_unbinds(generic, rental):
    with generic.bind(rental.ref) as binding:
        binding.invoke("SelectCar", {"selection": SELECTION})
    assert rental.sessions() == 0
