"""Tests for the COSM service runtime: the uniform four-procedure protocol."""

import pytest

from repro.naming.binder import (
    Binder,
    PROC_BIND,
    PROC_GET_SID,
    PROC_INVOKE,
    PROC_UNBIND,
)
from repro.core.service_runtime import ServiceRuntime
from repro.rpc.errors import RemoteFault
from repro.sidl.builder import load_service_description
from repro.sidl.sid import ServiceDescription
from repro.services.car_rental import CarRentalImpl
from tests.conftest import SELECTION


def test_prog_taken_from_service_id(rental):
    assert rental.prog == 4711
    assert rental.ref.prog == 4711


def test_auto_prog_when_no_service_id(make_server):
    sid = load_service_description(
        "module Anon { interface COSM_Operations { void A(); }; };"
    )
    runtime = ServiceRuntime(make_server(), sid, {"A": lambda: None})
    assert runtime.prog >= 200000


def test_get_sid_returns_wire_form(rental, make_client):
    client = make_client()
    wire = client.call(rental.ref.address, rental.prog, 1, PROC_GET_SID)
    sid = ServiceDescription.from_wire(wire)
    assert sid.name == "CarRentalService"


def test_bind_creates_distinct_sessions(rental, make_client):
    client = make_client()
    s1 = client.call(rental.ref.address, rental.prog, 1, PROC_BIND, {})
    s2 = client.call(rental.ref.address, rental.prog, 1, PROC_BIND, {})
    assert s1 != s2
    assert rental.sessions() == 2


def test_unbind_removes_session(rental, make_client):
    client = make_client()
    session = client.call(rental.ref.address, rental.prog, 1, PROC_BIND, {})
    assert client.call(
        rental.ref.address, rental.prog, 1, PROC_UNBIND, {"session": session}
    )
    assert rental.sessions() == 0


def test_invoke_unknown_session_faults(rental, make_client):
    client = make_client()
    with pytest.raises(RemoteFault) as excinfo:
        client.call(
            rental.ref.address,
            rental.prog,
            1,
            PROC_INVOKE,
            {"session": "ghost", "operation": "BookCar", "arguments": {}},
        )
    assert excinfo.value.kind == "BindingError"


def test_invoke_unknown_operation_faults(rental, make_client):
    binding = Binder(make_client()).bind(rental.ref)
    with pytest.raises(RemoteFault) as excinfo:
        binding.invoke("FlyToMoon")
    assert excinfo.value.kind == "SidlTypeError"


def test_invoke_type_checks_arguments(rental, make_client):
    binding = Binder(make_client()).bind(rental.ref)
    with pytest.raises(RemoteFault) as excinfo:
        binding.invoke("SelectCar", {"selection": {"CarModel": "TRABANT"}})
    assert excinfo.value.kind == "SidlTypeError"


def test_server_side_fsm_enforcement(rental, make_client):
    binding = Binder(make_client()).bind(rental.ref)
    with pytest.raises(RemoteFault) as excinfo:
        binding.invoke("BookCar")
    assert excinfo.value.kind == "FsmViolation"
    assert rental.fsm_rejections == 1
    # after a legal SelectCar the booking goes through
    binding.invoke("SelectCar", {"selection": SELECTION})
    assert binding.invoke("BookCar")["confirmation"] > 0


def test_fsm_state_does_not_advance_when_impl_raises(make_server, make_client):
    sid = load_service_description(
        """
        module Fragile {
          interface COSM_Operations { void Arm(); void Fire(); };
          module COSM_FSM {
            state SAFE, ARMED;
            initial SAFE;
            transition SAFE -> ARMED on Arm;
            transition ARMED -> SAFE on Fire;
          };
        };
        """
    )
    attempts = {"arm": 0}

    class Impl:
        def Arm(self):
            attempts["arm"] += 1
            if attempts["arm"] == 1:
                raise RuntimeError("jammed")

        def Fire(self):
            return None

    runtime = ServiceRuntime(make_server(), sid, Impl())
    binding = Binder(make_client()).bind(runtime.ref)
    with pytest.raises(RemoteFault):
        binding.invoke("Arm")
    # still in SAFE: Fire must be rejected
    with pytest.raises(RemoteFault) as excinfo:
        binding.invoke("Fire")
    assert excinfo.value.kind == "FsmViolation"
    binding.invoke("Arm")  # second attempt works
    binding.invoke("Fire")


def test_result_type_checked(make_server, make_client):
    sid = load_service_description(
        "module Liar { interface COSM_Operations { long Answer(); }; };"
    )
    runtime = ServiceRuntime(make_server(), sid, {"Answer": lambda: "forty-two"})
    binding = Binder(make_client()).bind(runtime.ref)
    with pytest.raises(RemoteFault) as excinfo:
        binding.invoke("Answer")
    assert "declared result type" in excinfo.value.detail


def test_missing_implementation_method_faults(make_server, make_client):
    sid = load_service_description(
        "module Partial { interface COSM_Operations { void Declared(); }; };"
    )
    runtime = ServiceRuntime(make_server(), sid, object())
    binding = Binder(make_client()).bind(runtime.ref)
    with pytest.raises(RemoteFault) as excinfo:
        binding.invoke("Declared")
    assert "does not provide" in excinfo.value.detail


def test_mapping_implementation(make_server, make_client):
    sid = load_service_description(
        "module Dicty { interface COSM_Operations { long Twice(in long n); }; };"
    )
    runtime = ServiceRuntime(make_server(), sid, {"Twice": lambda n: n * 2})
    binding = Binder(make_client()).bind(runtime.ref)
    assert binding.invoke("Twice", {"n": 21}) == 42


def test_fsm_enforcement_can_be_disabled(make_server, make_client):
    from repro.services.car_rental import CAR_RENTAL_SIDL

    sid = load_service_description(CAR_RENTAL_SIDL)
    runtime = ServiceRuntime(
        make_server(), sid, CarRentalImpl(), enforce_fsm=False
    )
    binding = Binder(make_client()).bind(runtime.ref)
    # FSM off: BookCar in INIT reaches the implementation, which raises
    with pytest.raises(RemoteFault) as excinfo:
        binding.invoke("BookCar")
    assert excinfo.value.kind == "ValueError"


def test_shutdown_withdraws_program(rental, make_client):
    client = make_client()
    rental.shutdown()
    from repro.rpc.errors import ProgramUnavailable

    with pytest.raises(ProgramUnavailable):
        client.call(rental.ref.address, rental.prog, 1, PROC_GET_SID)


def test_invocation_counter(rental, make_client):
    binding = Binder(make_client()).bind(rental.ref)
    binding.invoke("SelectCar", {"selection": SELECTION})
    binding.invoke("BookCar")
    assert rental.invocations == 2
