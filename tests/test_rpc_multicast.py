"""Tests for multicast/broadcast RPC calls.

An anycast is a :class:`MulticastCaller` call with ``quorum=1``."""

import pytest

from repro.naming.refs import ServiceRef
from repro.net.endpoints import Address
from repro.rpc.client import RpcClient
from repro.rpc.message import ReplyStatus
from repro.rpc.multicast import MulticastCaller
from repro.rpc.server import RpcProgram, RpcServer
from repro.rpc.transport import SimTransport, TcpTransport
from repro.rpc.xdr import encode_value
from repro.sidl.types import DOUBLE, InterfaceType, LONG, OperationType
from repro.telemetry.metrics import METRICS
from repro.trader.offers import ServiceOffer
from repro.trader.service_types import ServiceType
from repro.trader.trader import TRADER_PROGRAM, ImportRequest, LocalTrader, TraderService
from tests.conftest import BAD_UTF8_VALUE

PROG = 610000


@pytest.fixture
def members(net):
    addresses = []
    for index in range(4):
        server = RpcServer(SimTransport(net, f"member-{index}"))
        program = RpcProgram(PROG, 1)
        program.register(1, lambda args, i=index: {"member": i, "args": args})
        if index == 3:

            def failing(args):
                raise RuntimeError("member down")

            program.register(2, failing)
        else:
            program.register(2, lambda args, i=index: i)
        server.serve(program)
        addresses.append(server.address)
    return addresses


@pytest.fixture
def caller(net):
    return MulticastCaller(RpcClient(SimTransport(net, "caller"), timeout=0.5))


def test_call_gathers_all_replies(members, caller):
    result = caller.call(members, PROG, 1, 1, {"q": 1})
    assert not result.missing
    assert len(result.replies) == 4
    assert {r["member"] for r in result.values()} == {0, 1, 2, 3}


def test_quorum_returns_early(members, caller, net):
    net.faults.crash("member-3")
    result = caller.call(members, PROG, 1, 1, None, timeout=0.2, quorum=3)
    assert len(result.replies) >= 3


def test_missing_members_reported(members, caller, net):
    net.faults.crash("member-0")
    result = caller.call(members, PROG, 1, 1, None, timeout=0.1)
    assert result.missing
    assert members[0] in result.missing
    assert len(result.replies) == 3


def test_faults_reported_per_member(members, caller):
    result = caller.call(members, PROG, 1, 2, None, timeout=0.5)
    assert members[3] in result.faults
    assert "RuntimeError" in result.faults[members[3]]
    assert len(result.replies) == 3


def test_empty_destination_list(caller):
    result = caller.call([], PROG, 1, 1)
    assert not result.missing
    assert result.replies == {}


def test_anycast_returns_first_success(members, caller):
    result = caller.call(members, PROG, 1, 1, None, timeout=0.5, quorum=1)
    assert len(result.replies) >= 1
    assert all("member" in value for value in result.values())


def test_anycast_raises_when_nobody_answers(net, caller, members):
    for index in range(4):
        net.faults.crash(f"member-{index}")
    result = caller.call(members, PROG, 1, 1, None, timeout=0.05, quorum=1)
    assert result.replies == {} and result.faults == {}
    assert result.missing == members


def test_quorum_counts_replies_not_refused_members():
    """Over TCP a refused connect settles its member at once; it must
    not stand in for the reply the quorum is waiting for."""
    server_transport, client_transport = TcpTransport(), TcpTransport()
    try:
        server = RpcServer(server_transport)
        program = RpcProgram(PROG, 1)
        program.register(1, lambda args: {"member": "live"})
        server.serve(program)
        refused = TcpTransport()
        refused.close()
        closed, live = refused.local_address, server_transport.local_address
        caller = MulticastCaller(RpcClient(client_transport))
        result = caller.call([closed, live], PROG, 1, 1, timeout=2.0, quorum=1)
        assert result.replies == {live: {"member": "live"}}
        assert result.missing == [closed]
    finally:
        server_transport.close()
        client_transport.close()


def test_status_faults_reported(members, caller):
    """PROC_UNAVAIL from one member shows as a fault, not an exception."""
    result = caller.call(members, PROG, 1, 99, None, timeout=0.5)
    assert len(result.faults) == 4
    assert all("PROC_UNAVAIL" in fault for fault in result.faults.values())


def test_malformed_member_replies_are_faults_not_raises(members, caller, rogue_peer):
    """Per-destination failures never raise — including undecodable replies."""
    garbled = rogue_peer("garbled", ReplyStatus.SUCCESS, BAD_UTF8_VALUE)
    garbled_fault = rogue_peer("garbled-fault", ReplyStatus.REMOTE_FAULT, BAD_UTF8_VALUE)
    odd_fault = rogue_peer("odd-fault", ReplyStatus.REMOTE_FAULT, encode_value(7))
    counted = METRICS.counter_total("rpc.client.malformed_replies")
    result = caller.call(members + [garbled, garbled_fault, odd_fault], PROG, 1, 1)
    assert not result.missing
    assert set(result.replies) == set(members)
    assert result.faults[garbled].startswith("malformed reply: invalid UTF-8")
    assert result.faults[garbled_fault].startswith("malformed reply: invalid UTF-8")
    assert result.faults[odd_fault] == "Error: 7"
    assert METRICS.counter_total("rpc.client.malformed_replies") == counted + 2


def rental_type():
    return ServiceType(
        "CarRentalService",
        InterfaceType("I", [OperationType("SelectCar", [], LONG)]),
        [("ChargePerDay", DOUBLE)],
    )


def test_import_multicast_decodes_compiled_offer_records(net):
    """TRADER IMPORT answers with compiled offer records: a multicast of
    it decodes them through the codec registry, like a single call."""
    traders = []
    for host in ("hamburg", "bremen"):
        service = TraderService(RpcServer(SimTransport(net, host)), trader=LocalTrader(host))
        service.trader.add_type(rental_type())
        service.trader.export(
            "CarRentalService",
            ServiceRef.create(f"{host}-rental", Address(host, 1), 4711),
            {"ChargePerDay": 80.0},
        )
        traders.append(service.address)
    caller = MulticastCaller(RpcClient(SimTransport(net, "importer"), timeout=0.5))
    malformed = METRICS.counter_total("rpc.client.malformed_replies")
    result = caller.call(
        traders, TRADER_PROGRAM, 1, 4,
        ImportRequest("CarRentalService").to_wire(), timeout=0.5,
    )
    assert not result.missing and result.faults == {}
    names = sorted(
        ServiceOffer.from_wire(wire).service_ref().name
        for offers in result.values()
        for wire in offers
    )
    assert names == ["bremen-rental", "hamburg-rental"]
    assert METRICS.counter_total("rpc.client.malformed_replies") == malformed
