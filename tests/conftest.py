"""Shared fixtures: simulated networks, RPC nodes, and a running COSM stack."""

from __future__ import annotations

import pytest

from repro.net import SimNetwork
from repro.rpc.client import RpcClient
from repro.rpc.message import RpcReply, decode_messages
from repro.rpc.server import RpcServer
from repro.rpc.transport import SimTransport
from repro.sidl.builder import load_service_description
from repro.services.car_rental import CAR_RENTAL_SIDL, start_car_rental


@pytest.fixture
def net():
    return SimNetwork(seed=1994)


@pytest.fixture
def make_server(net):
    """Factory: a fresh RpcServer on its own simulated host."""
    counter = {"n": 0}

    def factory(host: str = None, **options) -> RpcServer:
        counter["n"] += 1
        return RpcServer(SimTransport(net, host or f"server-{counter['n']}"), **options)

    return factory


@pytest.fixture
def make_client(net):
    """Factory: a fresh RpcClient on its own simulated host."""
    counter = {"n": 0}

    def factory(host: str = None, **options) -> RpcClient:
        counter["n"] += 1
        options.setdefault("timeout", 1.0)
        options.setdefault("retries", 3)
        return RpcClient(SimTransport(net, host or f"client-{counter['n']}"), **options)

    return factory


#: A tagged string (tag 4, length 2) whose two bytes are not UTF-8.
BAD_UTF8_VALUE = b"\x00\x00\x00\x04\x00\x00\x00\x02\xff\xfe\x00\x00"


@pytest.fixture
def rogue_peer(net):
    """Factory: a peer that answers every CALL with a fixed status and raw body."""

    def factory(host: str, status, body: bytes, port: int = None):
        transport = SimTransport(net, host, port)

        def answer(source, payload):
            for call in decode_messages(payload):
                transport.send(source, RpcReply(call.xid, status, body).encode())

        transport.set_receiver(answer)
        return transport.local_address

    return factory


@pytest.fixture
def car_sid():
    return load_service_description(CAR_RENTAL_SIDL)


@pytest.fixture
def rental(make_server):
    """A running car rental service runtime."""
    return start_car_rental(make_server("rental-host"))


SELECTION = {"CarModel": "AUDI", "BookingDate": "1994-06-21", "Days": 2}
