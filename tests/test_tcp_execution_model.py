"""One execution model per node, on real TCP (DESIGN.md §6a).

A node runs its calls one at a time, as on the simulated network: a
``TcpTransport``'s reader threads only read, a handler blocked in
``TcpTransport.wait`` keeps serving its own node's calls, and a call
chain that comes back to a node it passed through (A → B → A) answers.
"""

import random
import sys
import threading
from collections import defaultdict

import pytest

from repro.context import CallContext, DeadlineLedger
from repro.errors import CommunicationError
from repro.naming.refs import ServiceRef
from repro.net.endpoints import Address
from repro.rpc.client import RpcClient
from repro.rpc.server import RpcProgram, RpcServer
from repro.rpc.transport import TcpTransport
from repro.sidl.types import DOUBLE, InterfaceType, LONG, OperationType
from repro.telemetry.exporters import RingExporter
from repro.telemetry.hub import use_exporter
from repro.trader.service_types import ServiceType
from repro.trader.trader import ImportRequest, LocalTrader, TraderClient, TraderService

PROG = 710200
OFFERS = 6000
MODIFIES = 5000


@pytest.fixture
def tcp():
    """Makes ``TcpTransport``s and closes them all afterwards."""
    made = []

    def transport():
        made.append(TcpTransport())
        return made[-1]

    yield transport
    for each in made:
        each.close()


@pytest.fixture
def fine_switching():
    """Threads switch every 10 µs, so interleavings that a node's
    one-at-a-time rule must forbid actually happen."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    yield
    sys.setswitchinterval(previous)


def rental():
    return ServiceType(
        "CarRentalService",
        InterfaceType("I", [OperationType("SelectCar", [], LONG)]),
        [("ChargePerDay", DOUBLE)],
    )


def test_two_connections_modifying_one_trader_leave_its_sorted_run_exact(
    tcp, fine_switching
):
    """Two exporters, each on its own connection, modify halves of one
    trader's offers at once.  Afterwards the sorted run walks exactly the
    live offers, and a range import ranks like the linear-scan oracle."""
    trader = LocalTrader("race", offer_prefix="race")
    trader.add_type(rental())
    home = Address("127.0.0.1", 1)
    ids = [
        trader.export(
            "CarRentalService", ServiceRef.create(f"r{n}", home, 4711),
            {"ChargePerDay": float(n * 3)},
        )
        for n in range(OFFERS)
    ]
    server = RpcServer(tcp())
    TraderService(server, trader=trader)

    def modify(half, seed):
        exporter = TraderClient(RpcClient(tcp(), timeout=10.0, retries=0), server.address)
        rng = random.Random(seed)
        for _ in range(MODIFIES):
            offer_id = rng.choice(half)
            exporter.modify(offer_id, {"ChargePerDay": float(rng.randrange(18000))})

    threads = [
        threading.Thread(target=modify, args=(ids[seed::2], seed)) for seed in (0, 1)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(60)
        assert not thread.is_alive()

    run = trader.offers._range_index[("CarRentalService", "ChargePerDay")]["num"]
    assert sum(1 for _ in run.walk()) == len(trader.offers) == OFFERS
    oracle = LocalTrader("race", offer_prefix="race", range_index=False)
    oracle.add_type(rental())
    for offer_id in ids:
        offer = trader.offers.get(offer_id)
        oracle.export("CarRentalService", offer.ref, dict(offer.properties))
    request = ImportRequest(
        "CarRentalService", "ChargePerDay < 9000", "min ChargePerDay", max_matches=50
    )
    expected = [offer.offer_id for offer in oracle.import_(request)]
    assert [offer.offer_id for offer in trader.import_(request)] == expected


@pytest.mark.parametrize("inner_on", ["own", "server"])
def test_reentrant_batch_over_tcp_answers_every_call(tcp, inner_on):
    """The TCP copy of the simulated network's reentrancy test: each of a
    batch's handlers calls back into its own server, through a client on
    a transport of its own or on the server's."""
    server = RpcServer(tcp())
    inner_transport = tcp() if inner_on == "own" else server.transport
    inner = RpcClient(inner_transport, timeout=1.0, retries=0)
    program = RpcProgram(PROG, 1, "nested")
    program.register(1, lambda args: {"leaf": args["n"]}, "leaf")

    def outer(args):
        nested = inner.call(server.address, PROG, 1, 1, {"n": args["n"]})
        return {"outer": nested["leaf"]}

    program.register(2, outer, "outer")
    server.serve(program)
    client = RpcClient(tcp(), timeout=5.0, retries=0)
    outcomes = client.call_many(server.address, [(PROG, 1, 2, {"n": i}) for i in range(3)])
    assert outcomes == [{"outer": 0}, {"outer": 1}, {"outer": 2}]


def test_a_call_chain_that_returns_to_a_node_answers(tcp):
    """A → B → A, each node calling through a client on its own
    transport: A's handler waits on B, whose handler calls back into A."""
    a, b = RpcServer(tcp()), RpcServer(tcp())
    a_out = RpcClient(a.transport, timeout=1.0, retries=0)
    b_out = RpcClient(b.transport, timeout=1.0, retries=0)
    at_a, at_b = RpcProgram(PROG, 1, "a"), RpcProgram(PROG, 1, "b")
    at_a.register(1, lambda args: {"path": args["path"] + ["A"]}, "back")
    at_a.register(
        2, lambda args: a_out.call(b.address, PROG, 1, 1, {"path": ["A"]}), "start"
    )
    at_b.register(
        1, lambda args: b_out.call(a.address, PROG, 1, 1, {"path": args["path"] + ["B"]}),
        "relay",
    )
    a.serve(at_a)
    b.serve(at_b)
    client = RpcClient(tcp(), timeout=5.0, retries=0)
    assert client.call(a.address, PROG, 1, 2, {}) == {"path": ["A", "B", "A"]}


def test_span_chains_and_deadline_ledgers_stay_on_one_thread(tcp, monkeypatch):
    """Neither a span chain nor a ``DeadlineLedger`` takes a lock, because
    no second thread reaches one: an importer asks a hub trader, which
    fans out over TCP to two peers, with spans exported."""
    chains = {}  # id(list) -> (the list, kept alive so ids stay unique, threads)
    ledgers = defaultdict(set)
    record_span = CallContext.record_span
    lease, release = DeadlineLedger.lease, DeadlineLedger.release

    def spy_record(self, span):
        chains.setdefault(id(self.spans), (self.spans, set()))[1].add(threading.get_ident())
        record_span(self, span)

    def spy(method):
        def spied(self):
            ledgers[self].add(threading.get_ident())
            return method(self)

        return spied

    monkeypatch.setattr(CallContext, "record_span", spy_record)
    monkeypatch.setattr(DeadlineLedger, "lease", spy(lease))
    monkeypatch.setattr(DeadlineLedger, "release", spy(release))

    def trader_node(name, client=None):
        trader = LocalTrader(name)
        trader.add_type(rental())
        trader.export(
            "CarRentalService", ServiceRef.create(f"{name}-1", Address(name, 1), 4711),
            {"ChargePerDay": 5.0},
        )
        return TraderService(RpcServer(tcp()), trader=trader, client=client)

    hub = trader_node("hub", client=RpcClient(tcp(), timeout=2.0, retries=0))
    for name in ("p0", "p1"):
        hub.link_to(trader_node(name).address, name=f"to-{name}")
    importer = TraderClient(RpcClient(tcp(), timeout=5.0, retries=0), hub.address)
    with use_exporter(RingExporter()):
        offers = importer.import_(ImportRequest("CarRentalService", hop_limit=1))
    assert sorted(offer.service_ref().name for offer in offers) == ["hub-1", "p0-1", "p1-1"]
    assert chains and ledgers
    assert [len(threads) for __, threads in chains.values()] == [1] * len(chains)
    assert [len(threads) for threads in ledgers.values()] == [1] * len(ledgers)


def test_a_fault_escaping_a_call_frees_its_node(tcp):
    """A fault that escapes a call (the server lets none escape) leaves
    the node free for the next call, and a reply to a caller that cannot
    be reached is lost like a datagram instead of raised into the reader."""
    node = tcp()
    with pytest.raises(ZeroDivisionError):
        node.execute(lambda: 1 / 0)

    def unreachable():
        raise CommunicationError("the caller is gone")

    node.execute(unreachable)
    waited = []
    node.execute(lambda: waited.append(node.wait(lambda: False, 0.01)))
    assert waited == [False]
