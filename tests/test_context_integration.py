"""Acceptance tests for CallContext threading across the full stack.

The issue's acceptance criteria: one context created at the top of the
Fig. 4 browse→bind→invoke cascade must be observable — same trace id,
monotonically decreasing deadline/hop budget — at the RPC client, the
server dispatch, the trader federation forwarder, and the generic
client; and an expired context must be rejected server-side without the
handler ever executing.
"""

import pytest

from repro.context import CallContext, current_context, use_context
from repro.core.generic_client import GenericClient
from repro.core.mediator import CosmMediator
from repro.core.browser import BrowserService
from repro.naming.refs import ServiceRef
from repro.net.endpoints import Address
from repro.rpc.errors import DeadlineExceeded, RpcTimeout
from repro.rpc.message import ReplyStatus, RpcCall
from repro.rpc.server import RpcProgram
from repro.rpc.txn import (
    TransactionCoordinator,
    TransactionParticipant,
    TxnOutcome,
)
from repro.rpc.xdr import encode_value
from repro.services.car_rental import make_car_rental_sid, start_car_rental
from repro.services.stock_quotes import start_stock_quotes
from repro.sidl.types import DOUBLE, InterfaceType, LONG, OperationType
from repro.trader.service_types import ServiceType
from repro.trader.trader import (
    ImportRequest,
    LocalTrader,
    TraderClient,
    TraderService,
)
from tests.conftest import SELECTION


def rental_type():
    return ServiceType(
        "CarRentalService",
        InterfaceType("I", [OperationType("SelectCar", [], LONG)]),
        [("ChargePerDay", DOUBLE)],
    )


# -- the flagship criterion: one context, observed at every layer -------------


def test_one_context_observed_across_federated_import(make_server, make_client):
    """A single CallContext governs a federated trader import: the
    forwarder and the peer trader both see the same trace id, the hop
    budget decreases at each crossing, and the absolute deadline never
    grows."""
    local = LocalTrader("trader-a")
    local.add_type(rental_type())
    peer = LocalTrader("trader-b")
    peer.add_type(rental_type())
    peer.export(
        "CarRentalService",
        ServiceRef.create("hb-1", Address("trader-b", 1), 4711),
        {"ChargePerDay": 70.0},
    )
    a = TraderService(make_server("trader-a"), trader=local, client=make_client())
    b = TraderService(make_server("trader-b"), trader=peer)
    a.link_to(b.address, name="to-b")

    observed = {}

    # The remote link starts its IMPORT on trader-a's client with the
    # leased context installed ambiently: observe that context.
    forwarding = a.trader.links["to-b"].client
    inner_start = forwarding.start

    def start_spy(*args, **kwargs):
        observed["forwarder"] = current_context()
        return inner_start(*args, **kwargs)

    forwarding.start = start_spy

    inner_import = peer.import_wire

    def import_spy(request_wire, now=0.0, ctx=None):
        observed["peer"] = current_context()
        observed["peer_request"] = dict(request_wire)
        return inner_import(request_wire, now, ctx)

    peer.import_wire = import_spy

    client = make_client()
    trader = TraderClient(client, a.address)
    ctx = CallContext.with_timeout(10.0, client.transport.now(), hops=2)
    started = client.transport.now()

    offers = trader.import_(ImportRequest("CarRentalService"), ctx=ctx)

    assert sorted(o.service_ref().name for o in offers) == ["hb-1"]
    forwarder_ctx = observed["forwarder"]
    peer_ctx = observed["peer"]
    # Same trace everywhere.
    assert forwarder_ctx.trace_id == ctx.trace_id
    assert peer_ctx.trace_id == ctx.trace_id
    # Hop budget decreases monotonically: 2 at the top, 1 after trader-a.
    assert forwarder_ctx.hops == 1
    assert peer_ctx.hops == 1
    # The visited scope rides the request body (the legacy wire field);
    # the peer folds it back into its governing context on import.
    assert "trader-a" in observed["peer_request"]["visited"]
    # The absolute deadline survives the wire and never grows.
    assert forwarder_ctx.deadline <= ctx.deadline
    assert peer_ctx.deadline <= ctx.deadline
    # Virtual time passed in flight, so the remaining budget shrank.
    assert ctx.remaining(client.transport.now()) < ctx.remaining(started)
    # The client-side span chain shows the trader and RPC layers.
    layers = {span.layer for span in ctx.spans}
    assert {"trader", "rpc"} <= layers


def test_generic_cascade_shares_one_context(make_server, make_client):
    """Fig. 4 cascade: bind → invoke → bind a discovered reference, all
    under one context; every layer's span lands on the same chain."""
    rental = start_car_rental(make_server("rental"))
    client = make_client()
    generic = GenericClient(client)
    ctx = CallContext.with_timeout(10.0, client.transport.now())

    binding = generic.bind(rental.ref, ctx=ctx)
    assert binding.ctx is ctx
    result = binding.invoke("SelectCar", {"selection": SELECTION}, ctx=ctx)
    assert result.value["available"] is True

    child = binding.bind_reference(rental.ref)
    assert child.ctx is ctx  # the cascade inherits the budget
    assert child.depth == binding.depth + 1

    layers = {span.layer for span in ctx.spans}
    assert {"binder", "generic", "rpc"} <= layers
    costs = ctx.layer_costs()
    assert all(elapsed >= 0.0 for elapsed in costs.values())


# -- server-side rejection ----------------------------------------------------


def test_expired_call_rejected_before_handler_runs(make_server, make_client):
    """A CALL whose wire deadline has passed is answered with
    DEADLINE_EXCEEDED and the handler never executes."""
    server = make_server("strict")
    executed = []
    program = RpcProgram(777, 1, "probe")
    program.register(1, lambda args: executed.append(args) or "ran", "op")
    server.serve(program)

    client = make_client()
    # Bypass the client's own pre-flight check by crafting the CALL
    # directly: its deadline is already due on arrival.
    call = RpcCall(
        0x7E000001, 777, 1, 1, encode_value(None),
        deadline=client.transport.now(), trace_id="t-expired",
    )
    client._awaited.add(0x7E000001)  # an unawaited reply would be dropped
    client.transport.send(server.address, call.encode())
    assert client.transport.wait(lambda: 0x7E000001 in client._pending, 1.0)
    reply = client._pending.pop(0x7E000001)
    assert reply.status is ReplyStatus.DEADLINE_EXCEEDED
    assert executed == []


def test_client_refuses_to_send_with_expired_context(make_server, make_client):
    server = make_server("srv")
    program = RpcProgram(778, 1, "probe")
    program.register(1, lambda args: "ran", "op")
    server.serve(program)
    client = make_client()
    ctx = CallContext(deadline=client.transport.now())
    before = client.calls_sent
    with pytest.raises(DeadlineExceeded):
        client.call(server.address, 778, 1, 1, context=ctx)
    assert client.calls_sent == before


# -- retransmission budget ----------------------------------------------------


def test_legacy_calls_shrink_as_ambient_deadline_approaches(make_client):
    """Inside a served request, legacy ``timeout=`` calls still pace
    themselves — but the ambient deadline caps each one, so successive
    calls against a dead peer get shorter and the last is refused."""
    client = make_client(timeout=0.4, retries=0)
    dead = Address("no-such-host", 9)
    ctx = CallContext.with_timeout(1.0, client.transport.now())
    durations = []
    with use_context(ctx):
        for __ in range(3):
            t0 = client.transport.now()
            with pytest.raises(RpcTimeout):
                client.call(dead, 1, 1, 1)
            durations.append(client.transport.now() - t0)
        with pytest.raises(DeadlineExceeded):
            client.call(dead, 1, 1, 1)
    assert durations[0] == pytest.approx(0.4)
    assert durations[1] == pytest.approx(0.4)
    assert durations[2] == pytest.approx(0.2)  # only 0.2 s of budget left


# -- mid-cascade expiry -------------------------------------------------------


def test_browser_sweep_stops_cleanly_when_budget_expires(make_server, make_client):
    """A mediated browse whose budget dies partway returns the results
    gathered so far instead of raising."""
    browsers = []
    runtimes = [
        start_car_rental(make_server("rental-a")),
        start_car_rental(
            make_server("rental-b"), sid=make_car_rental_sid(service_id=4712)
        ),
        start_stock_quotes(make_server("quotes")),
    ]
    for index, runtime in enumerate(runtimes):
        browser = BrowserService(make_server(f"browser-{index}"))
        browser.register_local(runtime)
        browsers.append(browser)
    client = make_client()
    mediator = CosmMediator(client, browser_refs=[b.ref for b in browsers])

    # Calibrate: one full (uncapped) sweep of all three browsers.
    t0 = client.transport.now()
    full = mediator.browse("")
    sweep = client.transport.now() - t0
    assert len(full) == 3
    assert sweep > 0.0

    # Half a sweep of budget: the first browser answers, then the sweep
    # runs dry and stops, keeping what it has.
    ctx = CallContext.with_timeout(sweep * 0.5, client.transport.now())
    partial = mediator.browse("", ctx=ctx)
    assert 0 < len(partial) < 3


# -- transactional RPC --------------------------------------------------------


@pytest.fixture
def txn_cluster(make_server, make_client):
    class Resource:
        def __init__(self):
            self.data = {}
            self.staged = {}
            self.prepares = 0

        def prepare(self, txn_id, work):
            self.prepares += 1
            self.staged[txn_id] = work
            return True

        def commit(self, txn_id):
            key, value = self.staged.pop(txn_id)
            self.data[key] = value

        def abort(self, txn_id):
            self.staged.pop(txn_id, None)

    resources = []
    addresses = []
    for index in range(2):
        server = make_server(f"txn-{index}")
        resource = Resource()
        TransactionParticipant(server, resource)
        resources.append(resource)
        addresses.append(server.address)
    coordinator = TransactionCoordinator(make_client(timeout=0.1, retries=1))
    return coordinator, addresses, resources


def test_context_threads_through_two_phase_commit(txn_cluster):
    coordinator, addresses, resources = txn_cluster
    ctx = CallContext.with_timeout(
        10.0, coordinator._client.transport.now()
    )
    work = {address: ["k", i] for i, address in enumerate(addresses)}
    outcome = coordinator.execute(work, ctx=ctx)
    assert outcome is TxnOutcome.COMMITTED
    for i, resource in enumerate(resources):
        assert resource.data == {"k": i}
    # Both rounds left spans on the caller's chain.
    assert any(span.layer == "txn" for span in ctx.spans)


def test_expired_context_aborts_transaction_before_prepare(txn_cluster):
    coordinator, addresses, resources = txn_cluster
    ctx = CallContext(deadline=coordinator._client.transport.now())
    work = {address: ["k", 1] for address in addresses}
    outcome = coordinator.execute(work, ctx=ctx)
    assert outcome is TxnOutcome.ABORTED
    for resource in resources:
        assert resource.prepares == 0
        assert resource.data == {}
        assert resource.staged == {}
