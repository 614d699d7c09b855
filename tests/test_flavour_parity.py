"""One body, two drivers: the stepper, and blocking ≡ coroutine outcomes.

Every protocol routine is written once as a coroutine; the blocking
façades run it with :func:`repro.rpc.stepper.step`, the async façades
await it.  The first half pins the stepper's contract.  The second is a
table of failure scenarios, each played twice in identical simulated
worlds — through ``RpcClient`` + ``ResilientCaller.call`` /
``RebindingClient.invoke`` on :class:`SimTransport`, and through
``AsyncRpcClient`` + ``call_async`` / ``invoke_async`` on the
:class:`SimEventLoop` — asserting the same outcome type, the same
``calls_sent`` / ``retransmissions`` / ``failovers`` / ``rebinds``, and
the same span and span-event sequence.
"""

import asyncio

import pytest

from repro.context import CallContext
from repro.core.integration import make_tradable
from repro.core.rebind import RebindingClient
from repro.net import SimNetwork, loop_for
from repro.net.faults import FaultPlan
from repro.net.latency import FixedLatency
from repro.rpc import AsyncRpcClient, RpcClient, RpcProgram, RpcServer
from repro.rpc.errors import DeadlineExceeded
from repro.rpc.message import ReplyStatus, RpcReply
from repro.rpc.resilience import (
    BackoffPolicy,
    BreakerPolicy,
    CircuitOpen,
    ResilientCaller,
)
from repro.rpc.server import AdmissionPolicy
from repro.rpc.stepper import BodySuspended, step
from repro.rpc.transport import SimTransport
from repro.services.car_rental import start_car_rental
from repro.trader.trader import LocalTrader

from tests.conftest import SELECTION

PROG = 663000
FLAVOURS = ("blocking", "coroutine")


# -- the stepper --------------------------------------------------------------


def test_step_returns_the_body_value():
    async def inner():
        return 20

    async def body():
        return await inner() + 1

    assert step(body()) == 21


def test_step_propagates_exceptions_unchanged():
    error = KeyError("same object")

    async def body():
        raise error

    with pytest.raises(KeyError) as caught:
        step(body())
    assert caught.value is error


def test_step_closes_a_body_that_really_suspends():
    unwound = []
    loop = asyncio.new_event_loop()
    never = loop.create_future()

    async def body():
        try:
            await never
        finally:
            unwound.append(True)

    coro = body()
    try:
        with pytest.raises(BodySuspended, match="suspended on <Future pending"):
            step(coro)
    finally:
        loop.close()
    assert unwound == [True]  # closed: the finally block ran
    assert coro.cr_frame is None


# -- flavour parity -----------------------------------------------------------


class FirstReplyFault(FaultPlan):
    """Drops or duplicates exactly the first datagram a host sends."""

    def __init__(self, host, drop=False, duplicate=False):
        super().__init__()
        self._host, self._drop, self._duplicate = host, drop, duplicate

    def _first(self, datagram):
        if self._host is not None and datagram.source.host == self._host:
            self._host = None
            return True
        return False

    def should_drop(self, datagram, rng):
        return self._drop and self._first(datagram)

    def should_duplicate(self, datagram, rng):
        return self._duplicate and self._first(datagram)


class World:
    """One simulated deployment, driven through one client flavour."""

    def __init__(self, flavour, faults=None, rounds=3):
        self.flavour = flavour
        self.net = SimNetwork(seed=7, latency=FixedLatency(0.01))
        if faults is not None:
            self.net.faults = faults
        client_class = RpcClient if flavour == "blocking" else AsyncRpcClient
        self.client = client_class(SimTransport(self.net, "cli"), timeout=0.2, retries=1)
        self.caller = ResilientCaller(
            self.client,
            backoff=BackoffPolicy(base=0.05, cap=0.2),
            breaker=BreakerPolicy(failure_threshold=2, probe_interval=1.0),
            rounds=rounds,
            seed=7,
        )
        self.rebinder = None

    def server(self, host, admission=None):
        server = RpcServer(SimTransport(self.net, host), admission=admission)
        program = RpcProgram(PROG, 1, "parity")
        program.register(1, lambda args: {"host": host})
        server.serve(program)
        return server

    def deadline(self, seconds):
        return CallContext(deadline=self.net.clock.now + seconds)

    def call(self, servers, ctx):
        addresses = [server.address for server in servers]
        if self.flavour == "blocking":
            return self.caller.call(addresses, PROG, 1, 1, {"n": 1}, ctx=ctx)
        return loop_for(self.net.clock).run_until_complete(
            self.caller.call_async(addresses, PROG, 1, 1, {"n": 1}, ctx=ctx)
        )

    def rental_market(self, cohort):
        """A co-located trader with ``cohort`` rental servers, all crashed."""
        trader = LocalTrader()
        for index in range(cohort):
            host = f"rental{index}"
            runtime = start_car_rental(RpcServer(SimTransport(self.net, host)))
            make_tradable(runtime.sid, runtime.ref, trader)
            self.net.faults.crash(host)
        # The async attempt needs the coroutine client; re-imports and the
        # blocking attempt go through a blocking one on the same host.
        blocking = (
            self.client
            if self.flavour == "blocking"
            else RpcClient(SimTransport(self.net, "cli"), timeout=0.2, retries=1)
        )
        self.rebinder = RebindingClient(
            blocking, trader, resilient=self.caller, max_rebinds=1,
            async_client=None if self.flavour == "blocking" else self.client,
        )

    def invoke(self, ctx):
        arguments = {"selection": SELECTION}
        if self.flavour == "blocking":
            return self.rebinder.invoke(
                "CarRentalService", "SelectCar", arguments, ctx=ctx
            )
        return loop_for(self.net.clock).run_until_complete(
            self.rebinder.invoke_async(
                "CarRentalService", "SelectCar", arguments, ctx=ctx
            )
        )


def drop_first_reply(flavour):
    world = World(flavour, faults=FirstReplyFault("srv", drop=True))
    ctx = world.deadline(5.0)
    return world, ctx, lambda: world.call([world.server("srv")], ctx)


def shed_then_failover(flavour):
    world = World(flavour)
    busy = world.server("busy", admission=AdmissionPolicy(min_samples=1))
    # One slow sample makes the estimate exceed any budget: arrivals SHED.
    busy._service_times.observe("rpc.server.handler_seconds", 60.0, ("parity", "1"))
    ctx = world.deadline(5.0)
    return world, ctx, lambda: world.call([busy, world.server("live")], ctx)


def slice_lapses_budget_remains(flavour):
    world = World(flavour)
    dead, live = world.server("dead"), world.server("live")
    world.net.faults.crash("dead")
    ctx = world.deadline(2.0)
    return world, ctx, lambda: world.call([dead, live], ctx)


def budget_lapses(flavour):
    world = World(flavour, rounds=50)
    dead = world.server("dead")
    world.net.faults.crash("dead")
    ctx = world.deadline(1.0)
    return world, ctx, lambda: world.call([dead], ctx)


def duplicate_reply(flavour):
    world = World(flavour, faults=FirstReplyFault("srv", duplicate=True))
    ctx = world.deadline(5.0)
    return world, ctx, lambda: world.call([world.server("srv")], ctx)


def all_breakers_open(flavour):
    world = World(flavour, rounds=4)
    dead = world.server("dead")
    world.net.faults.crash("dead")
    # No deadline: attempts run on the context's own pacing, so the
    # breaker trips before any budget machinery interferes.
    ctx = CallContext()
    return world, ctx, lambda: world.call([dead], ctx)


def dead_cohort_rebinds(flavour):
    world = World(flavour, rounds=1)
    world.rental_market(cohort=2)
    ctx = world.deadline(30.0)
    return world, ctx, lambda: world.invoke(ctx)


#: scenario -> (outcome both flavours must reach, extra check on the world)
SCENARIOS = {
    drop_first_reply: ("ok", lambda w: w.client.retransmissions == 1),
    shed_then_failover: ("ok", lambda w: w.caller.failovers == 1),
    slice_lapses_budget_remains: ("ok", lambda w: w.caller.failovers == 1),
    budget_lapses: (DeadlineExceeded.__name__, lambda w: w.net.clock.now <= 1.2),
    duplicate_reply: ("ok", lambda w: w.client.duplicate_replies_dropped == 1),
    all_breakers_open: (CircuitOpen.__name__, lambda w: w.caller.breaker_opens() >= 1),
    dead_cohort_rebinds: (DeadlineExceeded.__name__, lambda w: w.rebinder.rebinds == 1),
}


def play(scenario, flavour):
    world, ctx, action = scenario(flavour)
    try:
        action()
        outcome = "ok"
    except Exception as exc:  # noqa: BLE001 - the outcome *is* the observation
        outcome = type(exc).__name__
    world.net.clock.drain()  # stragglers still in flight land now
    observed = {
        "outcome": outcome,
        "calls_sent": world.client.calls_sent,
        "retransmissions": world.client.retransmissions,
        "duplicate_replies_dropped": world.client.duplicate_replies_dropped,
        "failovers": world.caller.failovers,
        "backoff_sleeps": world.caller.backoff_sleeps,
        "rebinds": world.rebinder.rebinds if world.rebinder else 0,
        "finished_at": world.net.clock.now,
        "spans": [
            (span.layer, span.outcome, [event["name"] for event in span.events])
            for span in ctx.spans
            # one bind attempt is flavour-specific work (SID + FSM-guarded
            # binder vs. raw BIND/INVOKE); the layers around it are not
            if span.layer in ("rpc", "resilience")
        ],
    }
    return world, observed


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.__name__)
def test_blocking_and_coroutine_flavours_agree(scenario):
    expected_outcome, check = SCENARIOS[scenario]
    observations = {}
    for flavour in FLAVOURS:
        world, observed = play(scenario, flavour)
        assert observed["outcome"] == expected_outcome, (flavour, observed)
        assert check(world), (flavour, observed)
        observations[flavour] = observed
    assert observations["blocking"] == observations["coroutine"]


@pytest.mark.parametrize("flavour", FLAVOURS)
def test_unsolicited_replies_are_never_held(flavour):
    """A peer spraying replies for xids the client never issued cannot
    grow its memory: both flavours drop and count every one."""
    client = World(flavour).client
    for xid in range(10_000):
        client.handle_reply(client.address, RpcReply(xid, ReplyStatus.SUCCESS, b""))
    held = (
        len(client._pending) + len(client._awaited)
        if flavour == "blocking"
        else len(client._waiters)
    )
    assert held == 0
    assert client.duplicate_replies_dropped == 10_000
