"""Failure scenarios on the split-phase client, pinned to literal observations.

A table of failure scenarios, each played in a fresh simulated world
through ``RpcClient`` + ``ResilientCaller.call`` /
``RebindingClient.invoke`` on :class:`SimTransport`.  Each row pins what
the scenario must observe — outcome type, ``calls_sent`` /
``retransmissions`` / ``failovers`` / ``rebinds``, the virtual time it
finishes at, and the rpc/resilience span and span-event sequence — to
the values the blocking and coroutine flavours both produced before the
coroutine flavour was deleted, so the split-phase attempt loop that
replaced them is held to the same wire behaviour.
"""

import pytest

from repro.context import CallContext
from repro.core.integration import make_tradable
from repro.core.rebind import RebindingClient
from repro.net import SimNetwork
from repro.net.faults import FaultPlan
from repro.net.latency import FixedLatency
from repro.rpc import RpcClient, RpcProgram, RpcServer
from repro.rpc.message import ReplyStatus, RpcReply
from repro.rpc.resilience import BackoffPolicy, BreakerPolicy, ResilientCaller
from repro.rpc.server import AdmissionPolicy
from repro.rpc.transport import SimTransport
from repro.services.car_rental import start_car_rental
from repro.trader.trader import LocalTrader

from tests.conftest import SELECTION

PROG = 663000


# -- the scenarios -------------------------------------------------------------


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
    """One simulated deployment."""

    def __init__(self, faults=None, rounds=3):
        self.net = SimNetwork(seed=7, latency=FixedLatency(0.01))
        if faults is not None:
            self.net.faults = faults
        self.client = RpcClient(SimTransport(self.net, "cli"), timeout=0.2, retries=1)
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
        return self.caller.call(addresses, PROG, 1, 1, {"n": 1}, ctx=ctx)

    def rental_market(self, cohort):
        """A co-located trader with ``cohort`` rental servers, all crashed."""
        trader = LocalTrader()
        for index in range(cohort):
            host = f"rental{index}"
            runtime = start_car_rental(RpcServer(SimTransport(self.net, host)))
            make_tradable(runtime.sid, runtime.ref, trader)
            self.net.faults.crash(host)
        self.rebinder = RebindingClient(
            self.client, trader, resilient=self.caller, max_rebinds=1
        )

    def invoke(self, ctx):
        return self.rebinder.invoke(
            "CarRentalService", "SelectCar", {"selection": SELECTION}, ctx=ctx
        )


def drop_first_reply():
    world = World(faults=FirstReplyFault("srv", drop=True))
    ctx = world.deadline(5.0)
    return world, ctx, lambda: world.call([world.server("srv")], ctx)


def shed_then_failover():
    world = World()
    busy = world.server("busy", admission=AdmissionPolicy(min_samples=1))
    # One slow sample makes the estimate exceed any budget: arrivals SHED.
    busy._service_times.observe("rpc.server.handler_seconds", 60.0, ("parity", "1"))
    ctx = world.deadline(5.0)
    return world, ctx, lambda: world.call([busy, world.server("live")], ctx)


def slice_lapses_budget_remains():
    world = World()
    dead, live = world.server("dead"), world.server("live")
    world.net.faults.crash("dead")
    ctx = world.deadline(2.0)
    return world, ctx, lambda: world.call([dead, live], ctx)


def budget_lapses():
    world = World(rounds=50)
    dead = world.server("dead")
    world.net.faults.crash("dead")
    ctx = world.deadline(1.0)
    return world, ctx, lambda: world.call([dead], ctx)


def duplicate_reply():
    world = World(faults=FirstReplyFault("srv", duplicate=True))
    ctx = world.deadline(5.0)
    return world, ctx, lambda: world.call([world.server("srv")], ctx)


def all_breakers_open():
    world = World(rounds=4)
    dead = world.server("dead")
    world.net.faults.crash("dead")
    # No deadline: attempts run on the context's own pacing, so the
    # breaker trips before any budget machinery interferes.
    ctx = CallContext()
    return world, ctx, lambda: world.call([dead], ctx)


def dead_cohort_rebinds():
    world = World(rounds=1)
    world.rental_market(cohort=2)
    ctx = world.deadline(30.0)
    return world, ctx, lambda: world.invoke(ctx)


#: What each scenario observes: the blocking and coroutine flavours'
#: common observations before the coroutine flavour was deleted.
PINNED = {
    drop_first_reply: {
        "outcome": "ok", "calls_sent": 2, "retransmissions": 1,
        "duplicate_replies_dropped": 0, "failovers": 0, "backoff_sleeps": 0.0,
        "rebinds": 0, "finished_at": 1.27,
        "spans": [("rpc", "ok", ["retransmission"]), ("resilience", "ok", [])],
    },
    shed_then_failover: {
        "outcome": "ok", "calls_sent": 2, "retransmissions": 0,
        "duplicate_replies_dropped": 0, "failovers": 1, "backoff_sleeps": 0.05,
        "rebinds": 0, "finished_at": 0.09,
        "spans": [
            ("rpc", "ok", ["shed"]),
            ("rpc", "ok", []),
            ("resilience", "ok", ["backoff", "failover"]),
        ],
    },
    slice_lapses_budget_remains: {
        "outcome": "ok", "calls_sent": 5, "retransmissions": 3,
        "duplicate_replies_dropped": 0, "failovers": 1, "backoff_sleeps": 0.05,
        "rebinds": 0, "finished_at": 1.07,
        "spans": [
            ("rpc", "DeadlineExceeded", ["retransmission"] * 3),
            ("rpc", "ok", []),
            ("resilience", "ok", ["backoff", "failover"]),
        ],
    },
    budget_lapses: {
        "outcome": "DeadlineExceeded", "calls_sent": 4, "retransmissions": 3,
        "duplicate_replies_dropped": 0, "failovers": 0, "backoff_sleeps": 0.0,
        "rebinds": 0, "finished_at": 1.0,
        "spans": [
            ("rpc", "DeadlineExceeded", ["retransmission"] * 3),
            ("resilience", "DeadlineExceeded", []),
        ],
    },
    duplicate_reply: {
        "outcome": "ok", "calls_sent": 1, "retransmissions": 0,
        "duplicate_replies_dropped": 1, "failovers": 0, "backoff_sleeps": 0.0,
        "rebinds": 0, "finished_at": 0.02,
        "spans": [("rpc", "ok", []), ("resilience", "ok", [])],
    },
    all_breakers_open: {
        "outcome": "CircuitOpen", "calls_sent": 8, "retransmissions": 6,
        "duplicate_replies_dropped": 0, "failovers": 1, "backoff_sleeps": 0.05,
        "rebinds": 0, "finished_at": 8.05,
        "spans": [
            ("rpc", "RpcTimeout", ["retransmission"] * 3),
            ("rpc", "RpcTimeout", ["retransmission"] * 3),
            ("resilience", "CircuitOpen", ["backoff", "failover", "breaker_open"]),
        ],
    },
    dead_cohort_rebinds: {
        "outcome": "DeadlineExceeded", "calls_sent": 16, "retransmissions": 12,
        "duplicate_replies_dropped": 0, "failovers": 2, "backoff_sleeps": 0.1,
        "rebinds": 1, "finished_at": 30.0,
        "spans": [
            ("rpc", "DeadlineExceeded", ["retransmission"] * 3),
            ("rpc", "DeadlineExceeded", ["retransmission"] * 3),
            ("resilience", "DeadlineExceeded", ["backoff", "failover"]),
            ("rpc", "DeadlineExceeded", ["retransmission"] * 3),
            ("rpc", "DeadlineExceeded", ["retransmission"] * 3),
            ("resilience", "DeadlineExceeded", ["backoff", "failover"]),
        ],
    },
}


def play(scenario):
    world, ctx, action = scenario()
    try:
        action()
        outcome = "ok"
    except Exception as exc:  # noqa: BLE001 - the outcome *is* the observation
        outcome = type(exc).__name__
    world.net.clock.drain()  # stragglers still in flight land now
    return {
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
            # the binder's own layers vary with the bind path; these do not
            if span.layer in ("rpc", "resilience")
        ],
    }


@pytest.mark.parametrize("scenario", PINNED, ids=lambda s: s.__name__)
def test_scenario_matches_its_pinned_observations(scenario):
    assert play(scenario) == PINNED[scenario]


@pytest.mark.parametrize("in_flight", [0, 3], ids=["blocking", "split-phase"])
def test_unsolicited_replies_are_never_held(in_flight):
    """A peer spraying replies for xids the client never issued cannot
    grow its memory: every one is dropped and counted, whether the client
    sits between blocking calls or has started calls awaiting ``gather``."""
    world = World()
    client = world.client
    address = world.server("srv").address
    started = [client.start(address, PROG, 1, 1, {"n": 1}) for _ in range(in_flight)]
    issued = {call.xid for call in started}
    sprayed = [xid for xid in range(10_000) if xid not in issued]
    for xid in sprayed:
        client.handle_reply(client.address, RpcReply(xid, ReplyStatus.SUCCESS, b""))
    assert len(client._pending) + len(client._awaited) == in_flight
    assert client.duplicate_replies_dropped == len(sprayed)
    client.gather(started)
    assert [call.result() for call in started] == [{"host": "srv"}] * in_flight
    assert len(client._pending) + len(client._awaited) == 0
