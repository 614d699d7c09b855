"""Chaos with every fault family at once: failover + rebind under seeds.

The recovery layer drives ``RebindingClient.invoke`` over a data-plane
:class:`RpcClient` on its own host, while the fault plane throws
everything at it at once — seeded datagram drops, a partition window
across the client edge, and a crash/recover window that eats two workers
*and* their lease heartbeats.  (The scenario once ran on a coroutine
client; it now runs on the blocking ``RpcClient``.)

The claims match the crash-only suite: availability recovers, the
resilience counters actually moved, and the run is replay-identical per
seed.
"""

from repro.context import CallContext
from repro.core.generic_client import GenericClient
from repro.core.integration import keep_tradable
from repro.core.rebind import RebindingClient
from repro.errors import BindingError, CommunicationError, CosmError
from repro.net import SimNetwork
from repro.rpc import RpcServer
from repro.rpc.client import RpcClient
from repro.rpc.errors import DeadlineExceeded, RpcTimeout, ServerShedding
from repro.rpc.resilience import BackoffPolicy, BreakerPolicy, ResilientCaller
from repro.rpc.transport import SimTransport
from repro.services.car_rental import start_car_rental
from repro.trader.errors import OfferNotFound
from repro.trader.trader import LocalTrader, TraderClient, TraderService

from tests.chaos.harness import ChaosRun, availability

RECOVERY_BAR = 0.95

#: The heartbeat stubs' RPC timeout (no retries): a renewal's reply
#: arrives at most this long after the trader stamped the lease.
STUB_TIMEOUT = 0.05


def _logged(call, log, clock, success):
    """``call``, appending each outcome — ``success``, ``lost`` (the trader
    no longer knows the offer) or ``failed`` — and its time to ``log``."""

    def logged(*args):
        try:
            result = call(*args)
        except OfferNotFound:
            log.append(("lost", clock.now))
            raise
        except Exception:
            log.append(("failed", clock.now))
            raise
        log.append((success, clock.now))
        return result

    return logged


def run_mixed_fault_workload(
    seed: int,
    workers: int = 6,
    crashed: int = 2,
    lease_seconds: float = 0.6,
    calls: int = 24,
    spacing: float = 0.25,
    drop: float = 0.02,
    partition_window: tuple = (0.6, 1.1),
    crash_at: float = 1.5,
    recover_at: float = 3.5,
    deadline_budget: float = 1.0,
) -> ChaosRun:
    """The failover workload with drops and a partition on top.

    ``workers`` car-rental runtimes serve through :class:`RpcServer` and
    keep leased offers alive with RENEW heartbeats from their own
    hosts.  A paced call grid drives ``RebindingClient.invoke``, riding
    out three fault
    families at once: ``drop`` datagram loss for the whole run, a
    partition cutting the data-plane client off from worker ``w02`` during
    ``partition_window``, and the first ``crashed`` workers' hosts dying
    at ``crash_at`` (taking their heartbeats with them) until
    ``recover_at``.
    """
    net = SimNetwork(seed=seed)
    clock = net.clock
    trader_service = TraderService(
        RpcServer(SimTransport(net, "trader")),
        trader=LocalTrader("td", fanout_workers=1, clock=lambda: clock.now),
        now=lambda: clock.now,
    )

    heartbeats = []
    renewals = []  # per worker: (outcome, time) of every RENEW and re-export
    runtimes = []
    for index in range(workers):
        host = f"w{index:02d}"
        runtime = start_car_rental(
            RpcServer(SimTransport(net, host)), enforce_fsm=False
        )
        runtimes.append((host, runtime))
        stub = TraderClient(
            RpcClient(SimTransport(net, host), timeout=STUB_TIMEOUT, retries=0),
            trader_service.address,
        )
        heartbeat = keep_tradable(runtime.sid, runtime.ref, stub, lease_seconds, clock=clock)
        renewals.append([])
        heartbeat.renew = _logged(heartbeat.renew, renewals[-1], clock, "ok")
        heartbeat.reexport = _logged(heartbeat.reexport, renewals[-1], clock, "reexported")
        heartbeats.append(heartbeat)

    sweeping = {"on": True}

    def sweep() -> None:
        if not sweeping["on"]:
            return
        trader_service.trader.expire_offers(clock.now)
        clock.schedule(lease_seconds / 2, sweep)

    clock.schedule(lease_seconds / 2, sweep)

    for index in range(crashed):
        host = f"w{index:02d}"
        clock.schedule_at(crash_at, lambda h=host: net.faults.crash(h))
        clock.schedule_at(recover_at, lambda h=host: net.faults.recover(h))

    # Drops hit everything; the partition cuts only the data plane's edge
    # to one *live* worker, forcing a mid-window failover.
    net.faults.drop_probability = drop
    part_start, part_end = partition_window
    clock.schedule_at(part_start, lambda: net.faults.partition("acli", "w02"))
    clock.schedule_at(part_end, lambda: net.faults.heal("acli", "w02"))

    rpc = RpcClient(SimTransport(net, "cli"), timeout=0.2, retries=1)
    arpc = RpcClient(SimTransport(net, "acli"), timeout=0.2, retries=1)
    importer = TraderClient(rpc, trader_service.address)

    expired_imports = {"count": 0, "imports": 0}
    original_import = importer.import_

    def checked_import(request, ctx=None):
        offers = original_import(request, ctx=ctx)
        now = clock.now
        expired_imports["imports"] += 1
        expired_imports["count"] += sum(1 for o in offers if o.expired(now))
        return offers

    importer.import_ = checked_import  # type: ignore[method-assign]

    caller = ResilientCaller(
        arpc,
        backoff=BackoffPolicy(base=0.01, cap=0.2),
        breaker=BreakerPolicy(failure_threshold=2, probe_interval=0.5),
        seed=seed,
    )
    rebinder = RebindingClient(
        arpc,
        importer,
        resilient=caller,
        generic=GenericClient(arpc, enforce_fsm=False),
    )

    selection = {"CarModel": "AUDI", "BookingDate": "1994-06-21", "Days": 1}
    outcomes = {}
    latencies = {}
    recovered_after = recover_at + lease_seconds

    for index in range(calls):
        start = clock.now
        if start < crash_at:
            phase = "before"
        elif start < recovered_after:
            phase = "crashed"
        else:
            phase = "recovered"
        ctx = CallContext(deadline=start + deadline_budget)
        call_id = f"c{index:02d}"
        try:
            rebinder.invoke(
                "CarRentalService", "SelectCar", {"selection": selection},
                ctx=ctx,
            )
            outcome = "success"
        except ServerShedding:
            outcome = "shed"
        except DeadlineExceeded:
            outcome = "deadline"
        except RpcTimeout:
            outcome = "timeout"
        except (CommunicationError, BindingError, CosmError):
            outcome = "unavailable"
        outcomes[call_id] = f"{phase}:{outcome}"
        latencies[call_id] = round(clock.now - start, 9)
        target = start + spacing
        if clock.now < target:
            clock.run_for(target - clock.now)

    sweeping["on"] = False
    for heartbeat in heartbeats:
        heartbeat.stop()
    clock.run_for(lease_seconds)

    served = [
        f"{host}:{runtime.invocations}"
        for host, runtime in runtimes
        if runtime.invocations
    ]
    return ChaosRun(
        outcomes=outcomes,
        executions=served,
        retransmissions=arpc.retransmissions,
        dropped=net.faults.dropped_count,
        extra={
            "imports": expired_imports["imports"],
            "expired_imports": expired_imports["count"],
            "failovers": caller.failovers,
            "breaker_opens": caller.breaker_opens(),
            "rebinds": rebinder.rebinds,
            "reexports": sum(h.reexports for h in heartbeats),
            "heartbeat_failures": sum(h.failures for h in heartbeats),
            "offers_live": len(trader_service.trader.offers),
            "latencies": latencies,
        },
        observed={"renewals": renewals, "lease_seconds": lease_seconds},
    )


def test_async_failover_restores_availability(chaos_seed):
    run = run_mixed_fault_workload(chaos_seed)
    # Post-recovery the stack is back above the bar …
    assert availability(run, phase="recovered") >= RECOVERY_BAR
    # … and the recovery machinery demonstrably carried it there.
    assert run.extra["failovers"] > 0
    assert run.extra["imports"] > 0
    assert run.extra["expired_imports"] == 0


def test_async_crashed_workers_reenter_the_market(chaos_seed):
    run = run_mixed_fault_workload(chaos_seed)
    renewals = run.observed["renewals"]
    reexported = [sum(1 for outcome, __ in log if outcome == "reexported") for log in renewals]
    # Both crashed workers lapsed out of the market and re-exported once on
    # recovery, so the full fleet is matchable again at the end.
    assert reexported[:2] == [1, 1]
    assert sum(reexported) == run.extra["reexports"]
    assert run.extra["heartbeat_failures"] > 0
    assert run.extra["offers_live"] == 6
    # The lease contract, for every worker: an offer is lost only after its
    # exporter went a whole lease without a renewal (BEATS_PER_LEASE = 3
    # survives one lost RENEW, not two).  A live worker whose RENEWs drop
    # twice running re-exports too: seed 43 loses w03's at t ≈ 4.71 and 4.97.
    lease = run.observed["lease_seconds"]
    for log in renewals:
        live_since = 0.0
        for outcome, at in log:
            if outcome in ("ok", "reexported"):
                live_since = at
            elif outcome == "lost":
                assert at - live_since >= lease - STUB_TIMEOUT, (log, at)


def test_async_failover_replays_identically(chaos_seed):
    first = run_mixed_fault_workload(chaos_seed)
    second = run_mixed_fault_workload(chaos_seed)
    assert first.fingerprint() == second.fingerprint()
    assert first.extra == second.extra


def test_async_fingerprints_differ_across_seeds():
    runs = {seed: run_mixed_fault_workload(seed) for seed in (1994, 2024)}
    assert runs[1994].fingerprint() != runs[2024].fingerprint()
