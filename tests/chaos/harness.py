"""Deterministic chaos harness: seeded faults over the virtual-time stack.

Every workload here builds a fresh :class:`~repro.net.SimNetwork` with a
caller-chosen seed and drives it entirely in virtual time, so a scenario
replays *identically* for the same seed: the same datagrams drop, the
same duplicates arrive, the same retransmissions fire.  Each run returns
a :class:`ChaosRun` whose :meth:`~ChaosRun.fingerprint` hashes everything
observable about the run **except** process-global artefacts (RPC
transaction ids and uuid trace ids differ between runs without affecting
behaviour) — the determinism tests assert fingerprint equality across
repeated same-seed runs.

Seeds come from :func:`chaos_seeds`: the ``CHAOS_SEED`` environment
variable (comma- or space-separated integers) overrides the default
``(1994, 2024, 7)`` — CI sweeps each default seed as its own job.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.context import CallContext
from repro.core.generic_client import GenericClient
from repro.core.integration import keep_tradable
from repro.core.rebind import RebindingClient
from repro.errors import BindingError, CommunicationError, CosmError
from repro.naming.refs import ServiceRef
from repro.net import SimNetwork
from repro.net.endpoints import Address
from repro.rpc.client import RpcClient
from repro.rpc.errors import DeadlineExceeded, RpcTimeout, ServerShedding
from repro.rpc.message import ReplyStatus, RpcCall, decode_message
from repro.rpc.resilience import BackoffPolicy, BreakerPolicy, ResilientCaller
from repro.rpc.server import AdmissionPolicy, RpcProgram, RpcServer
from repro.rpc.transport import SimTransport
from repro.rpc.xdr import encode_value
from repro.services.car_rental import start_car_rental
from repro.sidl.types import DOUBLE, InterfaceType, LONG, OperationType
from repro.trader.service_types import ServiceType
from repro.trader.trader import ImportRequest, LocalTrader, TraderClient, TraderService

DEFAULT_SEEDS: Tuple[int, ...] = (1994, 2024, 7)

WORK_PROG = 77001


def chaos_seeds() -> Tuple[int, ...]:
    """Seeds to sweep: ``CHAOS_SEED`` env override, else the defaults."""
    raw = os.environ.get("CHAOS_SEED", "").strip()
    if raw:
        return tuple(int(part) for part in raw.replace(",", " ").split())
    return DEFAULT_SEEDS


@dataclass
class ChaosRun:
    """Everything observable about one workload run, fingerprintable."""

    outcomes: Dict[str, str]
    executions: List[str]
    retransmissions: int = 0
    dropped: int = 0
    duplicated: int = 0
    duplicates_suppressed: int = 0
    duplicates_coalesced: int = 0
    calls_shed: int = 0
    deadlines_rejected: int = 0
    extra: Dict[str, Any] = field(default_factory=dict)

    def fingerprint(self) -> str:
        payload = {
            "outcomes": self.outcomes,
            "executions": self.executions,
            "retransmissions": self.retransmissions,
            "dropped": self.dropped,
            "duplicated": self.duplicated,
            "duplicates_suppressed": self.duplicates_suppressed,
            "duplicates_coalesced": self.duplicates_coalesced,
            "calls_shed": self.calls_shed,
            "deadlines_rejected": self.deadlines_rejected,
            "extra": self.extra,
        }
        encoded = json.dumps(payload, sort_keys=True).encode("utf-8")
        return hashlib.sha256(encoded).hexdigest()


# -- plain RPC workload -------------------------------------------------------


def run_rpc_workload(
    seed: int,
    drop: float = 0.0,
    duplicate: float = 0.0,
    partition_window: Optional[Tuple[float, float]] = None,
    crash_window: Optional[Tuple[float, float]] = None,
    calls: int = 12,
    timeout: float = 0.08,
    retries: int = 3,
) -> ChaosRun:
    """Sequential calls against an echo server under seeded faults.

    Fault windows are absolute virtual times relative to the run start;
    partition/heal and crash/recover fire as scheduled clock events, so
    they interleave deterministically with the workload's own traffic.
    """
    net = SimNetwork(seed=seed)
    server = RpcServer(SimTransport(net, "srv"))
    program = RpcProgram(WORK_PROG, name="chaos-work")
    executions: List[str] = []

    def work(args):
        executions.append(args["id"])
        return {"id": args["id"]}

    program.register(1, work, "work")
    server.serve(program)
    client = RpcClient(SimTransport(net, "cli"), timeout=timeout, retries=retries)

    net.faults.drop_probability = drop
    net.faults.duplicate_probability = duplicate
    if partition_window is not None:
        start, end = partition_window
        net.clock.schedule(start, lambda: net.faults.partition("srv", "cli"))
        net.clock.schedule(end, lambda: net.faults.heal("srv", "cli"))
    if crash_window is not None:
        start, end = crash_window
        net.clock.schedule(start, lambda: net.faults.crash("srv"))
        net.clock.schedule(end, lambda: net.faults.recover("srv"))

    outcomes: Dict[str, str] = {}
    for index in range(calls):
        call_id = f"c{index:02d}"
        try:
            result = client.call(server.address, WORK_PROG, 1, 1, {"id": call_id})
            outcomes[call_id] = "success" if result == {"id": call_id} else "corrupt"
        except ServerShedding:
            outcomes[call_id] = "shed"
        except DeadlineExceeded:
            outcomes[call_id] = "deadline"
        except RpcTimeout:
            outcomes[call_id] = "timeout"
    net.clock.drain()

    return ChaosRun(
        outcomes=outcomes,
        executions=list(executions),
        retransmissions=client.retransmissions,
        dropped=net.faults.dropped_count,
        duplicated=net.faults.duplicated_count,
        duplicates_suppressed=server.duplicates_suppressed,
        duplicates_coalesced=server.duplicates_coalesced,
        calls_shed=server.calls_shed,
        deadlines_rejected=server.deadlines_rejected,
        extra={"pending_replies": len(client._pending)},
    )


#: Calls per ``call_many`` round in :func:`run_rpc_workload_batched`.
BATCH_ROUND = 3


def run_rpc_workload_batched(
    seed: int,
    drop: float = 0.0,
    duplicate: float = 0.0,
    calls: int = 12,
    timeout: float = 0.08,
    retries: int = 3,
) -> ChaosRun:
    """The :func:`run_rpc_workload` traffic, shipped through the batched
    wire path instead of one frame per call.

    Same seed, same echo program, same fault knobs — the only variable
    is the envelope: ``RpcClient.call_many`` writes each round of
    ``BATCH_ROUND`` calls as one BATCH envelope and the server coalesces
    the replies.  Several rounds give a per-envelope fault several draws
    per run, so a run at ``duplicate=0.5`` sees a duplicate on every
    seed, not only on the seeds whose single envelope drew one.  Chaos
    parity means the *outcome labels* match the serial run's invariants
    (drops masked by retransmission, duplicates never double-executed),
    not byte-identical traffic.
    """
    net = SimNetwork(seed=seed)
    server = RpcServer(SimTransport(net, "srv"))
    program = RpcProgram(WORK_PROG, name="chaos-work")
    executions: List[str] = []

    def work(args):
        executions.append(args["id"])
        return {"id": args["id"]}

    program.register(1, work, "work")
    server.serve(program)
    client = RpcClient(SimTransport(net, "cli"), timeout=timeout, retries=retries)

    net.faults.drop_probability = drop
    net.faults.duplicate_probability = duplicate

    ids = [f"c{index:02d}" for index in range(calls)]
    results = []
    for start in range(0, calls, BATCH_ROUND):
        round_ids = ids[start:start + BATCH_ROUND]
        results += client.call_many(
            server.address,
            [(WORK_PROG, 1, 1, {"id": call_id}) for call_id in round_ids],
        )
    outcomes: Dict[str, str] = {}
    for call_id, result in zip(ids, results):
        if isinstance(result, ServerShedding):
            outcomes[call_id] = "shed"
        elif isinstance(result, DeadlineExceeded):
            outcomes[call_id] = "deadline"
        elif isinstance(result, RpcTimeout):
            outcomes[call_id] = "timeout"
        elif result == {"id": call_id}:
            outcomes[call_id] = "success"
        else:
            outcomes[call_id] = "corrupt"
    net.clock.drain()

    return ChaosRun(
        outcomes=outcomes,
        executions=sorted(executions),
        retransmissions=client.retransmissions,
        dropped=net.faults.dropped_count,
        duplicated=net.faults.duplicated_count,
        duplicates_suppressed=server.duplicates_suppressed,
        duplicates_coalesced=server.duplicates_coalesced,
        calls_shed=server.calls_shed,
        deadlines_rejected=server.deadlines_rejected,
        extra={
            "pending_replies": len(client._pending),
            "batches_sent": client.batches_sent,
        },
    )


# -- federated trading workload ----------------------------------------------


def rental_type() -> ServiceType:
    return ServiceType(
        "CarRentalService",
        InterfaceType("I", [OperationType("SelectCar", [], LONG)]),
        [("ChargePerDay", DOUBLE)],
    )


def run_federation_workload(
    seed: int,
    rounds: Tuple[str, ...] = ("ok", "partition", "healed", "crash", "recovered"),
) -> ChaosRun:
    """A two-trader federation (the Fig. 6 cascade) through fault rounds.

    ``hamburg`` holds offer ``hamburg-1`` and imports from ``bremen``
    (offer ``bremen-1``) over RPC; offer-id prefixes identify the owning
    trader, so a merge's provenance is checkable.  Each round first
    applies its fault, then runs one federated import; the per-round
    offer lists are the outcome.  Partitioned or crashed peers must
    degrade to a *partial* merge (local offers only), never an error.
    """
    net = SimNetwork(seed=seed)
    # The forwarding client lives on its own host so partitioning the
    # federation edge leaves the importer-facing edge untouched.
    hamburg = TraderService(
        RpcServer(SimTransport(net, "hh")),
        trader=LocalTrader("hamburg", fanout_workers=1, clock=lambda: net.clock.now),
        client=RpcClient(SimTransport(net, "hh-fwd"), timeout=0.05, retries=1),
        now=lambda: net.clock.now,
    )
    bremen = TraderService(
        RpcServer(SimTransport(net, "hb")),
        trader=LocalTrader("bremen", fanout_workers=1, clock=lambda: net.clock.now),
        now=lambda: net.clock.now,
    )
    for service in (hamburg, bremen):
        service.trader.add_type(rental_type())
        service.trader.export(
            "CarRentalService",
            ServiceRef.create(
                f"{service.trader.trader_id}-rental",
                Address(service.trader.trader_id, 1),
                4711,
            ),
            {"ChargePerDay": 80.0},
        )
    hamburg.link_to(bremen.address, name="bremen")
    importer = TraderClient(
        RpcClient(SimTransport(net, "probe"), timeout=2.0, retries=1),
        hamburg.address,
    )

    faults = {
        "ok": lambda: None,
        "partition": lambda: net.faults.partition("hh-fwd", "hb"),
        "healed": lambda: net.faults.heal("hh-fwd", "hb"),
        "crash": lambda: net.faults.crash("hb"),
        "recovered": lambda: net.faults.recover("hb"),
    }
    outcomes: Dict[str, str] = {}
    merges: List[str] = []
    for round_name in rounds:
        faults[round_name]()
        offers = importer.import_(ImportRequest("CarRentalService", hop_limit=1))
        owners = sorted({offer.offer_id.split(":")[0] for offer in offers})
        outcomes[round_name] = "+".join(owners) or "empty"
        merges.extend(f"{round_name}/{owner}" for owner in owners)
    net.clock.drain()
    return ChaosRun(outcomes=outcomes, executions=merges)


# -- overload / shedding workload ----------------------------------------------


def run_overload_burst(
    seed: int,
    shed: bool = True,
    burst: int = 10,
    service_time: float = 0.3,
    spacing: float = 0.05,
    deadline_budget: float = 0.6,
    warmup: int = 3,
    capacity=256,
) -> ChaosRun:
    """A fault-free burst against a slow worker server, shed on or off.

    Raw wire calls are scheduled straight onto the virtual clock (one
    every ``spacing`` seconds, each with ``deadline_budget`` of life) so
    the server's deadline-ordered queue — not client pacing — decides
    what runs.  Fault-free means strict reconciliation holds: every call
    gets exactly one terminal outcome, shed calls never execute, and the
    server's shed/deadline counters match the per-call outcomes.
    """
    net = SimNetwork(seed=seed)
    policy = AdmissionPolicy(
        shed=shed, defer_while_busy=True, min_samples=warmup, quantile=0.5,
        capacity=capacity,
    )
    transport = SimTransport(net, "worker")
    server = RpcServer(transport, admission=policy)
    program = RpcProgram(WORK_PROG, name="overload")
    executions: List[str] = []

    def slow(args):
        executions.append(args["id"])
        transport.wait(lambda: False, service_time)
        return {"id": args["id"]}

    program.register(1, slow, "slow")
    server.serve(program)

    probe = SimTransport(net, "probe")
    replies: Dict[int, List[ReplyStatus]] = {}

    def on_payload(source: Address, payload: bytes) -> None:
        message = decode_message(payload)
        replies.setdefault(message.xid, []).append(message.status)

    probe.set_receiver(on_payload)

    def send(xid: int, call_id: str, deadline: float) -> None:
        call = RpcCall(
            xid, WORK_PROG, 1, 1, encode_value({"id": call_id}), deadline=deadline
        )
        probe.send(server.address, call.encode())

    # Warm the service-time estimate with generous-deadline calls.
    for index in range(warmup):
        send(index + 1, f"warm{index}", net.clock.now + 10 * service_time)
        net.clock.drain()

    t0 = net.clock.now
    ids = {}
    for index in range(burst):
        xid = 1000 + index
        call_id = f"b{index:02d}"
        ids[xid] = call_id
        offset = index * spacing
        net.clock.schedule(
            offset, lambda x=xid, c=call_id, d=t0 + offset + deadline_budget: send(x, c, d)
        )
    net.clock.drain()

    status_names = {
        ReplyStatus.SUCCESS: "success",
        ReplyStatus.SHED: "shed",
        ReplyStatus.DEADLINE_EXCEEDED: "deadline",
    }
    outcomes = {
        call_id: "+".join(status_names.get(s, s.name) for s in replies.get(xid, []))
        or "silent"
        for xid, call_id in sorted(ids.items())
    }
    burst_executions = [call_id for call_id in executions if call_id.startswith("b")]
    return ChaosRun(
        outcomes=outcomes,
        executions=burst_executions,
        duplicates_suppressed=server.duplicates_suppressed,
        duplicates_coalesced=server.duplicates_coalesced,
        calls_shed=server.calls_shed,
        deadlines_rejected=server.deadlines_rejected,
        extra={
            "handled": server.calls_handled,
            "queue_capacity": server._queue.capacity,
        },
    )


# -- crash / failover / rebind workload ---------------------------------------


def run_failover_workload(
    seed: int,
    resilience: bool = True,
    workers: int = 6,
    crashed: int = 2,
    lease_seconds: float = 0.6,
    calls: int = 24,
    spacing: float = 0.25,
    crash_at: float = 1.5,
    recover_at: float = 3.5,
    deadline_budget: float = 1.0,
) -> ChaosRun:
    """A fleet of leased exporters, a fraction crashed mid-workload.

    ``workers`` car-rental runtimes each export one leased offer to a
    shared trader (RENEW heartbeats on the virtual clock; the trader
    sweeps lapsed leases periodically).  A client issues ``calls``
    invocations, one every ``spacing`` seconds; the first ``crashed``
    workers' hosts crash at ``crash_at`` and recover at ``recover_at`` —
    crashing a host also eats its heartbeats, so its offer lapses on its
    own, and once swept the heartbeat's recovery path *re-exports* it.

    With ``resilience`` a :class:`~repro.core.rebind.RebindingClient`
    (failover + breakers + trader re-import) drives the calls; without
    it the client binds the first imported offer once and keeps using it
    — the pre-recovery behaviour benchmarked as the baseline.

    Outcomes carry the call's phase (``before``/``crashed``/
    ``recovered``; recovery is judged a lease period after the hosts
    return, giving heartbeats one cadence to re-enter the market).
    ``extra`` records the recovery counters and — load-bearing for the
    lease claim — ``expired_imports``: how many offers any import
    returned whose lease had already lapsed (must stay zero).
    """
    net = SimNetwork(seed=seed)
    clock = net.clock
    trader_service = TraderService(
        RpcServer(SimTransport(net, "trader")),
        trader=LocalTrader("td", fanout_workers=1, clock=lambda: clock.now),
        now=lambda: clock.now,
    )

    heartbeats = []
    runtimes = []
    for index in range(workers):
        host = f"w{index:02d}"
        runtime = start_car_rental(
            RpcServer(SimTransport(net, host)), enforce_fsm=False
        )
        runtimes.append((host, runtime))
        # The heartbeat's stub lives on the worker's own host, so crashing
        # the host eats RENEW datagrams — no special plumbing needed.
        stub = TraderClient(
            RpcClient(SimTransport(net, host), timeout=0.05, retries=0),
            trader_service.address,
        )
        heartbeats.append(
            keep_tradable(
                runtime.sid, runtime.ref, stub, lease_seconds, clock=clock
            )
        )

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

    rpc = RpcClient(SimTransport(net, "cli"), timeout=0.2, retries=1)
    importer = TraderClient(rpc, trader_service.address)

    # Instrument every import the client performs: the lease contract says
    # none may return an offer whose lease has already lapsed.
    expired_imports = {"count": 0, "imports": 0}
    original_import = importer.import_

    def checked_import(request, ctx=None):
        offers = original_import(request, ctx=ctx)
        now = clock.now
        expired_imports["imports"] += 1
        expired_imports["count"] += sum(1 for o in offers if o.expired(now))
        return offers

    importer.import_ = checked_import  # type: ignore[method-assign]

    generic = GenericClient(rpc, enforce_fsm=False)
    caller = ResilientCaller(
        rpc,
        backoff=BackoffPolicy(base=0.01, cap=0.2),
        breaker=BreakerPolicy(failure_threshold=2, probe_interval=0.5),
        seed=seed,
    )
    rebinder = RebindingClient(rpc, importer, resilient=caller, generic=generic)

    selection = {"CarModel": "AUDI", "BookingDate": "1994-06-21", "Days": 1}
    baseline_binding = {"value": None}

    def baseline_call(ctx) -> None:
        # No recovery layer: import once, bind the top offer once, keep
        # invoking it.  A fresh bind is only attempted when none exists.
        if baseline_binding["value"] is None:
            offers = importer.import_(
                ImportRequest("CarRentalService"), ctx=ctx
            )
            if not offers:
                raise CosmError("no offers")
            baseline_binding["value"] = generic.bind(
                offers[0].service_ref(), ctx=ctx
            )
        baseline_binding["value"].invoke(
            "SelectCar", {"selection": selection}, ctx=ctx
        )

    outcomes: Dict[str, str] = {}
    latencies: Dict[str, float] = {}
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
            if resilience:
                rebinder.invoke(
                    "CarRentalService", "SelectCar", {"selection": selection},
                    ctx=ctx,
                )
            else:
                baseline_call(ctx)
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
        # Time-to-outcome for every call: failures sit at ~the budget,
        # so availability gaps show up in the latency tail too.
        latencies[call_id] = round(clock.now - start, 9)
        target = start + spacing
        if clock.now < target:
            # A no-op event pins the grid point so pacing stays exact.
            clock.schedule_at(target, lambda: None)
            clock.run_until(lambda: clock.now >= target)

    # Wind down: stop the recurring events so the run ends cleanly.
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
        retransmissions=rpc.retransmissions,
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
    )


def availability(run: ChaosRun, phase: Optional[str] = None) -> float:
    """Fraction of (optionally phase-filtered) calls that succeeded."""
    picked = [
        outcome for outcome in run.outcomes.values()
        if phase is None or outcome.startswith(f"{phase}:")
    ]
    if not picked:
        return 1.0
    return sum(1 for o in picked if o.endswith(":success")) / len(picked)
