"""The load generator: connections, op execution, closed and open loops.

One process (not the SUT's, so the two do not share an interpreter
lock).  A :class:`Connection` is one ``TcpTransport`` + ``RpcClient`` with
the stubs a real importer, exporter or generic-client user would hold.
Every op is timed around the stub call alone; answer checking happens
after the clock stops.
"""

from __future__ import annotations

import threading
import time
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from bench import config
from bench.schedule import Op
from bench.stats import Sample

from repro.core import GenericClient
from repro.naming.nameserver import NameServerClient
from repro.naming.refs import ServiceRef
from repro.net.endpoints import Address
from repro.rpc.client import RpcClient
from repro.rpc.transport import TcpTransport
from repro.trader.trader import ImportRequest, LocalTrader, TraderClient
from repro.uims.session import UiSession


class Oracle:
    """A never-sharded trader fed the same exports in the same order: its
    answers (offer ids *and* order) are what the sharded fleet must give.

    ``LocalTrader`` is not thread-safe (an ordered walk compacts the
    sorted index in place), and clients share an oracle, hence the lock.
    """

    def __init__(self, population: int, leaves: Sequence[str] = config.LEAVES) -> None:
        self._lock = threading.Lock()
        self._trader = LocalTrader("oracle", offer_prefix=config.PREFIX)
        self._trader.add_type(config.rental_type(config.SUPERTYPE))
        for leaf in leaves:
            self._trader.add_type(config.rental_type(leaf))
        wanted = set(leaves)
        for leaf, ref, properties in config.preload(population):
            if leaf in wanted:
                self._export(leaf, ref, properties)

    def _export(self, leaf: str, ref: Dict[str, Any], properties: Dict[str, Any]) -> None:
        self._trader.export(leaf, ref, properties, 0.0, lease_seconds=config.LEASE_SECONDS)

    def offer_ids(self, request_wire: Dict[str, Any]) -> List[str]:
        with self._lock:
            offers = self._trader.import_(ImportRequest.from_wire(request_wire))
        return [offer.offer_id for offer in offers]

    def apply(self, op: Op) -> None:
        """Mirror a write the fleet acknowledged."""
        with self._lock:
            if op[0] == "export":
                self._export(op[1], config.offer_ref(op[3]), op[2])
            elif op[0] == "modify":
                self._trader.modify(op[1], op[2])
            elif op[0] == "withdraw":
                self._trader.withdraw(op[1])


class Connection:
    """One load-generator connection and the stubs that ride on it."""

    def __init__(self, front: Sequence[Any], names: Optional[Sequence[Any]], index: int) -> None:
        self.index = index
        self.transport = TcpTransport()
        self.rpc = RpcClient(self.transport, timeout=config.CALL_TIMEOUT, retries=0)
        self.trader = TraderClient(self.rpc, Address(*front))
        self.names = NameServerClient(self.rpc, Address(*names)) if names else None

    def close(self) -> None:
        self.rpc.close()
        self.transport.close()


class Client:
    """Executes ops on one connection and records samples.

    ``oracle`` is consulted for every ``CHECK_EVERY``-th import; with
    ``feed_oracle`` (``export_churn``, where it is this client's own) it is
    fed each write the SUT acknowledged, so it always holds what the
    fleet should hold.
    """

    def __init__(
        self, connection: Connection, oracle: Optional[Oracle], feed_oracle: bool = False
    ) -> None:
        self.connection = connection
        self.oracle = oracle
        self.feed_oracle = feed_oracle
        self.samples: List[Sample] = []
        self.lags: List[float] = []  # open loop: send begun minus due, seconds
        self.errors: List[str] = []
        self.checked = 0
        self._imports = 0
        self._lock = threading.Lock()  # open-loop senders share one Client

    # -- one op ----------------------------------------------------------------

    def execute(self, op: Op, due: Optional[float] = None) -> None:
        """Run ``op``; latency counts from ``due`` when given (open loop)."""
        kind = op[0]
        begun = perf_counter()
        start = begun if due is None else due
        try:
            if kind == "journey":
                self._journey(op, start)
                return
            label, answer = getattr(self, "_" + kind)(op)
            end = perf_counter()
            problem = self._verify(op, answer)
        except Exception as exc:  # noqa: BLE001 - any failure is a failed op
            end = perf_counter()
            label, problem = op[1] if kind == "import" else kind, f"{type(exc).__name__}: {exc}"
        self._record(start, end, label, problem, None if due is None else begun - due)

    def _record(self, start, end, label, problem, lag=None) -> None:
        with self._lock:
            self.samples.append((start, end, label, problem is None))
            if lag is not None:
                self.lags.append(lag)
            if problem is not None and len(self.errors) < 20:
                self.errors.append(f"{label}: {problem}"[:400])

    def _import(self, op: Op):
        return op[1], self.connection.trader.import_(op[2])

    def _export(self, op: Op):
        answer = self.connection.trader.export(
            op[1], config.offer_ref(op[3]), op[2], lease_seconds=config.LEASE_SECONDS
        )
        return "export", answer

    def _modify(self, op: Op):
        return "modify", self.connection.trader.modify(op[1], op[2])

    def _renew(self, op: Op):
        return "renew", self.connection.trader.renew(op[1])

    def _withdraw(self, op: Op):
        return "withdraw", self.connection.trader.withdraw(op[1])

    # -- checking, after the clock stopped ---------------------------------------------

    def _verify(self, op: Op, answer: Any) -> Optional[str]:
        kind = op[0]
        if kind == "import":
            if op[3] is not None and len(answer) != op[3]:
                return f"{len(answer)} offers, expected {op[3]}"
            with self._lock:
                self._imports += 1
                check = self.oracle is not None and self._imports % config.CHECK_EVERY == 1
            if check:
                got = [offer.offer_id for offer in answer]
                want = self.oracle.offer_ids(op[2])
                with self._lock:
                    self.checked += 1
                if got != want:
                    return f"offers or their order differ from the oracle: {got} vs {want}"
            return None
        if kind == "export" and answer != op[3]:
            return f"minted {answer!r}, expected {op[3]!r}"
        if kind in ("modify", "withdraw") and answer is not True:
            return f"{kind} returned {answer!r}"
        if kind == "renew" and not isinstance(answer, float):
            return f"renew returned {answer!r}"
        if self.feed_oracle:
            self.oracle.apply(op)
        return None

    # -- the Fig. 6 cascade ----------------------------------------------------------------

    def _journey(self, op: Op, start: float) -> None:
        """Mediation arc (name server → browser → generated UI → booking),
        then the trading arc (import → bind → invoke → unbind): two
        class samples plus one for the whole journey."""
        _, model, days = op
        connection = self.connection
        problem = None
        middle = end = start
        try:
            browser = ServiceRef.from_wire(connection.names.resolve("cosm/browser"))
            session = UiSession(GenericClient(connection.rpc))
            session.open(browser)
            session.fill("Search.query", f"CarRental{connection.index}")
            session.click("Search")
            session.click_bind("Search")
            session.fill("SelectCar.selection.CarModel", model)
            session.fill("SelectCar.selection.BookingDate", "1994-06-21")
            session.fill("SelectCar.selection.Days", days)
            quote = session.click("SelectCar")
            booking = session.click("BookCar")
            session.close_all()
            middle = perf_counter()
            offers = connection.trader.import_(
                ImportRequest(
                    "CarRentalService",
                    f"AverageMilage == {12000 + connection.index}",
                    config.CHEAPEST,
                    max_matches=1,
                )
            )
            binding = GenericClient(connection.rpc).bind(offers[0].service_ref())
            selected = binding.invoke(
                "SelectCar",
                {"selection": {"CarModel": model, "BookingDate": "1994-06-21", "Days": days}},
            )
            binding.unbind()
            end = perf_counter()
            if not (quote["available"] and selected.value["available"]):
                problem = "car not available"
            elif quote["charge"] != 80.0 * days or selected.value["charge"] != 80.0 * days:
                problem = f"wrong charge {quote['charge']!r}"
            elif not booking["confirmation"] > 0:
                problem = f"no confirmation: {booking!r}"
        except Exception as exc:  # noqa: BLE001 - any failure is a failed op
            end = perf_counter()
            middle = middle if middle > start else end
            problem = f"{type(exc).__name__}: {exc}"
        self._record(start, middle, "mediation", problem)
        self._record(middle, end, "trading", problem)
        self._record(start, end, "journey", problem)


#: Classes that are parts of an op, not ops: kept out of throughput and
#: the all-op percentiles.
PART_CLASSES = ("mediation", "trading")


def run_closed(clients: Sequence[Client], schedules: Sequence[List[Op]], stop_at: float) -> None:
    """Each client runs its schedule back to back until ``stop_at``."""

    def loop(client: Client, ops: List[Op]) -> None:
        for op in ops:
            if perf_counter() >= stop_at:
                break
            client.execute(op)

    _join_all(
        [threading.Thread(target=loop, args=pair, daemon=True) for pair in zip(clients, schedules)],
        stop_at,
    )


def run_open(
    clients: Sequence[Client],
    schedules: Sequence[List[Tuple[float, Op]]],
    started: float,
    sleep: Callable[[float], None] = time.sleep,
) -> None:
    """Each connection sends on its schedule whatever the replies do.

    A connection's requests are dealt round-robin to ``OPEN_WORKERS``
    sender threads sharing it; each sleeps until its next request is due
    and sends it.  A sender's consecutive requests are many inter-arrival
    gaps apart, so a slow reply delays no later send, and no request
    waits for a hand-off between threads.  Latency counts from the due time.
    """

    def send(client: Client, share: List[Tuple[float, Op]]) -> None:
        for offset, op in share:
            due = started + offset
            wait = due - perf_counter()
            if wait > 0:
                sleep(wait)
            client.execute(op, due)

    threads = [
        threading.Thread(
            target=send, args=(client, schedule[worker :: config.OPEN_WORKERS]), daemon=True
        )
        for client, schedule in zip(clients, schedules)
        for worker in range(config.OPEN_WORKERS)
    ]
    last = max((schedule[-1][0] for schedule in schedules if schedule), default=0.0)
    _join_all(threads, started + last)


def _join_all(threads: List[threading.Thread], expected_end: float) -> None:
    for thread in threads:
        thread.start()
    # The last op may still be in flight at the expected end; it is bounded
    # by the call timeout, so this wait cannot hang.
    deadline = expected_end + 2 * config.CALL_TIMEOUT
    for thread in threads:
        thread.join(max(0.0, deadline - perf_counter()))
        if thread.is_alive():
            raise RuntimeError("load-generator thread did not finish in time")


def late_share(lags: Sequence[float]) -> float:
    """Share of sends begun more than ``LATE_AFTER`` after they were due."""
    if not lags:
        return 0.0
    return sum(1 for lag in lags if lag > config.LATE_AFTER) / len(lags)
