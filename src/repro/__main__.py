"""``python -m repro`` — a two-minute tour of the COSM infrastructure.

Runs a compact end-to-end narrative on a simulated network: an innovative
service registers at a browser, a generic client drives it through a
generated UI, the service matures into a trader offer, and an importer
selects and books through the trader — the whole arc of the paper.

Subcommands::

    python -m repro                     # the tour (default)
    python -m repro telemetry-report …  # per-layer latency report
    python -m repro telemetry-dash …    # live RED dashboard (tail + STATS)
    python -m repro stats HOST:PORT     # one-shot STATS snapshot dump
    python -m repro sharded-trader …    # sharded trader: placement, failover
"""

from __future__ import annotations

import sys
from typing import Callable, Dict, Optional, Sequence, Tuple


def _run_tour(argv: Sequence[str]) -> int:
    if argv and argv[0] in ("-h", "--help"):
        print(__doc__.strip())
        return 0
    tour()
    return 0


def _run_telemetry_report(argv: Sequence[str]) -> int:
    from repro.telemetry import report

    return report.main(list(argv))


def _run_telemetry_dash(argv: Sequence[str]) -> int:
    from repro.telemetry import live

    return live.main(list(argv))


def _run_stats(argv: Sequence[str]) -> int:
    from repro.rpc import stats

    return stats.main(list(argv))


def _run_sharded_trader(argv: Sequence[str]) -> int:
    from repro.trader.sharding import cli

    return cli.main(list(argv))


#: subcommand -> (runner, one-line help).  ``tour`` is also the default
#: when no subcommand is given.
COMMANDS: Dict[str, Tuple[Callable[[Sequence[str]], int], str]] = {
    "tour": (_run_tour, "end-to-end narrative on a simulated network (default)"),
    "telemetry-report": (_run_telemetry_report, "per-layer latency report from a JSONL trace"),
    "telemetry-dash": (_run_telemetry_dash, "live RED dashboard: tail a JSONL trace and/or poll STATS"),
    "stats": (_run_stats, "fetch one STATS snapshot from a live server"),
    "sharded-trader": (
        _run_sharded_trader,
        "sharded/replicated trader walkthrough: placement, fan-out, failover",
    ),
}


def _usage(stream) -> None:
    print("usage: python -m repro [SUBCOMMAND] [OPTIONS]", file=stream)
    print("\nsubcommands:", file=stream)
    width = max(len(name) for name in COMMANDS)
    for name, (_, help_text) in COMMANDS.items():
        print(f"  {name:<{width}}  {help_text}", file=stream)
    print(
        "\nrun 'python -m repro SUBCOMMAND --help' for subcommand options",
        file=stream,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv:
        return _run_tour([])
    head, rest = argv[0], argv[1:]
    if head in ("-h", "--help", "help"):
        _usage(sys.stdout)
        return 0
    entry = COMMANDS.get(head)
    if entry is None:
        print(f"unknown subcommand {head!r}", file=sys.stderr)
        _usage(sys.stderr)
        return 2
    return entry[0](rest)


def tour() -> None:
    from repro.core import BrowserService, CosmMediator, GenericClient, make_tradable
    from repro.net import SimNetwork
    from repro.rpc import RpcClient, RpcServer
    from repro.rpc.transport import SimTransport
    from repro.services import start_car_rental, start_stock_quotes
    from repro.sidl.fsm import FsmViolation
    from repro.trader.trader import TraderClient, TraderService
    from repro.uims.session import UiSession

    print(__doc__.strip().splitlines()[0])
    print("=" * 64)
    net = SimNetwork()

    print("\n[1] providers start and register their SIDs at the browser")
    rental = start_car_rental(RpcServer(SimTransport(net, "rental-host")))
    quotes = start_stock_quotes(RpcServer(SimTransport(net, "quotes-host")))
    browser = BrowserService(RpcServer(SimTransport(net, "browser-host")))
    browser.register_local(rental)
    browser.register_local(quotes)
    print(f"    browser now lists {browser.entries()} services")
    meta = BrowserService(RpcServer(SimTransport(net, "meta-host")))
    browser.register_at(meta.ref, RpcClient(SimTransport(net, "browser-client")))
    print(f"    and registers its own SID at a meta-browser ({meta.entries()} entry)")

    print("\n[2] a generic client browses and binds — no stubs, no foreknowledge")
    generic = GenericClient(RpcClient(SimTransport(net, "user-host")))
    session = UiSession(generic)
    session.open(browser.ref)
    session.fill("Search.query", "rental")
    session.click("Search")
    session.click_bind("Search")
    print(f"    bound to {session.current.title}; "
          f"state {session.state()}, enabled: {session.current.enabled_operations()}")

    print("\n[3] the FSM guards the protocol locally")
    try:
        session.click("BookCar")
    except FsmViolation as violation:
        print(f"    rejected without network traffic: {violation}")

    print("\n[4] the generated form drives the service")
    session.fill("SelectCar.selection.CarModel", "VW-Golf")
    session.fill("SelectCar.selection.BookingDate", "1994-08-01")
    session.fill("SelectCar.selection.Days", 3)
    quote = session.click("SelectCar")
    booking = session.click("BookCar")
    print(f"    quoted {quote['charge']} {quote['currency']}, "
          f"confirmation {booking['confirmation']}")

    print("\n[5] the service matures: its export embedding becomes a trader offer")
    trader_service = TraderService(RpcServer(SimTransport(net, "trader-host")))
    trader = TraderClient(RpcClient(SimTransport(net, "exporter-host")), trader_service.address)
    offer_id = make_tradable(rental.sid, rental.ref, trader)
    print(f"    exported as {offer_id}")

    print("\n[6] an importer selects by constraint and binds directly")
    mediator = CosmMediator(
        RpcClient(SimTransport(net, "importer-host")),
        trader_address=trader_service.address,
        browser_refs=[browser.ref],
    )
    binding = mediator.bind_best("CarRentalService", "ChargePerDay < 100")
    result = binding.invoke(
        "SelectCar",
        {"selection": {"CarModel": "AUDI", "BookingDate": "1994-08-02", "Days": 1}},
    )
    print(f"    via trader: {result.value}")
    print("\nall layers exercised — see examples/ for the full walkthroughs.")


if __name__ == "__main__":
    raise SystemExit(main())
