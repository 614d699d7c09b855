"""Zero-configuration entry into an open service market.

A workstation joins the network knowing *nothing* — no browser address,
no trader address.  One LAN broadcast later it has found the well-known
components, and a few generic-client calls later it has booked a car
whose price the trader fetched live from the provider (a dynamic
property).

Run:  python examples/zero_config_bootstrap.py
"""

from repro.core import BrowserService, GenericClient, make_tradable
from repro.naming.discovery import BroadcastDiscoverer, DiscoveryResponder
from repro.naming.refs import ServiceRef
from repro.net import SimNetwork
from repro.rpc import RpcClient, RpcServer
from repro.rpc.transport import SimTransport
from repro.services import start_car_rental
from repro.trader import TRADER_PROGRAM, TraderClient, TraderService
from repro.trader.trader import ImportRequest


def main() -> None:
    net = SimNetwork()

    # --- the established market (set up before our newcomer arrives) ----
    browser = BrowserService(RpcServer(SimTransport(net, "browser-host")))
    trader_service = TraderService(
        RpcServer(SimTransport(net, "trader-host")),
        client=RpcClient(SimTransport(net, "trader-eval")),
    )
    rental = start_car_rental(RpcServer(SimTransport(net, "rental-host")))
    browser.register_local(rental)
    exporter = TraderClient(RpcClient(SimTransport(net, "exporter")), trader_service.address)
    make_tradable(rental.sid, rental.ref, exporter)

    # both well-known components advertise themselves for broadcast discovery
    browser_responder = DiscoveryResponder(net, "browser-host")
    browser_responder.advertise("browser", browser.ref)
    trader_responder = DiscoveryResponder(net, "trader-host")
    trader_ref = ServiceRef.create("Trader", trader_service.address, TRADER_PROGRAM)
    trader_responder.advertise("trader", trader_ref)

    # --- the newcomer: one transport, zero configuration -----------------
    newcomer_rpc = RpcClient(SimTransport(net, "newcomer"))
    discoverer = BroadcastDiscoverer(net, newcomer_rpc)
    print("broadcasting DISCOVER on port 532 ...")
    for item in discoverer.discover():
        ref = ServiceRef.from_wire(item["ref"])
        print(f"  found {item['role']:<8} {ref.name} at {ref.host}:{ref.port}")

    trader_ref = discoverer.find_first("trader")

    # use the trader found by broadcast
    trader = TraderClient(newcomer_rpc, trader_ref.address)
    offers = trader.import_(
        ImportRequest("CarRentalService", "ChargePerDay <= 80", "min ChargePerDay")
    )
    print(f"\ntrader knows {len(offers)} matching offer(s); best: "
          f"{offers[0].properties['ChargePerDay']} {offers[0].properties['ChargeCurrency']}")

    # and the browser, through the ordinary generic client
    generic = GenericClient(newcomer_rpc)
    binding = generic.bind(offers[0].service_ref())
    result = binding.invoke(
        "SelectCar",
        {"selection": {"CarModel": "FIAT-Uno", "BookingDate": "1994-10-01", "Days": 2}},
    )
    booking = binding.invoke("BookCar")
    print(f"quoted {result.value['charge']}, booked confirmation "
          f"{booking.value['confirmation']} — all from a cold start.")


if __name__ == "__main__":
    main()
