"""§4.1 listing — integrating innovative and tradable services.

Times the maturation pipeline: a browsable service's SID (with its
``COSM_TraderExport`` embedding) becomes a trader offer via
:func:`make_tradable`, while remaining accessible to generic clients.
"""

import pytest

from benchmarks.conftest import Stack
from repro.core import BrowserService, CosmMediator, make_tradable
from repro.services.car_rental import start_car_rental
from repro.trader.trader import TraderClient, TraderService


@pytest.fixture(scope="module")
def world():
    stack = Stack()
    browser = BrowserService(stack.server("browser"))
    trader_service = TraderService(stack.server("trader"))
    rental = start_car_rental(stack.server("provider"))
    browser.register_local(rental)
    trader = TraderClient(stack.client(), trader_service.address)
    mediator = CosmMediator(
        stack.client(), trader_address=trader_service.address,
        browser_refs=[browser.ref],
    )
    return stack, browser, trader_service, trader, rental, mediator


def test_make_tradable_first_time(benchmark, world):
    """First export of a family: includes service-type derivation and
    registration (the §2.2 'standardisation' step, mechanised)."""
    stack, __, __t, __c, rental, __m = world

    def first_export():
        # a private trader per round: the type never pre-exists
        from repro.trader.trader import LocalTrader

        trader = LocalTrader("fresh")
        return make_tradable(rental.sid, rental.ref, trader)

    offer_id = benchmark(first_export)
    assert offer_id


def test_make_tradable_steady_state(benchmark, world):
    """Follow-up exports: the type exists, only the offer is added."""
    from repro.trader.trader import LocalTrader

    __, __b, __t, __c, rental, __m = world
    trader = LocalTrader("steady")
    make_tradable(rental.sid, rental.ref, trader)

    def follow_up():
        offer_id = make_tradable(rental.sid, rental.ref, trader)
        trader.withdraw(offer_id)

    benchmark(follow_up)


def test_remote_make_tradable(benchmark, world):
    """The networked version against a trader service."""
    __, __b, __t, trader, rental, __m = world

    def export_remote():
        offer_id = make_tradable(rental.sid, rental.ref, trader)
        trader.withdraw(offer_id)

    benchmark(export_remote)


def test_dual_access_after_integration(benchmark, world):
    """§4.1's end state: the same service found via trader *and* browser."""
    __, __b, __t, trader, rental, mediator = world
    make_tradable(rental.sid, rental.ref, trader)

    def dual_lookup():
        via_trader = mediator.import_from_trader("CarRentalService")
        via_browser = mediator.browse("rental")
        return via_trader, via_browser

    via_trader, via_browser = benchmark(dual_lookup)
    assert via_trader[0].ref.service_id == via_browser[0].ref.service_id
