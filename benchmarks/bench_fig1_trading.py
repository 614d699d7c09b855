"""Fig. 1 — the ODP trader and its users.

Regenerates the five-step interaction: export (1), import request (2),
reply with service identifiers (3), binding (4), invocation (5).  Also
prints the import-latency series over growing offer populations — the
trader's matching cost is what federation and constraints act on.
"""

import pytest

from benchmarks.conftest import SELECTION, Stack
from repro.core import make_tradable
from repro.naming.binder import Binder
from repro.services.car_rental import make_car_rental_sid, start_car_rental
from repro.trader.trader import ImportRequest, TraderClient, TraderService


def build_market(offer_count: int):
    stack = Stack()
    trader_service = TraderService(stack.server("trader"))
    exporter = TraderClient(stack.client(), trader_service.address)
    runtimes = []
    for index in range(offer_count):
        sid = make_car_rental_sid(
            charge_per_day=50.0 + index % 60,
            model=("AUDI", "FIAT-Uno", "VW-Golf")[index % 3],
            service_id=4711 + index,
        )
        runtime = start_car_rental(stack.server(f"provider-{index}"), sid=sid)
        make_tradable(sid, runtime.ref, exporter)
        runtimes.append(runtime)
    importer = TraderClient(stack.client(), trader_service.address)
    return stack, trader_service, importer, runtimes


@pytest.fixture(scope="module")
def market():
    return build_market(offer_count=20)


def test_fig1_step1_export(benchmark, market):
    """Step 1: one offer export (including withdrawal to stay idempotent)."""
    stack, trader_service, importer, runtimes = market

    def export_once():
        offer_id = importer.export(
            "CarRentalService",
            runtimes[0].ref,
            {
                "CarModel": "AUDI",
                "AverageMilage": 12000,
                "ChargePerDay": 80.0,
                "ChargeCurrency": "USD",
            },
        )
        importer.withdraw(offer_id)

    benchmark(export_once)


def test_fig1_steps2_3_import(benchmark, market):
    """Steps 2+3: constrained, preference-ordered import."""
    __, __, importer, __r = market
    request = ImportRequest(
        "CarRentalService", "ChargePerDay < 100", "min ChargePerDay"
    )

    def import_once():
        offers = importer.import_(request)
        assert offers
        return offers

    benchmark(import_once)


def test_fig1_steps4_5_bind_invoke(benchmark, market):
    """Steps 4+5: direct binding and one invocation, trader out of the loop."""
    stack, __, importer, __r = market
    offer = importer.select_best(ImportRequest("CarRentalService"))
    binder = Binder(stack.client())

    def bind_invoke():
        binding = binder.bind(offer.service_ref())
        result = binding.invoke("SelectCar", {"selection": SELECTION})
        binding.unbind()
        return result

    benchmark(bind_invoke)


def test_fig1_whole_flow(benchmark, market):
    """All five steps as one importer-visible transaction."""
    stack, __, importer, __r = market
    binder = Binder(stack.client())

    def flow():
        offer = importer.select_best(
            ImportRequest("CarRentalService", "ChargePerDay < 100", "min ChargePerDay")
        )
        binding = binder.bind(offer.service_ref())
        result = binding.invoke("SelectCar", {"selection": SELECTION})
        binding.unbind()
        return result

    benchmark(flow)


@pytest.mark.parametrize("count", [10, 50, 200])
def test_fig1_import_scaling_series(benchmark, count):
    """Series: import latency as the offer population grows."""
    __, trader_service, importer, __r = build_market(count)
    request = ImportRequest("CarRentalService", "ChargePerDay < 55")

    offers = benchmark(lambda: importer.import_(request))
    full = importer.import_(ImportRequest("CarRentalService"))
    assert len(full) == count
    expected = sum(1 for index in range(count) if 50.0 + index % 60 < 55)
    assert len(offers) == expected
