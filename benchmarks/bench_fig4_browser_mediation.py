"""Fig. 4 — bindings between generic client, browser, application server.

Times registration (1), browsing (2), and binding out of the result (3),
plus cascade chains of depth d and browse scaling over the number of
registered services.
"""

import pytest

from benchmarks.conftest import SELECTION, Stack
from repro.core import BrowserService, GenericClient
from repro.core.browser import BrowserClient
from repro.services.car_rental import make_car_rental_sid, start_car_rental
from repro.services.directory import start_directory


def build_world(service_count: int):
    stack = Stack()
    browser = BrowserService(stack.server("browser"))
    runtimes = []
    for index in range(service_count):
        sid = make_car_rental_sid(service_id=4711 + index, name=f"Rental{index}")
        runtime = start_car_rental(stack.server(f"p{index}"), sid=sid)
        browser.register_local(runtime)
        runtimes.append(runtime)
    generic = GenericClient(stack.client("user"))
    return stack, browser, runtimes, generic


@pytest.fixture(scope="module")
def world():
    return build_world(16)


def test_fig4_step1_registration(benchmark, world):
    stack, browser, runtimes, __ = world
    registrar = BrowserClient(stack.client(), browser.ref)

    def register():
        registrar.register(runtimes[0].sid, runtimes[0].ref)

    benchmark(register)


@pytest.mark.parametrize("population", [4, 16, 64])
def test_fig4_step2_browsing_scaling(benchmark, population):
    stack, browser, __, generic = build_world(population)
    binding = generic.bind(browser.ref)

    result = benchmark(lambda: binding.invoke("List"))
    assert len(result.value) == population


def test_fig4_step2_search(benchmark, world):
    __, browser, __r, generic = world
    binding = generic.bind(browser.ref)

    result = benchmark(lambda: binding.invoke("Search", {"query": "rental3"}))
    assert len(result.references) >= 1


def test_fig4_step3_bind_from_result(benchmark, world):
    __, browser, __r, generic = world
    browser_binding = generic.bind(browser.ref)
    browser_binding.invoke("List")

    def bind_first():
        binding = browser_binding.bind_discovered(0)
        binding.unbind()
        return binding

    binding = benchmark(bind_first)
    assert binding.depth == 1


@pytest.mark.parametrize("depth", [1, 3, 6])
def test_fig4_cascade_depth(benchmark, depth):
    """A chain of directories, each advertising the next; the leaf is the
    rental service.  One full cascade = depth binds + lookups."""
    stack = Stack()
    generic = GenericClient(stack.client("user"))
    rental = start_car_rental(stack.server("leaf"))
    admin = GenericClient(stack.client("admin"))
    next_ref = rental.ref
    for level in range(depth):
        directory = start_directory(stack.server(f"dir-{level}"))
        binding = admin.bind(directory.ref)
        binding.invoke(
            "Advertise",
            {"category": "chain", "description": f"level {level}", "ref": next_ref.to_wire()},
        )
        binding.unbind()
        next_ref = directory.ref
    entry_ref = next_ref

    def cascade():
        binding = generic.bind(entry_ref)
        hops = [binding]
        while binding.service_name != "CarRentalService":
            binding.invoke("Lookup", {"category": "chain"})
            binding = binding.bind_discovered()
            hops.append(binding)
        binding.invoke("SelectCar", {"selection": SELECTION})
        for hop in hops:
            hop.unbind()
        return len(hops)

    hops = benchmark(cascade)
    assert hops == depth + 1
