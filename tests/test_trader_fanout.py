"""Federation fan-out over in-process links: budget splitting, failure modes.

In-process forwarders run inline, one after another: unreachable peers
are skipped, expired budgets yield partial results, loops are broken.
The overlap of remote links is covered in ``tests/test_federation_async.py``.
"""

import time

from repro.context import CallContext, DeadlineLedger
from repro.naming.refs import ServiceRef
from repro.net.endpoints import Address
from repro.sidl.types import DOUBLE, InterfaceType, LONG, OperationType
from repro.trader.federation import TraderLink
from repro.trader.service_types import ServiceType
from repro.trader.trader import ImportRequest, LocalTrader


def rental_type():
    return ServiceType(
        "CarRentalService",
        InterfaceType("I", [OperationType("SelectCar", [], LONG)]),
        [("ChargePerDay", DOUBLE)],
    )


def make_trader(trader_id, *offer_specs, **kwargs):
    trader = LocalTrader(trader_id, **kwargs)
    trader.add_type(rental_type())
    for name, charge in offer_specs:
        trader.export(
            "CarRentalService",
            ServiceRef.create(name, Address(trader_id, 1), 4711),
            {"ChargePerDay": charge},
        )
    return trader


def names(offers):
    return sorted(offer.service_ref().name for offer in offers)


def slow_link(name, peer, delay):
    def forward(request_wire, ctx=None):
        time.sleep(delay)
        return peer.import_wire(request_wire, ctx=ctx)

    return TraderLink(name, forward)


# -- sweeps ------------------------------------------------------------------


def test_cycle_with_concurrent_forwards_dedupes_and_terminates():
    a = make_trader("a", ("a-1", 1.0))
    b = make_trader("b", ("b-1", 2.0))
    c = make_trader("c", ("c-1", 3.0))
    # Full triangle: every trader links both others (A↔B↔C↔A).
    for left, right in [(a, b), (b, a), (b, c), (c, b), (a, c), (c, a)]:
        left.link_local(right)
    offers = a.import_(ImportRequest("CarRentalService", hop_limit=5))
    assert names(offers) == ["a-1", "b-1", "c-1"]
    raw_ids = [offer.offer_id for offer in offers]
    assert len(raw_ids) == len(set(raw_ids))


def test_unreachable_peer_yields_partial_results():
    hub = make_trader("hub", ("local-1", 5.0))
    good = make_trader("good", ("good-1", 6.0))
    other = make_trader("other", ("other-1", 7.0))
    hub.link_local(good)

    def exploding(request_wire, ctx=None):
        raise RuntimeError("link down")

    hub.link(TraderLink("dead", exploding))
    hub.link_local(other)
    ctx = CallContext.background()
    offers = hub.import_(ImportRequest("CarRentalService", hop_limit=1), ctx=ctx)
    assert names(offers) == ["good-1", "local-1", "other-1"]
    # The dead link's span records the failure; the others record ok.
    outcomes = {
        span.operation: span.outcome
        for span in ctx.spans
        if span.layer == "federation"
    }
    assert outcomes["link dead"] == "RuntimeError"
    assert outcomes["link good"] == "ok"


def test_expired_budget_returns_local_only_and_marks_spans():
    hub = make_trader("hub", ("local-1", 5.0), clock=time.monotonic)
    hub.link_local(make_trader("p1", ("p1-1", 6.0)))
    hub.link_local(make_trader("p2", ("p2-1", 7.0)))
    ctx = CallContext(deadline=time.monotonic() - 1.0, hops=3)
    offers = hub.import_(ImportRequest("CarRentalService"), ctx=ctx)
    assert names(offers) == ["local-1"]
    federation_spans = [s for s in ctx.spans if s.layer == "federation"]
    assert federation_spans and all(s.outcome == "expired" for s in federation_spans)


def test_spans_show_per_link_cost():
    hub = make_trader("hub", clock=time.monotonic)
    hub.link(slow_link("to-slow", make_trader("slow", ("s-1", 1.0)), delay=0.06))
    hub.link(slow_link("to-fast", make_trader("fast", ("f-1", 2.0)), delay=0.0))
    ctx = CallContext.background()
    offers = hub.import_(ImportRequest("CarRentalService", hop_limit=1), ctx=ctx)
    assert names(offers) == ["f-1", "s-1"]
    costs = {
        span.operation: span.elapsed
        for span in ctx.spans
        if span.layer == "federation"
    }
    assert costs["link to-slow"] >= 0.05
    assert costs["link to-fast"] < costs["link to-slow"]


def test_early_termination_once_enough_candidates_gathered():
    hub = make_trader("hub", clock=time.monotonic)
    fast = make_trader("fast", ("f-1", 1.0), ("f-2", 2.0), ("f-3", 3.0))
    slow = make_trader("slow", ("s-1", 4.0))
    hub.link_local(fast)
    hub.link(slow_link("to-slow", slow, delay=0.5))
    started = time.monotonic()
    offers = hub.import_(
        ImportRequest("CarRentalService", max_matches=2, hop_limit=1)
    )
    elapsed = time.monotonic() - started
    assert len(offers) == 2
    # The fast link alone covers max_matches; nobody waits on the slow one.
    assert elapsed < 0.4


def test_ranking_preference_still_sweeps_every_link():
    hub = make_trader("hub", ("local-1", 50.0))
    cheap = make_trader("cheap", ("cheap-1", 1.0))
    dear = make_trader("dear", ("dear-1", 99.0))
    hub.link_local(dear)
    hub.link_local(cheap)
    offers = hub.import_(
        ImportRequest(
            "CarRentalService",
            preference="min ChargePerDay",
            max_matches=1,
            hop_limit=1,
        )
    )
    # max_matches=1 must not stop the sweep before the cheapest offer —
    # only the trivial "first" preference allows early termination.
    assert names(offers) == ["cheap-1"]


def test_serial_fallback_single_link_matches_parallel_semantics():
    hub = make_trader("hub", ("local-1", 5.0))
    hub.link_local(make_trader("only", ("only-1", 6.0)))
    offers = hub.import_(ImportRequest("CarRentalService", hop_limit=1))
    assert names(offers) == ["local-1", "only-1"]


def test_fanout_workers_one_forces_serial():
    hub = make_trader("hub", fanout_workers=1)
    for index in range(3):
        hub.link_local(make_trader(f"p{index}", (f"p{index}-1", 1.0 + index)))
    offers = hub.import_(ImportRequest("CarRentalService", hop_limit=1))
    assert names(offers) == ["p0-1", "p1-1", "p2-1"]


# -- budget splitting primitives --------------------------------------------


def test_context_split_divides_remaining_budget():
    ctx = CallContext(deadline=10.0, hops=2)
    children = ctx.split(4, now=2.0)
    assert len(children) == 4
    assert all(child.deadline == 4.0 for child in children)  # 8s left / 4
    assert all(child.trace_id == ctx.trace_id for child in children)
    unbounded = CallContext.background().split(3, now=0.0)
    assert all(child.deadline is None for child in unbounded)


def test_deadline_ledger_redonates_unused_budget():
    clock = lambda: 0.0  # noqa: E731 - frozen clock keeps shares exact
    ledger = DeadlineLedger(CallContext(deadline=8.0), clock, outstanding=4)
    first = ledger.lease()
    assert first.deadline == 2.0  # 8 / 4
    ledger.release()
    ledger.release()
    # Two branches finished without using their share: 8 / 2 now.
    assert ledger.lease().deadline == 4.0
    ledger.release()
    ledger.release()  # outstanding never drops below one
    assert ledger.lease().deadline == 8.0


def test_deadline_ledger_unbounded_context():
    ledger = DeadlineLedger(CallContext.background(), lambda: 0.0, outstanding=3)
    assert ledger.lease().deadline is None
    assert not ledger.expired()
