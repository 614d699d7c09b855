"""What one stored offer costs: a primary shard and its replica together.

A directory is sized by its cost per entry as the population grows; this
pins that number for the trader's offer store.
"""

import gc
import sys
import tracemalloc

import pytest

from repro.naming.refs import ServiceRef
from repro.net.endpoints import Address
from repro.sidl.types import DOUBLE, LONG, STRING, InterfaceType, OperationType
from repro.trader.service_types import ServiceType
from repro.trader.sharding.shard import TraderShard

OFFERS = 2_000
#: Retained bytes per offer for the primary+replica pair (≈ 3 450 B
#: measured with CPython 3.11).  The ceiling may only fall: a change that
#: needs more bytes per stored offer has to say why, not move this line.
BYTES_PER_OFFER_CEILING = 4_000


@pytest.mark.skipif(
    sys.version_info < (3, 11),
    reason="measured on CPython 3.11; older object layouts (no inline instance "
    "values, 24-byte str-keyed dict entries) cost more per offer",
)
def test_retained_bytes_per_offer_stay_under_the_ceiling():
    rental = ServiceType(
        "Rental",
        InterfaceType("I", [OperationType("Use", [], LONG)]),
        [("ChargePerDay", DOUBLE), ("City", STRING)],
    )
    tracemalloc.start()
    try:
        gc.collect()
        baseline = tracemalloc.get_traced_memory()[0]
        primary = TraderShard("p", offer_prefix="b")
        replica = TraderShard("r", offer_prefix="b", role="replica")
        primary.attach_replica(replica.shard_id, replica.apply_delta)
        primary.add_type(rental)
        for n in range(OFFERS):
            primary.export(
                "Rental",
                ServiceRef.create(f"svc-{n}", Address("10.0.0.1", 4000), 4711),
                {"ChargePerDay": 10.0 + n % 97, "City": f"C{n % 10}"},
                0.0,
                lease_seconds=3600.0,
            )
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - baseline
    finally:
        tracemalloc.stop()
    assert len(primary.offers) == len(replica.offers) == OFFERS
    assert retained / OFFERS <= BYTES_PER_OFFER_CEILING, retained / OFFERS
