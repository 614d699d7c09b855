"""What the benchmark builds and runs: fleet shape, population, workloads.

Everything here is data shared by the system under test (``bench.sut``),
the schedule generator and the load generator, so both sides of the
socket agree on type names, offer ids and expected answers.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Tuple

from repro.sidl.types import DOUBLE, LONG, STRING, InterfaceType, OperationType
from repro.trader.service_types import ServiceType

#: Offer-id namespace shared by the router, every shard and the oracle:
#: ids are ``b:<type>:<n>`` wherever the offer lives.
PREFIX = "b"
SUPERTYPE = "Rental"
LEAVES = tuple(f"Rental{index}" for index in range(8))
#: Chosen so rendezvous placement puts two leaves on each shard and a
#: ``Rental`` import has to ask all four (checked at SUT start).
SHARD_IDS = ("sh1", "sh2", "sh3", "sh4")

#: 3 000 offers per leaf: large enough that a linear scan of one leaf
#: (~12 ms) dwarfs the RPC cost of carrying the query (~3 ms), small
#: enough that the fleet can be set up three times inside one run.
POPULATION = 40_000
SMOKE_POPULATION = 2_000

CLIENTS = 2  # load-generator connections; the sandbox has two cores
WINDOWS = 5  # measurement windows per run; gated values are window medians
WARMUP_SECONDS = 2.0
SETUPS = 3  # SUT spawns per run; ``setup_s`` is their median
CALL_TIMEOUT = 10.0  # seconds; also the latency charged to a failed op
CHECK_EVERY = 50  # every n-th import is compared with the oracle
LEASE_SECONDS = 3600.0  # every offer is leased (so RENEW has work to do) and outlives the run

OPEN_RATE_PER_CLIENT = 75.0  # requests/s per connection in the open-loop phase
OPEN_WORKERS = 8  # sender threads per connection, so a slow reply delays no send
LATE_AFTER = 0.001  # a send begun this long after it was due counts as late

#: ``ChargePerDay`` takes 97 values from 10.0: ``< 12`` keeps 2 %,
#: ``< 20`` keeps 10 % (> 200 offers of a leaf, so ``bulk`` replies are full).
POINT_CONSTRAINT = "ChargePerDay < 12"
BULK_CONSTRAINT = "ChargePerDay < 20"
SCAN_CONSTRAINT = "ChargePerDay * 2 < 24"  # arithmetic defeats every index
CHEAPEST = "min ChargePerDay"
POINT_MATCHES = 10
BULK_MATCHES = 200

#: name -> (heavy classes, light classes): the op classes behind the
#: ``heavy_*`` and ``light_*`` latency figures.  Why each workload exists
#: is recorded in ``BENCHMARK.json`` and ``bench/README.md``.
WORKLOADS: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {
    "import_point": (("fanout",), ("leaf_range", "leaf_city")),
    "import_scan": (("scan",), ("unranked",)),
    "export_churn": (("bulk",), ("point",)),
    "fig6_journey": (("mediation",), ("trading",)),
}

WRITE_CLASSES = ("export", "modify", "renew", "withdraw")


def rental_type(name: str) -> ServiceType:
    """``Rental`` or one of its leaves (leaves declare it as supertype)."""
    return ServiceType(
        name,
        InterfaceType("I", [OperationType("Use", [], LONG)]),
        [("ChargePerDay", DOUBLE), ("City", STRING)],
        super_types=() if name == SUPERTYPE else (SUPERTYPE,),
    )


def offer_properties(position: int, leaf: str) -> Dict[str, Any]:
    """Properties of the ``position``-th offer of ``leaf`` (0-based): every
    leaf holds the same spread of charges and all ten cities.

    The charge carries the leaf's number in its second decimal, so no two
    leaves tie on ``ChargePerDay``.  That is deliberate: on a tie *across
    types* the unsharded trader's sorted-index fast path and its general
    path rank differently (``OfferStore.ordered_by`` binds ``position``
    late), so there would be no single right answer to hold the fleet to
    — see "Findings" in the README.
    """
    return {
        "ChargePerDay": 10.0 + position % 97 + LEAVES.index(leaf) / 100.0,
        "City": f"C{position % 10}",
    }


def offer_ref(tag: str) -> Dict[str, Any]:
    """A service-reference wire dict; never bound, only carried."""
    return {
        "__cosm__": "service_reference",
        "service_id": f"cosm:{tag}",
        "name": tag,
        "host": "127.0.0.1",
        "port": 1,
        "prog": 4711,
        "vers": 1,
    }


def preload(total: int) -> Iterator[Tuple[str, Dict[str, Any], Dict[str, Any]]]:
    """The initial population, round-robin over the leaves: the SUT and
    the oracle both consume this, so they mint identical offer ids."""
    leaves = len(LEAVES)
    for index in range(total):
        leaf = LEAVES[index % leaves]
        yield leaf, offer_ref(f"p{index}"), offer_properties(index // leaves, leaf)


def preloaded_per_leaf(total: int, leaf: str) -> int:
    index = LEAVES.index(leaf)
    return total // len(LEAVES) + (1 if index < total % len(LEAVES) else 0)
