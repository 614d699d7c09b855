"""Seeded op schedules: everything a client will send, fixed before timing.

An op is a JSON-able list whose first item is its kind:

* ``["import", class, request_wire, expected_count or None]``
* ``["export", leaf, properties, expected_offer_id]``
* ``["modify", offer_id, properties]`` / ``["renew", offer_id]`` /
  ``["withdraw", offer_id]``
* ``["journey", car_model, days]``

Mixes are exact, not sampled: each block of ops holds every class in its
stated share and only the order inside the block is drawn from the seed,
so two seeds do the same work in a different order and the seed-to-seed
spread measures the machine, not the dice.  Offer ids are computable in
advance (``prefix:type:n`` with a per-type counter, and each type is
written by one client only), which is what lets a write schedule name
its targets — and check every minted id — without a round trip.
"""

from __future__ import annotations

import functools
import json
import random
from typing import Any, Dict, List, Optional, Tuple

from bench import config

Op = List[Any]

#: Generous upper bounds on ops/s per client, to size a schedule that a
#: run of the given length cannot exhaust.
_RATE_CAP = {
    "import_point": 1500,
    "import_scan": 600,
    "export_churn": 1500,
    "fig6_journey": 500,
}

CAR_MODELS = ("AUDI", "FIAT-Uno", "VW-Golf")


def import_request(service_type: str, constraint: str, preference: str, matches: int) -> Dict[str, Any]:
    """The wire form ``ImportRequest.to_wire`` produces, field for field."""
    return {
        "service_type": service_type,
        "constraint": constraint,
        "preference": preference,
        "max_matches": matches,
        "structural": False,
        "hop_limit": 0,
        "visited": [],
    }


@functools.lru_cache(maxsize=None)
def _matching(offers: int, below: int, city: Optional[int]) -> int:
    """How many of a leaf's first ``offers`` preloaded offers have
    ``ChargePerDay < 10 + below`` (and, if given, ``City == C<city>``)."""
    return sum(
        1
        for position in range(offers)
        if position % 97 < below and (city is None or position % 10 == city)
    )


def expected_count(
    population: int, service_type: str, below: int, city: Optional[int], cap: int
) -> int:
    """Offers an import of the *preloaded* population returns."""
    leaves = config.LEAVES if service_type == config.SUPERTYPE else (service_type,)
    found = sum(
        _matching(config.preloaded_per_leaf(population, leaf), below, city) for leaf in leaves
    )
    return min(cap, found)


def _blocks(rng: random.Random, block: List[str], count: int) -> List[str]:
    kinds: List[str] = []
    while len(kinds) < count:
        shuffled = list(block)
        rng.shuffle(shuffled)
        kinds.extend(shuffled)
    return kinds[:count]


def _city_constraint(city: int) -> str:
    return f"City == 'C{city}' and ChargePerDay < 30"


def _point_op(rng: random.Random, kind: str, population: int) -> Op:
    leaf = rng.choice(config.LEAVES)
    cap = config.POINT_MATCHES
    if kind == "leaf_range":
        request = import_request(leaf, config.POINT_CONSTRAINT, config.CHEAPEST, cap)
        expected = expected_count(population, leaf, 2, None, cap)
    elif kind == "leaf_city":
        city = rng.randrange(10)
        request = import_request(leaf, _city_constraint(city), config.CHEAPEST, cap)
        expected = expected_count(population, leaf, 20, city, cap)
    else:  # fanout: the supertype covers every leaf, hence all four shards
        request = import_request(config.SUPERTYPE, config.POINT_CONSTRAINT, config.CHEAPEST, cap)
        expected = expected_count(population, config.SUPERTYPE, 2, None, cap)
    return ["import", kind, request, expected]


def import_point(rng: random.Random, count: int, population: int) -> List[Op]:
    block = ["leaf_range"] * 10 + ["leaf_city"] * 5 + ["fanout"] * 5
    return [_point_op(rng, kind, population) for kind in _blocks(rng, block, count)]


def import_scan(rng: random.Random, count: int, population: int) -> List[Op]:
    ops: List[Op] = []
    cap = config.POINT_MATCHES
    for kind in _blocks(rng, ["scan"] * 7 + ["unranked"] * 3, count):
        leaf = rng.choice(config.LEAVES)
        if kind == "scan":
            constraint = config.SCAN_CONSTRAINT
            expected = expected_count(population, leaf, 2, None, cap)
        else:
            city = rng.randrange(10)
            constraint = _city_constraint(city)
            expected = expected_count(population, leaf, 20, city, cap)
        ops.append(["import", kind, import_request(leaf, constraint, "", cap), expected])
    return ops


def export_churn(
    rng: random.Random, count: int, client: int, clients: int, population: int
) -> List[Op]:
    """Writes and reads over the leaves this client alone writes to."""
    leaves = config.LEAVES[client::clients]
    minted = {leaf: config.preloaded_per_leaf(population, leaf) for leaf in leaves}
    # Live own offers, oldest first: the preloaded ones of these leaves in
    # export order, then whatever this schedule exports.
    live: List[str] = []
    for position in range(max(minted.values())):
        for leaf in leaves:
            if position < minted[leaf]:
                live.append(f"{config.PREFIX}:{leaf}:{position + 1}")
    oldest = 0
    last_written = leaves[0]
    block = (
        ["export"] * 3 + ["modify"] * 2 + ["renew", "withdraw"] + ["point"] * 2 + ["bulk"]
    )
    ops: List[Op] = []
    for kind in _blocks(rng, block, count):
        if kind == "export":
            leaf = rng.choice(leaves)
            minted[leaf] += 1
            offer_id = f"{config.PREFIX}:{leaf}:{minted[leaf]}"
            live.append(offer_id)
            last_written = leaf
            ops.append(
                ["export", leaf, config.offer_properties(rng.randrange(970), leaf), offer_id]
            )
        elif kind == "withdraw":
            offer_id = live[oldest]
            oldest += 1
            last_written = offer_id.split(":")[1]
            ops.append(["withdraw", offer_id])
        elif kind in ("modify", "renew"):
            offer_id = live[rng.randrange(oldest, len(live))]
            last_written = offer_id.split(":")[1]
            if kind == "modify":
                ops.append(
                    ["modify", offer_id,
                     config.offer_properties(rng.randrange(970), last_written)]
                )
            else:
                ops.append(["renew", offer_id])
        else:
            constraint, below, cap = (
                (config.POINT_CONSTRAINT, 2, config.POINT_MATCHES)
                if kind == "point"
                else (config.BULK_CONSTRAINT, 10, config.BULK_MATCHES)
            )
            # Churn moves the number of matches: the count is only known
            # (= the cap) where the preloaded matches exceed it well; a
            # small (smoke) population leaves these reads to the oracle.
            known = expected_count(population, last_written, below, None, 10**9) >= 1.25 * cap
            request = import_request(last_written, constraint, config.CHEAPEST, cap)
            ops.append(["import", kind, request, cap if known else None])
    return ops


def fig6_journey(rng: random.Random, count: int) -> List[Op]:
    return [["journey", rng.choice(CAR_MODELS), rng.randrange(1, 8)] for _ in range(count)]


def closed_loop(
    workload: str, seed: int, client: int, clients: int, seconds: float, population: int
) -> List[Op]:
    """The ops client ``client`` of ``clients`` runs back to back."""
    rng = random.Random(f"{workload}/{seed}/{client}")
    count = int(seconds * _RATE_CAP[workload])
    if workload == "import_point":
        return import_point(rng, count, population)
    if workload == "import_scan":
        return import_scan(rng, count, population)
    if workload == "export_churn":
        return export_churn(rng, count, client, clients, population)
    if workload == "fig6_journey":
        return fig6_journey(rng, count)
    raise ValueError(f"no closed-loop schedule for workload {workload!r}")


def open_loop(seed: int, client: int, seconds: float, population: int) -> List[Tuple[float, Op]]:
    """``(due offset in seconds, op)`` pairs for one connection: the
    ``import_point`` mix arriving with exponential gaps."""
    rng = random.Random(f"import_open/{seed}/{client}")
    dues: List[float] = []
    due = 0.0
    while True:
        due += rng.expovariate(config.OPEN_RATE_PER_CLIENT)
        if due >= seconds:
            break
        dues.append(due)
    return list(zip(dues, import_point(rng, len(dues), population)))


def fingerprint(schedule: Any) -> str:
    """Canonical bytes of a schedule, for the same-seed-same-bytes test."""
    return json.dumps(schedule, sort_keys=True, separators=(",", ":"))
