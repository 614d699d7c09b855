"""Market actors: providers entering with services, clients with demand."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List


@dataclass(frozen=True)
class ProviderSpec:
    """A provider entering the market.

    ``family`` identifies the *functionality* (e.g. "car-rental"): the
    first provider of a family under trading-only rules must standardise
    the service type; followers reuse it.  ``quality`` orders offers when
    the trader's best-fit selection applies; ``charge`` is the price per
    served request (revenue to the provider).
    """

    name: str
    family: str
    enter_time: float
    charge: float = 1.0
    quality: float = 1.0


@dataclass(frozen=True)
class ClientDemand:
    """Aggregate client demand for one family."""

    family: str
    rate_per_day: float = 1.0
    start_time: float = 0.0


def demand_requests(
    demand: ClientDemand,
    horizon: float,
    rng: random.Random,
) -> List[float]:
    """Poisson request arrival times in ``[start_time, horizon)``."""
    times: List[float] = []
    if demand.rate_per_day <= 0:
        return times
    t = demand.start_time
    while True:
        t += rng.expovariate(demand.rate_per_day)
        if t >= horizon:
            return times
        times.append(t)


def staggered_providers(
    family: str,
    count: int,
    first_entry: float = 0.0,
    spacing: float = 30.0,
) -> List[ProviderSpec]:
    """A family of competing providers entering one after another.

    Later entrants imitate with slightly lower prices/higher quality —
    the §2.2 "follow-up competitors imitate the innovator" dynamic.
    """
    rng = random.Random(42)
    providers = []
    for index in range(count):
        providers.append(
            ProviderSpec(
                name=f"{family}-{index + 1}",
                family=family,
                enter_time=first_entry + index * spacing,
                charge=round(1.0 - 0.05 * index, 4),
                quality=round(1.0 + 0.1 * index + rng.random() * 0.01, 4),
            )
        )
    return providers
