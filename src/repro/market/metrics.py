"""Outcome records and mode-comparison helpers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List


@dataclass
class ProviderOutcome:
    """What one provider experienced under one infrastructure mode."""

    name: str
    family: str
    enter_time: float
    available_time: float  # when clients could first reach it
    transition_effort: float  # money-ish cost to become available
    revenue: float = 0.0
    requests_served: int = 0

    @property
    def time_to_market(self) -> float:
        return self.available_time - self.enter_time


@dataclass
class MarketOutcome:
    """Aggregate result of one simulation run."""

    mode: str
    horizon: float
    providers: List[ProviderOutcome] = field(default_factory=list)
    requests_total: int = 0
    requests_served: int = 0
    requests_unserved: int = 0
    client_effort: float = 0.0  # client-side adaptation + browsing cost
    client_spend: float = 0.0  # charges paid to providers
    provider_effort: float = 0.0

    @property
    def service_level(self) -> float:
        if self.requests_total == 0:
            return 1.0
        return self.requests_served / self.requests_total

    def provider(self, name: str) -> ProviderOutcome:
        for outcome in self.providers:
            if outcome.name == name:
                return outcome
        raise KeyError(name)

    def mean_time_to_market(self) -> float:
        if not self.providers:
            return 0.0
        return sum(p.time_to_market for p in self.providers) / len(self.providers)

    def first_mover_revenue_share(self, family: str) -> float:
        """Revenue share of the family's earliest entrant ("being the
        first pays most" — §2.2)."""
        family_providers = [p for p in self.providers if p.family == family]
        if not family_providers:
            return 0.0
        total = sum(p.revenue for p in family_providers)
        if total == 0:
            return 0.0
        first = min(family_providers, key=lambda p: p.enter_time)
        return first.revenue / total

    def mean_price_paid(self) -> float:
        if self.requests_served == 0:
            return 0.0
        return self.client_spend / self.requests_served


def compare_modes(outcomes: Dict[str, MarketOutcome]) -> List[str]:
    """Human-readable comparison rows across infrastructure modes."""
    rows = []
    header = (
        f"{'mode':<14} {'mean TTM':>9} {'served':>7} {'level':>6} "
        f"{'prov effort':>11} {'client effort':>13} {'mean price':>10}"
    )
    rows.append(header)
    for mode, outcome in outcomes.items():
        rows.append(
            f"{mode:<14} {outcome.mean_time_to_market():>9.1f} "
            f"{outcome.requests_served:>7} {outcome.service_level:>6.2f} "
            f"{outcome.provider_effort:>11.1f} {outcome.client_effort:>13.1f} "
            f"{outcome.mean_price_paid():>10.3f}"
        )
    return rows
