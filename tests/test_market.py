"""Tests for the market model: the paper's §2.2/2.3/3.3 claims, quantified."""

import pytest

from repro.errors import ConfigurationError
from repro.market import (
    ClientDemand,
    CostModel,
    MarketSimulation,
    compare_modes,
    run_all_modes,
)
from repro.market.agents import demand_requests, staggered_providers
import random


@pytest.fixture
def providers():
    return staggered_providers("car-rental", 3, spacing=30.0)


@pytest.fixture
def demand():
    return [ClientDemand("car-rental", rate_per_day=2.0)]


@pytest.fixture
def outcomes(providers, demand):
    return run_all_modes(providers, demand, horizon=365.0, seed=7)


# -- cost model -------------------------------------------------------------------------


def test_cost_model_defaults_encode_paper_ordering():
    costs = CostModel()
    assert costs.trading_provider_effort(type_exists=False) > 10 * costs.mediation_provider_effort()
    # once the type exists, exporting is cheap (§3.3 steady state)
    assert costs.trading_provider_effort(type_exists=True) < costs.trading_provider_effort(type_exists=False)


def test_cost_model_scaled_copy():
    costs = CostModel().scaled(type_standardisation_delay=10.0)
    assert costs.type_standardisation_delay == 10.0
    assert CostModel().type_standardisation_delay == 180.0  # original untouched


# -- agents -----------------------------------------------------------------------------------


def test_staggered_providers_enter_in_order(providers):
    times = [p.enter_time for p in providers]
    assert times == sorted(times)
    assert len({p.name for p in providers}) == 3


def test_demand_requests_deterministic():
    demand = ClientDemand("f", rate_per_day=1.0)
    first = demand_requests(demand, 100.0, random.Random(3))
    second = demand_requests(demand, 100.0, random.Random(3))
    assert first == second
    assert all(0 <= t < 100.0 for t in first)


def test_zero_rate_no_requests():
    assert demand_requests(ClientDemand("f", rate_per_day=0.0), 10.0, random.Random(0)) == []


# -- simulation mechanics --------------------------------------------------------------------------


def test_unknown_mode_rejected(providers, demand):
    with pytest.raises(ConfigurationError):
        MarketSimulation("bazaar", providers, demand)


def test_runs_are_deterministic(providers, demand):
    first = MarketSimulation("trading", providers, demand, seed=5).run()
    second = MarketSimulation("trading", providers, demand, seed=5).run()
    assert first.requests_served == second.requests_served
    assert [p.revenue for p in first.providers] == [p.revenue for p in second.providers]


def test_type_ready_once_per_family(providers):
    sim = MarketSimulation("trading", providers, [])
    ready = sim.type_ready_times()
    assert list(ready) == ["car-rental"]
    # anchored to the FIRST provider's entry
    assert ready["car-rental"] == providers[0].enter_time + 185.0


def test_requests_accounting_consistent(outcomes):
    for outcome in outcomes.values():
        assert outcome.requests_served + outcome.requests_unserved == outcome.requests_total
        assert outcome.requests_served == sum(p.requests_served for p in outcome.providers)


# -- the paper's claims -------------------------------------------------------------------------------


def test_mediation_time_to_market_much_shorter(outcomes):
    """§2.2: trading-only delays availability by the standardisation
    pipeline; mediation is days."""
    assert outcomes["mediation"].mean_time_to_market() * 10 < outcomes[
        "trading"
    ].mean_time_to_market()


def test_mediation_serves_more_requests(outcomes):
    assert outcomes["mediation"].requests_served > outcomes["trading"].requests_served
    assert outcomes["mediation"].service_level > 0.9
    assert outcomes["trading"].service_level < 0.7


def test_first_mover_advantage_under_mediation(outcomes):
    """§2.2: 'being the first pays most' — only mediation rewards it."""
    mediation_share = outcomes["mediation"].first_mover_revenue_share("car-rental")
    trading_share = outcomes["trading"].first_mover_revenue_share("car-rental")
    assert mediation_share > 0.5
    assert mediation_share > trading_share


def test_trader_selection_is_cheaper_for_clients(outcomes):
    """§3.3: standardised attributes let the trader pick best-fit."""
    assert outcomes["trading"].mean_price_paid() < outcomes["mediation"].mean_price_paid()


def test_integrated_combines_both(outcomes):
    integrated = outcomes["integrated"]
    assert integrated.mean_time_to_market() == outcomes["mediation"].mean_time_to_market()
    assert integrated.service_level == outcomes["mediation"].service_level
    # selection quality between the two extremes once matured
    assert (
        outcomes["trading"].mean_price_paid()
        <= integrated.mean_price_paid()
        <= outcomes["mediation"].mean_price_paid()
    )


def test_provider_effort_ordering(outcomes):
    """Mediation-only is the cheapest infrastructure for providers; the
    integrated mode pays the standardisation cost *eventually* (§4.1)."""
    assert outcomes["mediation"].provider_effort < outcomes["trading"].provider_effort
    assert outcomes["mediation"].provider_effort < outcomes["integrated"].provider_effort


def test_client_development_cost_only_under_trading(outcomes):
    costs = CostModel()
    assert outcomes["trading"].client_effort >= costs.client_development_effort


def test_shorter_standardisation_narrows_the_gap(providers, demand):
    """Sweep check: as standardisation gets fast, trading catches up."""
    slow = run_all_modes(providers, demand, CostModel(), horizon=365.0, seed=7)
    fast_costs = CostModel().scaled(
        type_standardisation_delay=1.0, client_development_delay=1.0
    )
    fast = run_all_modes(providers, demand, fast_costs, horizon=365.0, seed=7)
    slow_gap = slow["mediation"].requests_served - slow["trading"].requests_served
    fast_gap = fast["mediation"].requests_served - fast["trading"].requests_served
    assert fast_gap < slow_gap


def test_follower_cheaper_than_pioneer_under_trading(providers, demand):
    outcome = MarketSimulation("trading", providers, demand).run()
    pioneer = outcome.provider("car-rental-1")
    follower = outcome.provider("car-rental-2")
    assert pioneer.transition_effort > follower.transition_effort


def test_unserved_requests_before_any_availability(providers, demand):
    outcome = MarketSimulation("trading", providers, demand, horizon=100.0).run()
    # the type needs 185 days: nothing can be served within 100
    assert outcome.requests_served == 0
    assert outcome.requests_unserved == outcome.requests_total


def test_compare_modes_renders_rows(outcomes):
    rows = compare_modes(outcomes)
    assert len(rows) == 4  # header + three modes
    assert "trading" in rows[1]


def test_multiple_families_independent():
    providers = staggered_providers("a", 2) + staggered_providers("b", 2, first_entry=50.0)
    demands = [ClientDemand("a", 1.0), ClientDemand("b", 1.0)]
    outcome = MarketSimulation("trading", providers, demands).run()
    ready = MarketSimulation("trading", providers, demands).type_ready_times()
    assert set(ready) == {"a", "b"}
    assert ready["b"] == 50.0 + 185.0
    assert outcome.requests_total > 0
