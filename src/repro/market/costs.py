"""Transition cost model (§2.3).

Two kinds of cost, per §2.2's registration/establishment phases:

* **delays** (virtual days) — how long until the corresponding phase
  completes and the service moves closer to de-facto availability,
* **efforts** (money-ish units) — what the phase costs whoever performs
  it (provider, standardisation body, or client developer).

Defaults encode the orderings the paper asserts: global service type
standardisation dominates everything else by orders of magnitude, while
SID authoring + browser registration are days, not months.  Benchmarks
sweep these, so nothing depends on the absolute values.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class CostModel:
    """Knobs of the §2.2/§2.3 cost phases."""

    # -- trading path ---------------------------------------------------------
    # "service type standardisation (by global agreement)"
    type_standardisation_delay: float = 180.0
    type_standardisation_effort: float = 100.0
    # "service type registration at a trader's type manager"
    type_registration_delay: float = 5.0
    type_registration_effort: float = 5.0
    # "availability of registered services to potential importers"
    offer_registration_delay: float = 1.0
    offer_registration_effort: float = 1.0
    # "development of client applications to achieve the ability to
    # cooperate with remote servers" — once per service type
    client_development_delay: float = 30.0
    client_development_effort: float = 50.0
    # switching to another provider of the *same* type: cheap but nonzero
    client_switch_effort: float = 1.0

    # -- mediation path ---------------------------------------------------------
    # writing the SID (the only provider-side programming effort, §3.3)
    sid_authoring_delay: float = 2.0
    sid_authoring_effort: float = 3.0
    # registering the SID at a well-known browser
    browser_registration_delay: float = 0.1
    browser_registration_effort: float = 0.5
    # generic clients need no adaptation (§3.3: "no adaptation effort
    # required for generic clients")
    generic_client_adaptation_effort: float = 0.0
    # a human browsing and selecting costs a little time per request
    browsing_effort: float = 0.05

    def scaled(self, **overrides: float) -> "CostModel":
        """A copy with some knobs replaced (for sweeps)."""
        return replace(self, **overrides)

    # -- derived aggregates ------------------------------------------------------

    def trading_provider_effort(self, type_exists: bool) -> float:
        if type_exists:
            return self.offer_registration_effort
        return (
            self.type_standardisation_effort
            + self.type_registration_effort
            + self.offer_registration_effort
        )

    def mediation_provider_delay(self) -> float:
        """Days from entry until a SID is browsable."""
        return self.sid_authoring_delay + self.browser_registration_delay

    def mediation_provider_effort(self) -> float:
        return self.sid_authoring_effort + self.browser_registration_effort
