"""Preference (selection) policies: the trader's "best possible" choice.

An import request may name a preference that orders the matched offers
before ``max_matches`` truncation, per the ODP trader's selection
criteria:

* ``"first"`` — registration order (the default),
* ``"newest"`` / ``"oldest"`` — by export time,
* ``"random"`` — deterministic shuffle from the trader's seed,
* ``"max <expr>"`` / ``"min <expr>"`` — order by an arithmetic expression
  over offer properties (offers where the expression is undefined sort
  last).
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Any, List, Optional, Tuple

from repro.trader.constraints import MISSING, generate, parse_tree
from repro.trader.errors import ConstraintSyntaxError
from repro.trader.offers import ServiceOffer


class Preference:
    """A parsed preference; apply to an offer list to order it."""

    def __init__(self, source: str, kind: str, expr: Optional[tuple] = None) -> None:
        self.source = source
        self.kind = kind
        # A min/max expression's tree (``repro.trader.constraints``), as
        # one generated function returning the value or MISSING.
        self._score = None if expr is None else generate(expr, value=True)
        # For a min/max over a bare property reference ("min ChargePerDay")
        # the sorted property index can rank candidates without scoring
        # each one; compound expressions keep this None and take the
        # general path.
        self.key_property: Optional[str] = (
            expr[1] if expr is not None and expr[0] == "prop" else None
        )

    def apply(self, offers: List[ServiceOffer], rng: Optional[random.Random] = None) -> List[ServiceOffer]:
        if self.kind == "first":
            return list(offers)
        if self.kind == "newest":
            return sorted(offers, key=lambda offer: -offer.exported_at)
        if self.kind == "oldest":
            return sorted(offers, key=lambda offer: offer.exported_at)
        if self.kind == "random":
            shuffled = list(offers)
            (rng or random.Random(0)).shuffle(shuffled)
            return shuffled
        # max/min over an expression
        reverse = self.kind == "max"
        scored: List[Tuple[int, Any, ServiceOffer]] = []
        for index, offer in enumerate(offers):
            value = self._score(offer.properties)
            # NaN has no order, so it ranks as undefined (the sorted index agrees).
            defined = value is not MISSING and isinstance(value, (int, float)) and value == value
            scored.append((index, value if defined else None, offer))
        defined_offers = [item for item in scored if item[1] is not None]
        undefined_offers = [item for item in scored if item[1] is None]
        defined_offers.sort(key=lambda item: (-item[1] if reverse else item[1], item[0]))
        return [item[2] for item in defined_offers + undefined_offers]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Preference {self.source!r}>"


@lru_cache(maxsize=256)
def parse_preference(text: Optional[str]) -> Preference:
    """Parse preference text, memoised; ``None``/blank means registration order."""
    if text is None or not text.strip():
        return Preference("", "first")
    stripped = text.strip()
    lowered = stripped.lower()
    if lowered in ("first", "newest", "oldest", "random"):
        return Preference(stripped, lowered)
    for keyword in ("max", "min"):
        if lowered.startswith(keyword + " ") or lowered.startswith(keyword + "("):
            expression_text = stripped[len(keyword):].strip()
            return Preference(stripped, keyword, parse_tree(expression_text, expression=True))
    raise ConstraintSyntaxError(f"unknown preference {text!r}")
