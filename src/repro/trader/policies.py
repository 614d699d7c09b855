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
from typing import Any, List, Optional, Tuple

from repro.trader.constraints import MISSING, _Parser, _tokenize
from repro.trader.errors import ConstraintSyntaxError
from repro.trader.offers import ServiceOffer


class Preference:
    """A parsed preference; apply to an offer list to order it."""

    def __init__(self, source: str, kind: str, expr=None) -> None:
        self.source = source
        self.kind = kind
        self._expr = expr
        # For a min/max over a bare property reference ("min ChargePerDay")
        # the sorted property index can rank candidates without scoring
        # each one; compound expressions keep this None and take the
        # general path.
        self.key_property: Optional[str] = (
            getattr(expr, "prop_name", None) if kind in ("min", "max") else None
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
            value = self._expr(offer.properties)
            # NaN has no order, so it ranks as undefined (the sorted index agrees).
            defined = value is not MISSING and isinstance(value, (int, float)) and value == value
            scored.append((index, value if defined else None, offer))
        defined_offers = [item for item in scored if item[1] is not None]
        undefined_offers = [item for item in scored if item[1] is None]
        defined_offers.sort(key=lambda item: (-item[1] if reverse else item[1], item[0]))
        return [item[2] for item in defined_offers + undefined_offers]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Preference {self.source!r}>"


def parse_preference(text: Optional[str]) -> Preference:
    """Parse preference text; ``None``/blank means registration order."""
    if text is None or not text.strip():
        return Preference("", "first")
    stripped = text.strip()
    lowered = stripped.lower()
    if lowered in ("first", "newest", "oldest", "random"):
        return Preference(stripped, lowered)
    for keyword in ("max", "min"):
        if lowered.startswith(keyword + " ") or lowered.startswith(keyword + "("):
            expression_text = stripped[len(keyword):].strip()
            parser = _Parser(_tokenize(expression_text))
            expr = parser.parse_sum()
            parser.expect("\0")
            return Preference(stripped, keyword, expr)
    raise ConstraintSyntaxError(f"unknown preference {text!r}")
