"""Tests for preference/selection policies."""

import random

import pytest

from repro.trader.errors import ConstraintSyntaxError
from repro.trader.offers import ServiceOffer
from repro.trader.policies import parse_preference


def offer(offer_id, exported_at=0.0, **properties):
    return ServiceOffer(
        offer_id=offer_id,
        service_type="T",
        ref={},
        properties=properties,
        exported_at=exported_at,
    )


@pytest.fixture
def offers():
    return [
        offer("a", exported_at=1.0, price=30, quality=2),
        offer("b", exported_at=3.0, price=10, quality=1),
        offer("c", exported_at=2.0, price=20, quality=3),
    ]


def ids(sequence):
    return [item.offer_id for item in sequence]


def test_default_preference_keeps_order(offers):
    assert ids(parse_preference(None).apply(offers)) == ["a", "b", "c"]
    assert ids(parse_preference("").apply(offers)) == ["a", "b", "c"]
    assert ids(parse_preference("first").apply(offers)) == ["a", "b", "c"]


def test_newest_oldest(offers):
    assert ids(parse_preference("newest").apply(offers)) == ["b", "c", "a"]
    assert ids(parse_preference("oldest").apply(offers)) == ["a", "c", "b"]


def test_min_max_expression(offers):
    assert ids(parse_preference("min price").apply(offers)) == ["b", "c", "a"]
    assert ids(parse_preference("max price").apply(offers)) == ["a", "c", "b"]
    assert ids(parse_preference("max quality").apply(offers)) == ["c", "a", "b"]


def test_expression_arithmetic(offers):
    # price per quality point
    assert ids(parse_preference("min price / quality").apply(offers)) == ["c", "b", "a"]


def test_offers_without_the_property_sort_last(offers):
    offers.append(offer("d", exported_at=4.0))  # no price
    assert ids(parse_preference("min price").apply(offers)) == ["b", "c", "a", "d"]


def test_random_is_seeded_and_stable(offers):
    rng_a = random.Random(5)
    rng_b = random.Random(5)
    preference = parse_preference("random")
    assert ids(preference.apply(offers, rng_a)) == ids(preference.apply(offers, rng_b))


def test_case_insensitive_keywords(offers):
    assert ids(parse_preference("NEWEST").apply(offers)) == ["b", "c", "a"]
    assert ids(parse_preference("Min price").apply(offers)) == ["b", "c", "a"]


def test_unknown_preference_raises():
    with pytest.raises(ConstraintSyntaxError):
        parse_preference("best somehow")


def test_bad_expression_raises():
    with pytest.raises(ConstraintSyntaxError):
        parse_preference("min price <")


def test_stable_ties_keep_registration_order(offers):
    offers.append(offer("e", exported_at=9.0, price=10))
    assert ids(parse_preference("min price").apply(offers))[:2] == ["b", "e"]


def test_apply_does_not_mutate_input(offers):
    parse_preference("min price").apply(offers)
    assert ids(offers) == ["a", "b", "c"]


def test_nan_score_sorts_last_like_a_missing_one(offers):
    offers.insert(0, offer("n", price=float("nan")))
    assert ids(parse_preference("min price").apply(offers)) == ["b", "c", "a", "n"]
    assert ids(parse_preference("max price").apply(offers)) == ["a", "c", "b", "n"]
