"""The sorted range index of one (type, property, value class).

``_SortedValues`` keeps a sorted run plus a write overlay: a sorted
``pending`` list and a ``dead`` tombstone set.  Writes fold the overlay
into the run past a bound geometric in the run's length; reads never
fold, so a bounded walk after a write costs O(K), not a re-sort of the
whole run.  These tests hold its answers to brute force over the live
entries, and hold the bound to the write side.
"""

import operator
import sys
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trader.offers import OfferStore, ServiceOffer, _SortedValues

OPERATORS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}
# Values that tie under comparison while differing in type or sign.
NUMBERS = [True, 1, 1.0, False, 0, 0.0, -0.0, 2.5, 2.5, -1, 3]
STRINGS = ["", "a", "a", "b", "ab"]
IDS = 8

# Per step: an offer index and a value to (re-)add, or None to discard it.
scenarios = st.sampled_from([NUMBERS, STRINGS]).flatmap(
    lambda pool: st.tuples(
        st.just(pool),
        st.lists(
            st.tuples(st.integers(0, IDS - 1), st.one_of(st.none(), st.sampled_from(pool))),
            max_size=40,
        ),
    )
)


def bound(run):
    return max(run._FOLD_FLOOR, len(run.entries) >> 3)


def assert_matches_brute_force(run, live, literals):
    entries = sorted((value, seq, offer_id) for offer_id, (value, seq) in live.items())
    assert list(run.walk()) == entries
    # Values descend; a stable sort keeps every tie in ascending seq.
    by_seq = sorted(entries, key=lambda entry: entry[1])
    assert list(run.walk(reverse=True)) == sorted(
        by_seq, key=lambda entry: entry[0], reverse=True
    )
    for literal in literals:
        for name, holds in OPERATORS.items():
            expected = {offer_id for offer_id, (value, _) in live.items() if holds(value, literal)}
            assert run.ids_matching(name, literal) == expected, (name, literal)
    assert not set(run.pending) & run.dead
    assert run.pending == sorted(run.pending)
    assert len(run.pending) <= bound(run) and len(run.dead) <= bound(run)


@settings(deadline=None)
@given(scenario=scenarios, limit=st.sampled_from([0, 1, 2, 512]))
def test_the_sorted_run_answers_as_brute_force_does(scenario, limit):
    """Random adds, discards and re-adds (the store's modify: discard the
    old value, add the new one under the same seq).  A low floor makes
    the overlay fold and refill within one example; 512 never folds."""
    pool, steps = scenario
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_SortedValues, "_FOLD_FLOOR", limit)
        run = _SortedValues()
        live = {}
        for index, value in steps:
            offer_id, seq = f"o{index}", index + 1
            if offer_id in live:
                run.discard(live.pop(offer_id)[0], seq, offer_id)
            if value is not None:
                run.add(value, seq, offer_id)
                live[offer_id] = (value, seq)
            assert_matches_brute_force(run, live, set(pool))


def test_reads_never_fold_the_overlay(monkeypatch):
    """1 000 write/read pairs on a 5 000-entry run: every fold comes from
    a write, and the writes alone cross the bound."""
    run = _SortedValues()
    live = {}
    for n in range(5000):
        run.add(float(n % 997), n, f"o{n}")
        live[f"o{n}"] = (float(n % 997), n)
    run.compact()
    folded_by = []
    compact = _SortedValues.compact

    def recording_compact(self):
        folded_by.append(sys._getframe(2).f_code.co_name)  # past ``_bound``
        compact(self)

    monkeypatch.setattr(_SortedValues, "compact", recording_compact)
    for step in range(1000):
        kind = step % 3  # export, modify, withdraw
        if kind == 0:
            offer_id, value, seq = f"x{step}", float(step % 997), 5000 + step
        else:  # a tombstone: the run is folded and this entry is in it
            offer_id = f"o{(step * 7) % 5000}"
            value, seq = live.pop(offer_id)
            run.discard(value, seq, offer_id)
        if kind != 2:
            run.add(value + 0.5, seq, offer_id)
            live[offer_id] = (value + 0.5, seq)
        writes = len(folded_by)
        list(islice(run.walk(reverse=step % 2 == 1), 10))
        run.ids_matching("<" if step % 2 else ">=", 500.0)
        assert len(folded_by) == writes, step
    assert folded_by and set(folded_by) <= {"add", "discard"}
    assert_matches_brute_force(run, live, [500.0])


def test_removals_alone_bound_the_tombstones():
    """A lease sweep: 20 000 offers of one type, one walk, then 10 000
    removals with no read or export between them.  Each removal from the
    folded run is a tombstone, and the removals themselves fold them."""
    store = OfferStore(prefix="t")
    for n in range(1, 20001):
        store.add(ServiceOffer(f"t:T:{n}", "T", {}, {"p": float(n % 97)}))
    next(store.ordered_by(["T"], "p"))
    run = store._range_index[("T", "p")]["num"]
    for n in range(1, 10001):
        store.remove(f"t:T:{n}")
        assert len(run.dead) <= bound(run), n
    assert [offer.offer_id for offer in islice(store.ordered_by(["T"], "p"), 2)] == [
        "t:T:10088", "t:T:10185"
    ]


def test_modify_back_to_a_folded_value_cancels_its_tombstone():
    run = _SortedValues()
    run.add(1.0, 1, "o1")
    run.add(2.0, 2, "o2")
    run.compact()
    run.discard(1.0, 1, "o1")
    assert run.dead == {(1.0, 1, "o1")} and list(run.walk()) == [(2.0, 2, "o2")]
    run.add(1, 1, "o1")  # an equal value: the folded entry is live again
    assert not run.dead and not run.pending
    assert list(run.walk(reverse=True)) == [(2.0, 2, "o2"), (1.0, 1, "o1")]
