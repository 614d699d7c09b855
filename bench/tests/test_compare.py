"""Regression verdicts and the paired-wins rule for a claimed gain."""

from bench import compare


def test_within_bound_is_ok_and_beyond_is_regressed():
    base = [10.0, 10.1, 9.9, 10.0, 10.05]
    assert compare.judge(base, [10.4, 10.5, 10.45, 10.5, 10.4], "lower", 0.10)[0] == "ok"
    assert compare.judge(base, [11.5, 11.6, 11.4, 11.5, 11.55], "lower", 0.10)[0] == "regressed"
    # for a higher-is-better metric the same numbers are an improvement
    assert compare.judge(base, [11.5, 11.6, 11.4, 11.5, 11.55], "higher", 0.10)[0] == "ok"
    assert compare.judge(base, [8.5, 8.6, 8.4, 8.5, 8.55], "higher", 0.10)[0] == "regressed"


def test_spread_wider_than_the_bound_is_unresolved_unless_every_run_is_better():
    noisy_base = [10.0, 14.0, 8.0, 12.0, 9.0]
    assert compare.judge(noisy_base, [10.5, 13.0, 9.0, 11.0, 12.5], "lower", 0.10)[0] == "unresolved"
    assert compare.judge(noisy_base, [5.0, 7.0, 6.0, 7.5, 4.0], "lower", 0.10)[0] == "ok"


def test_claim_needs_nine_wins_in_ten_and_a_gap_beyond_the_base_iqr():
    base = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.1, 10.0]
    faster = [value - 1.0 for value in base]
    assert compare.claim_met(base, faster, "lower")[0]
    # wins every pair, but by less than the base's own quartile distance
    slightly = [value - 0.05 for value in base]
    assert not compare.claim_met(base, slightly, "lower")[0]
    # a large median gain, but only 8 of 10 pairs won
    mixed = [9.0] * 8 + [11.0, 11.0]
    assert not compare.claim_met(base, mixed, "lower")[0]
    # fewer than ten pairs can never support a claim
    assert not compare.claim_met(base[:5], faster[:5], "lower")[0]
