"""Percentile and quartile helpers against hand-computed cases."""

import pytest

from stats import best_quartile, percentile, quartiles, summary


def test_percentile_interpolates_between_closest_ranks():
    values = [40, 10, 30, 20]           # sorted: 10 20 30 40
    assert percentile(values, 0) == 10
    assert percentile(values, 100) == 40
    assert percentile(values, 50) == 25   # rank 1.5 -> halfway 20..30
    assert percentile(values, 90) == pytest.approx(37)  # rank 2.7
    assert percentile([7], 99) == 7


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1, 2], 101)


def test_quartiles_follow_statistics_quantiles():
    # statistics.quantiles([1..5], n=4) (exclusive method): 1.5, 3, 4.5
    assert quartiles([5, 1, 4, 2, 3]) == (1.5, 3, 4.5)
    assert quartiles([2.0]) == (2.0, 2.0, 2.0)
    # Two samples: the exclusive rule extrapolates past both of them.
    assert quartiles([10, 20]) == (7.5, 15.0, 22.5)


def test_best_quartile_is_on_the_good_side():
    samples = [1.0, 1.1, 1.2, 3.0, 9.0]    # two repetitions hit by noise
    assert best_quartile(samples, "lower") == 1.1
    assert best_quartile(samples, "higher") == 3.0
    assert best_quartile([4.0], "lower") == 4.0
    with pytest.raises(ValueError):
        best_quartile(samples, "sideways")


def test_summary():
    row = summary([1, 2, 3, 4, 5])
    assert row == {"n": 5, "median": 3, "q1": 1.5, "q3": 4.5}


def test_calibration_scales_durations_only():
    import calibration
    import run

    assert calibration.spin() > 0
    assert calibration.speed([calibration.REFERENCE_S] * 3) == 1.0
    # A host running the kernel twice as slowly halves every duration
    # and leaves memory and schedule-driven rates alone.
    raw = {"wall_s": 2.0, "setup_s": 1.0, "register_p50_ms": 4.0,
           "peak_rss_mb": 100.0, "tintervals_per_s": 50.0}
    assert run.scaled(raw, 2.0) == {
        "wall_s": 1.0, "setup_s": 0.5, "register_p50_ms": 2.0,
        "peak_rss_mb": 100.0, "tintervals_per_s": 50.0}
