"""Arithmetic of the benchmark: percentiles, lateness, the rate search."""

import math

import numpy as np
import pytest

from stats import (
    RateBisection,
    backlog_grows,
    lateness_ms,
    median,
    percentile,
    probe_passes,
    tail_level,
)


@pytest.mark.parametrize("q", [0, 1, 25, 50, 90, 99, 100])
def test_percentile_matches_numpy_linear(q):
    values = np.random.default_rng(0).exponential(3.0, 257).tolist()
    assert percentile(values, q) == pytest.approx(np.percentile(values, q), rel=1e-12)


def test_percentile_counts_failures_as_infinitely_late():
    values = [1.0] * 98 + [math.inf] * 2
    assert percentile(values, 50) == 1.0
    assert percentile(values, 99) == math.inf


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_median_of_even_sample_interpolates():
    assert median([1.0, 2.0, 3.0, 10.0]) == 2.5


def test_lateness_is_in_ms_and_never_negative():
    assert lateness_ms([1.0, 2.0, 3.0], [1.002, 1.999, 3.0105]) == pytest.approx(
        [2.0, 0.0, 10.5]
    )
    with pytest.raises(ValueError):
        lateness_ms([1.0], [])


def test_backlog_growth_is_a_rising_lateness_trend():
    steady = [0.5, 3.0, 0.2, 1.0] * 10
    rising = [float(k) for k in range(40)]
    assert not backlog_grows(steady)
    assert backlog_grows(rising)
    assert not backlog_grows(rising[:6])  # too short to call a trend


def test_probe_verdict():
    fast = {"rank": [1.0] * 200, "observe": [2.0] * 50}
    assert probe_passes(fast, 250, 0, [0.0] * 250)
    slow_tail = {"rank": [1.0] * 190 + [60.0] * 10, "observe": [2.0] * 50}
    assert not probe_passes(slow_tail, 250, 0, [0.0] * 250)
    assert not probe_passes(fast, 250, 3, [0.0] * 250)  # 1.2% failed
    assert not probe_passes(fast, 250, 0, [float(k) for k in range(250)])
    assert not probe_passes({}, 0, 0, [])


@pytest.mark.parametrize("capacity", [121.0, 150.0, 199.0, 249.0])
def test_bisection_brackets_capacity_within_precision(capacity):
    search = RateBisection(120.0, 250.0)
    probes = 0
    while (rate := search.next_rate()) is not None:
        search.record(rate, rate <= capacity)
        probes += 1
    assert search.passing <= capacity < search.failing
    assert search.failing / search.passing <= 1.05
    assert probes <= 4


def test_bisection_stops_at_once_when_already_tight():
    assert RateBisection(100.0, 104.0).next_rate() is None
    with pytest.raises(ValueError):
        RateBisection(0.0, 10.0)


def test_tail_level_keeps_ten_samples_beyond():
    assert tail_level(16000) == 99.0
    assert tail_level(1000) == 99.0
    assert tail_level(400) == pytest.approx(97.5)
    assert tail_level(12) == 50.0
    with pytest.raises(ValueError):
        tail_level(0)
