"""Tests for reliability statistics (repro.reliability.stats)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.reliability import empty_proportion, wilson_interval
from repro.reliability.stats import _normal_quantile


class TestWilson:
    def test_contains_point_estimate(self):
        p = wilson_interval(30, 100)
        assert p.lo <= p.estimate <= p.hi
        assert p.estimate == 0.3

    def test_zero_successes_has_zero_lower_bound(self):
        p = wilson_interval(0, 100)
        assert p.lo == 0.0 and p.hi > 0.0

    def test_all_successes_has_one_upper_bound(self):
        p = wilson_interval(100, 100)
        assert p.hi == 1.0 and p.lo < 1.0

    def test_more_trials_narrower_interval(self):
        narrow = wilson_interval(50, 1000)
        wide = wilson_interval(5, 100)
        assert (narrow.hi - narrow.lo) < (wide.hi - wide.lo)

    def test_higher_confidence_wider_interval(self):
        p90 = wilson_interval(20, 100, confidence=0.90)
        p99 = wilson_interval(20, 100, confidence=0.99)
        assert (p99.hi - p99.lo) > (p90.hi - p90.lo)

    def test_known_value(self):
        """Wilson 95% for 5/10 is approximately [0.237, 0.763]."""
        p = wilson_interval(5, 10)
        assert p.lo == pytest.approx(0.2366, abs=0.002)
        assert p.hi == pytest.approx(0.7634, abs=0.002)

    def test_coverage_statistical(self):
        """~95% of intervals from Binomial(50, 0.2) draws cover 0.2."""
        rng = np.random.default_rng(0)
        covered = 0
        for _ in range(400):
            k = rng.binomial(50, 0.2)
            p = wilson_interval(int(k), 50)
            covered += p.lo <= 0.2 <= p.hi
        assert covered / 400 > 0.90

    @given(st.integers(0, 50), st.integers(1, 50))
    @settings(max_examples=50)
    def test_bounds_always_valid(self, k, extra):
        n = k + extra
        p = wilson_interval(k, n)
        assert 0.0 <= p.lo <= p.estimate <= p.hi <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 0)
        with pytest.raises(ValueError):
            wilson_interval(10, 5)
        with pytest.raises(ValueError):
            wilson_interval(1, 10, confidence=1.5)

    def test_str_rendering(self):
        assert "%" in str(wilson_interval(3, 10))


def test_normal_quantile_matches_the_inverse_error_function():
    """The two-sided quantile is sqrt(2) erfinv(c); scipy is its
    reference in the tests and nowhere in the library."""
    special = pytest.importorskip("scipy.special")
    grid = np.linspace(0.5, 0.9999, 2000).tolist() + [0.9, 0.95, 0.99]
    far = [c for c in grid if not math.isclose(
        _normal_quantile(c), math.sqrt(2) * float(special.erfinv(c)),
        rel_tol=1e-13)]
    assert far == []


class TestEmptyProportion:
    """The zero-trial stand-in used when every run of a point failed."""

    def test_uninformative_interval(self):
        p = empty_proportion()
        assert p.trials == 0 and p.successes == 0
        assert p.estimate == 0.0
        assert (p.lo, p.hi) == (0.0, 1.0)
        assert p.confidence == 0.95

    def test_confidence_carried_through(self):
        assert empty_proportion(confidence=0.99).confidence == 0.99

    def test_confidence_validated(self):
        with pytest.raises(ValueError):
            empty_proportion(confidence=1.5)

    def test_wilson_still_rejects_zero_trials(self):
        # empty_proportion is the explicit opt-in; the estimator itself
        # keeps refusing the undefined case.
        with pytest.raises(ValueError):
            wilson_interval(0, 0)


class TestZeroHit:
    """Rule-of-three reporting for zero-loss budgets."""

    def test_zero_hit_flag_and_bound(self):
        p = wilson_interval(0, 200)
        assert p.zero_hit
        assert p.rule_of_three_upper == pytest.approx(3.0 / 200)
        assert "rule of 3" in str(p)

    def test_not_zero_hit_with_successes(self):
        p = wilson_interval(3, 200)
        assert not p.zero_hit
        assert "rule of 3" not in str(p)

    def test_empty_proportion_is_not_zero_hit(self):
        # No trials at all is "no evidence", not a zero-hit budget.
        assert not empty_proportion().zero_hit
        assert empty_proportion().rule_of_three_upper == 1.0

    def test_bound_clamped_to_one(self):
        assert wilson_interval(0, 2).rule_of_three_upper == 1.0
