"""Tests for the bathtub failure model (repro.disks.failure)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.disks import ELERATH_TABLE1, BathtubFailureModel, RatePeriod
from repro.units import HOUR, MONTH, YEAR


@pytest.fixture(scope="module")
def model():
    return BathtubFailureModel()


class TestTable1:
    def test_paper_rates(self):
        assert [p.pct_per_1000h for p in ELERATH_TABLE1] == \
            [0.50, 0.35, 0.25, 0.20]

    def test_infant_mortality_decreasing(self):
        rates = [p.pct_per_1000h for p in ELERATH_TABLE1]
        assert rates == sorted(rates, reverse=True)

    def test_about_ten_percent_fail_in_six_years(self, model):
        """The paper's §3.6 statement that pins the Table 1 magnitudes."""
        frac = 1.0 - float(model.survival(6 * YEAR))
        assert 0.08 < frac < 0.14

    def test_hazard_unit_conversion(self):
        p = RatePeriod(0.0, float("inf"), 0.2)
        # 0.2% per 1000 h = 0.002 / (1000*3600) per second
        assert p.hazard_per_second == pytest.approx(0.002 / (1000 * HOUR))


class TestHazardFunction:
    def test_hazard_steps_at_boundaries(self, model):
        eps = 1.0
        assert model.hazard(3 * MONTH - eps) > model.hazard(3 * MONTH + eps)
        assert model.hazard(0.0) == ELERATH_TABLE1[0].hazard_per_second

    def test_hazard_constant_beyond_last_boundary(self, model):
        assert model.hazard(2 * YEAR) == model.hazard(20 * YEAR)

    def test_negative_age_rejected(self, model):
        with pytest.raises(ValueError):
            model.hazard(-1.0)
        with pytest.raises(ValueError):
            model.cumulative_hazard(-1.0)

    @given(st.floats(0, 10 * YEAR), st.floats(0, 10 * YEAR))
    @settings(max_examples=50)
    def test_cumulative_hazard_monotone(self, a, b):
        m = BathtubFailureModel()
        lo, hi = sorted((a, b))
        assert m.cumulative_hazard(hi) >= m.cumulative_hazard(lo)

    def test_cumulative_hazard_closed_form(self, model):
        """H at a boundary equals the sum of rate*length segments."""
        expected = (ELERATH_TABLE1[0].hazard_per_second * 3 * MONTH
                    + ELERATH_TABLE1[1].hazard_per_second * 3 * MONTH)
        assert model.cumulative_hazard(6 * MONTH) == pytest.approx(expected)

    def test_survival_at_zero_is_one(self, model):
        assert model.survival(0.0) == 1.0


class TestSampling:
    def test_empirical_distribution_matches_survival(self, model):
        rng = np.random.default_rng(42)
        ages = model.sample_failure_age(rng, 100_000)
        assert ages.shape == (100_000,)
        for t in (1 * YEAR, 3 * YEAR, 6 * YEAR):
            expected = 1.0 - float(model.survival(t))
            assert (ages < t).mean() == pytest.approx(expected, abs=0.01)

    def test_sampling_deterministic_per_seed(self, model):
        a = model.sample_failure_age(np.random.default_rng(1), 100)
        b = model.sample_failure_age(np.random.default_rng(1), 100)
        assert np.array_equal(a, b)


class TestFailedOnlySampler:
    """``sample_failed_within`` is ``sample_failure_age`` filtered to the
    horizon, bit for bit, and consumes the same stream words."""

    MODELS = {
        "table1": BathtubFailureModel(),
        "table1x2": BathtubFailureModel().scaled(2.0),
        "flat": BathtubFailureModel((RatePeriod(0.0, float("inf"), 0.3),)),
    }
    #: 6 years, a period boundary of Table 1, and one second.
    HORIZONS = {"6y": 6 * YEAR, "3mo": 3 * MONTH, "1s": 1.0}

    @pytest.mark.parametrize("horizon", sorted(HORIZONS))
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_matches_filtered_full_draw(self, name, horizon):
        model, h = self.MODELS[name], self.HORIZONS[horizon]
        for seed in range(200):
            full = np.random.default_rng(seed)
            ages = model.sample_failure_age(full, 10_000)
            ids = np.flatnonzero(ages <= h)
            rng = np.random.default_rng(seed)
            got_ids, got_ages = model.sample_failed_within(rng, 10_000, h)
            assert np.array_equal(got_ids, ids)
            assert np.array_equal(got_ages, ages[ids])
            assert rng.random() == full.random()

    def test_bound_brackets_the_exact_threshold(self, model):
        h = 6 * YEAR
        exact = 1.0 - float(model.survival(h))
        bound = model._failure_uniform_bound(h)
        assert exact < bound < exact * (1 + 1e-5)

    def test_unbounded_horizon_keeps_every_drive(self, model):
        ids, ages = model.sample_failed_within(
            np.random.default_rng(0), 100, float("inf"))
        assert np.array_equal(ids, np.arange(100))
        assert np.array_equal(
            ages, model.sample_failure_age(np.random.default_rng(0), 100))


class TestRateMultiplier:
    def test_scaled_doubles_hazard(self, model):
        double = model.scaled(2.0)
        assert double.hazard(0.0) == 2 * model.hazard(0.0)
        assert double.cumulative_hazard(YEAR) == \
            pytest.approx(2 * model.cumulative_hazard(YEAR))

    def test_scaled_composes(self, model):
        assert model.scaled(2.0).scaled(3.0).rate_multiplier == 6.0

    def test_doubled_rates_fail_roughly_twice_as_often(self, model):
        """Figure 8(b)'s input: cumulative failures roughly double (slightly
        less, because survival is convex)."""
        f1 = 1.0 - float(model.survival(6 * YEAR))
        f2 = 1.0 - float(model.scaled(2.0).survival(6 * YEAR))
        assert 1.8 < f2 / f1 < 2.0

    def test_invalid_multiplier(self, model):
        with pytest.raises(ValueError):
            model.scaled(0.0)


class TestValidation:
    def test_periods_must_start_at_zero(self):
        with pytest.raises(ValueError):
            BathtubFailureModel((RatePeriod(1.0, float("inf"), 0.2),))

    def test_periods_must_be_contiguous(self):
        with pytest.raises(ValueError):
            BathtubFailureModel((RatePeriod(0.0, 3.0, 0.5),
                                 RatePeriod(4.0, float("inf"), 0.2)))

    def test_last_period_unbounded(self):
        with pytest.raises(ValueError):
            BathtubFailureModel((RatePeriod(0.0, 3.0, 0.5),))

    def test_mean_rate_per_year_helper(self, model):
        assert model.mean_rate_per_year(6.0) == pytest.approx(
            (1.0 - float(model.survival(6 * YEAR))) / 6.0)
