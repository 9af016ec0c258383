"""Statistical conformance for the rare-event estimator.

Three kinds of guarantee, three kinds of test:

* **Exact degeneration** (fast): at zero tilt, importance sampling *is*
  the naive estimator — same trajectories, same golden pins, unit
  weights.  This holds bit-for-bit, not approximately.
* **Unbiasedness diagnostics** (slow): likelihood-ratio weights are
  strictly positive and average to 1 within their own CLT error.
* **Cross-estimator conformance** (slow): on a constant-hazard scenario
  where the birth–death Markov chain is exact (groups-per-disk-pair
  << 1, so group losses are approximately independent), naive MC and
  IS both produce 95% intervals that contain the analytic value and
  overlap.

The slow suites are excluded from tier-1 (`-m 'not slow'` in addopts)
and run from scripts/check.sh.
"""

import math
import re

import pytest

from repro.__main__ import result_mismatches
from repro.config import SystemConfig
from repro.disks.failure import BathtubFailureModel, RatePeriod
from repro.disks.vintage import DiskVintage
from repro.redundancy import MIRROR_2
from repro.reliability import (MonteCarloResult, ReliabilitySimulation,
                               StatsAggregate, seed_schedule)
from repro.reliability.markov import p_system_loss
from repro.reliability.montecarlo import estimate_p_loss
from repro.reliability.rare import TiltedFailureDraw
from repro.sim.rng import RandomStreams
from repro.units import DAY, GB, HOUR, TB, YEAR


def rare_cfg(**kw):
    """The rare-regime pilot used by experiments/rare_sweep.py."""
    defaults = dict(total_user_bytes=2 * TB, group_user_bytes=10 * GB,
                    duration=0.25 * YEAR, detection_latency=7 * DAY)
    defaults.update(kw)
    return SystemConfig(**defaults)


FLAT_RATE = 4.0  # % per 1000 h, constant hazard


def markov_cfg():
    """Constant hazard + sparse groups: the Markov chain is exact here.

    80 groups over C(40, 2) = 780 disk pairs puts ~0.1 groups on any
    mirror pair, so group-loss events are approximately independent and
    P(any loss) = 1 - (1 - p_group)^G holds; at 10 disks the same
    formula overestimates badly because one double failure takes out
    several co-located groups at once.
    """
    model = BathtubFailureModel(
        (RatePeriod(0.0, float("inf"), FLAT_RATE),))
    return SystemConfig(total_user_bytes=8 * TB, group_user_bytes=100 * GB,
                        duration=0.25 * YEAR, detection_latency=7 * DAY,
                        vintage=DiskVintage(failure_model=model))


def markov_p_loss(cfg):
    lam = FLAT_RATE / 100.0 / (1000 * HOUR)
    mu = 1.0 / (cfg.detection_latency + cfg.rebuild_seconds_per_block)
    return p_system_loss(MIRROR_2, cfg.n_groups, lam, mu, cfg.duration)


def overlap(a, b):
    return a.lo <= b.hi and b.lo <= a.hi


# --------------------------------------------------------------------- #
# Exact degeneration (fast)
# --------------------------------------------------------------------- #
class TestZeroTiltDegeneration:
    def test_is_equals_naive_exactly(self):
        cfg = rare_cfg()
        naive = estimate_p_loss(cfg, n_runs=6)
        tilted = estimate_p_loss(cfg, n_runs=6, tilt=0.0)
        assert tilted.p_loss == naive.p_loss
        agg, ref = tilted.aggregate, naive.aggregate
        assert agg.losses == ref.losses
        assert agg.disk_failures == ref.disk_failures
        assert agg.events_fired == ref.events_fired
        # sum w == sum w^2 == n holds only when every weight is 1.
        assert agg.weighted.w_sum.value == 6.0
        assert agg.weighted.w_sq_sum.value == 6.0

    def test_zero_tilt_ess_equals_n(self):
        result = estimate_p_loss(rare_cfg(), n_runs=5, tilt=0.0)
        assert result.ess == 5.0
        assert result.aggregate.weighted.w_sum.value == 5.0

    def test_tilted_interval_is_weighted(self):
        """A tilted estimate switches to the weighted CLT interval and
        reports a fractional ESS strictly below n."""
        result = estimate_p_loss(rare_cfg(), n_runs=20,
                                 tilt=math.log(14.0))
        assert result.tilt == math.log(14.0)
        assert 1.0 <= result.ess < 20.0
        assert result.p_loss.lo <= result.p_loss.estimate \
            <= result.p_loss.hi


class TestTiltedDraw:
    def test_zero_tilt_is_identity(self):
        cfg = rare_cfg()
        model = cfg.vintage.failure_model
        draw = TiltedFailureDraw(model, 0.0)
        ages = draw.sample(RandomStreams(3).get("disk-failures"), 64)
        base = model.sample_failure_age(
            RandomStreams(3).get("disk-failures"), 64)
        assert (ages == base).all()
        assert draw.log_weight == 0.0

    def test_censored_weight_is_deterministic(self):
        """Survivors get the Rao-Blackwellized weight exp((c-1) H(T))
        regardless of which uniform was drawn."""
        model = rare_cfg().vintage.failure_model
        tilt = math.log(3.0)
        draw = TiltedFailureDraw(model, tilt)
        horizon = 30 * DAY
        ages = draw.sample(RandomStreams(5).get("disk-failures"), 16,
                           horizon_age=horizon)
        censored = int((ages > horizon).sum())
        assert censored > 0  # short horizon: most disks survive
        h = model.cumulative_hazard(horizon)
        expected = censored * (math.exp(tilt) - 1.0) * h
        if censored < 16:
            assert draw.log_weight < expected  # observed terms < 0 here
        else:
            assert draw.log_weight == pytest.approx(expected)

    def test_negative_tilt_rejected_weights_stay_positive(self):
        """Tilting *down* is legal (thins the failure process); weights
        stay finite and positive either way."""
        model = rare_cfg().vintage.failure_model
        draw = TiltedFailureDraw(model, -0.5)
        draw.sample(RandomStreams(1).get("disk-failures"), 32,
                    horizon_age=1 * YEAR)
        assert math.isfinite(draw.log_weight)
        assert math.exp(draw.log_weight) > 0.0


# --------------------------------------------------------------------- #
# Statistical conformance (slow; run via scripts/check.sh)
# --------------------------------------------------------------------- #
@pytest.mark.slow
class TestWeightDiagnostics:
    def test_weights_positive_and_mean_one(self):
        """Every run's weight is finite and strictly positive, the
        runner folds exactly these runs, and E[w] = 1 under the proposal
        within the CLT error of the weight sample itself."""
        cfg, tilt, n = markov_cfg(), math.log(2.0), 300
        agg = StatsAggregate()
        for seed in seed_schedule(0, n):
            sim = ReliabilitySimulation(
                cfg, seed=seed,
                failure_draw=TiltedFailureDraw(cfg.vintage.failure_model,
                                               tilt))
            rs = sim.run()
            assert math.isfinite(rs.log_weight)
            assert rs.weight > 0.0
            agg.fold(rs, sim.sim.events_fired)
        ref = MonteCarloResult("tilted", cfg, n, aggregate=agg, tilt=tilt)
        result = estimate_p_loss(cfg, n_runs=n, tilt=tilt)
        assert result_mismatches("tilted", ref, result) == []
        weighted = agg.weighted
        mean_w = weighted.w_sum.value / n
        var_w = max(0.0, weighted.w_sq_sum.value / n - mean_w * mean_w)
        se = math.sqrt(var_w / n)
        assert abs(mean_w - 1.0) <= 5.0 * se


@pytest.mark.slow
class TestMarkovConformance:
    """Naive MC and IS vs the exact chain, fixed seeds.

    Deterministic in (config, seed): these are regression gates, not
    flaky statistical coin flips.
    """

    def test_all_estimators_bracket_analytic_value(self):
        cfg = markov_cfg()
        exact = markov_p_loss(cfg)
        assert 0.05 < exact < 0.15  # scenario sanity: rare-ish, not tiny

        naive = estimate_p_loss(cfg, n_runs=300, base_seed=0)
        is_res = estimate_p_loss(cfg, n_runs=300, tilt=math.log(2.0),
                                 base_seed=0)
        intervals = {"naive": naive.p_loss, "is": is_res.p_loss}
        for name, p in intervals.items():
            assert p.lo <= exact <= p.hi, (
                f"{name} interval [{p.lo:.4f}, {p.hi:.4f}] misses the "
                f"analytic value {exact:.4f}")
        assert overlap(intervals["naive"], intervals["is"])

    def test_is_keeps_healthy_ess_at_mild_tilt(self):
        result = estimate_p_loss(markov_cfg(), n_runs=300,
                                 tilt=math.log(2.0), base_seed=0)
        assert result.ess > 30.0


@pytest.mark.slow
class TestRareSweepExperiment:
    def test_headline_narrowing_assertion(self):
        """The equal-budget comparison meets its >= 5x CI-narrowing gate,
        and the rendered notes state the narrowing and the naive
        zero-hit."""
        from repro.experiments import rare_sweep

        result = rare_sweep.run()
        text = result.render()
        [narrowing] = re.findall(r"IS 95% CI is ([\d.]+)x narrower", text)
        assert float(narrowing) >= rare_sweep.MIN_CI_NARROWING
        assert "naive is a zero-hit: its budget only proves p <=" in text
        assert len(result.rows) == 2       # naive and IS
