"""Statistical conformance for the rare-event estimators.

Three kinds of guarantee, three kinds of test:

* **Exact degeneration** (fast): at zero tilt, importance sampling *is*
  the naive estimator — same trajectories, same golden pins, unit
  weights; with no levels, splitting *is* naive Monte Carlo on the
  standard seed schedule.  These hold bit-for-bit, not approximately.
* **Unbiasedness diagnostics** (slow): likelihood-ratio weights are
  strictly positive and average to 1 within their own CLT error.
* **Cross-estimator conformance** (slow): on a constant-hazard scenario
  where the birth–death Markov chain is exact (groups-per-disk-pair
  << 1, so group losses are approximately independent), naive MC,
  IS, and splitting all produce 95% intervals that contain the
  analytic value and pairwise overlap.

The slow suites are excluded from tier-1 (`-m 'not slow'` in addopts)
and run from scripts/check.sh.
"""

import math
import re

import pytest

from repro.config import SystemConfig
from repro.disks.failure import BathtubFailureModel, RatePeriod
from repro.disks.vintage import DiskVintage
from repro.redundancy import MIRROR_2
from repro.reliability.markov import p_system_loss
from repro.reliability.montecarlo import estimate_p_loss
from repro.reliability.rare import (TiltedFailureDraw, estimate_p_loss_is,
                                    splitting_p_loss, sweep_splitting)
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
        naive = estimate_p_loss(cfg, n_runs=6, keep_run_stats=True)
        tilted = estimate_p_loss_is(cfg, n_runs=6, tilt=0.0,
                                    keep_run_stats=True)
        assert tilted.p_loss == naive.p_loss
        assert tilted.losses == naive.losses
        assert tilted.disk_failures_total == naive.disk_failures_total
        assert tilted.events_fired_total == naive.events_fired_total
        for rs in tilted.run_stats:
            assert rs.log_weight == 0.0 and rs.weight == 1.0

    def test_zero_tilt_ess_equals_n(self):
        result = estimate_p_loss_is(rare_cfg(), n_runs=5, tilt=0.0)
        assert result.ess == 5.0
        assert result.aggregate.weighted.mean_weight == 1.0

    def test_tilted_interval_is_weighted(self):
        """A tilted estimate switches to the weighted CLT interval and
        reports a fractional ESS strictly below n."""
        result = estimate_p_loss_is(rare_cfg(), n_runs=20,
                                    tilt=math.log(14.0))
        assert result.tilt == math.log(14.0)
        assert 1.0 <= result.ess < 20.0
        assert result.p_loss.lo <= result.p_loss.estimate \
            <= result.p_loss.hi


class TestSplittingDegeneration:
    def test_no_levels_equals_naive(self):
        cfg = rare_cfg()
        naive = estimate_p_loss(cfg, n_runs=8)
        split = splitting_p_loss(cfg, n_runs=8, levels=())
        assert split.p_loss == naive.p_loss
        assert split.total_runs == 8
        assert len(split.stages) == 1 and split.stages[0].level is None

    def test_level_validation(self):
        for bad in ((0,), (2, 1), (1, 1), (-1, 2)):
            with pytest.raises(ValueError):
                splitting_p_loss(rare_cfg(), n_runs=4, levels=bad)

    def test_stage_product_is_estimate(self):
        split = splitting_p_loss(rare_cfg(), n_runs=40, levels=(1,),
                                 base_seed=7)
        expected = math.prod(s.p_hat for s in split.stages)
        assert split.p_loss.estimate == pytest.approx(expected)

    def test_sweep_splitting_adapts_to_montecarlo(self):
        results = sweep_splitting({"a": rare_cfg()}, n_runs=10,
                                  levels=(1,))
        mc = results["a"]
        assert mc.n_runs == 10
        assert 0.0 <= mc.p_loss.estimate <= 1.0


class TestResultEss:
    """MonteCarloResult.ess must never report the raw run count for a
    weighted estimate (it would overstate the information by orders of
    magnitude under real tilts)."""

    @staticmethod
    def _result(tilt, log_weights=None, n_runs=4):
        from repro.reliability import RecoveryStats
        from repro.reliability.montecarlo import MonteCarloResult
        from repro.reliability.stats import wilson_interval
        run_stats = []
        for lw in (log_weights or ()):
            rs = RecoveryStats()
            rs.log_weight = lw
            run_stats.append(rs)
        return MonteCarloResult(
            config=None, n_runs=n_runs, losses=0,
            p_loss=wilson_interval(0, n_runs), groups_lost_total=0,
            mean_window=0.0, max_window=0.0, disk_failures_total=0,
            redirections_total=0, run_stats=run_stats, tilt=tilt)

    def test_untilted_falls_back_to_run_count(self):
        assert self._result(0.0).ess == 4.0

    def test_tilted_recomputes_kish_from_run_stats(self):
        # Two unit weights + two exp(-50) weights: Kish ESS ~ 2, where
        # the run count would claim 4.
        result = self._result(math.log(3.0),
                              log_weights=[0.0, 0.0, -50.0, -50.0])
        assert result.ess == pytest.approx(2.0)

    def test_tilted_kish_is_shift_invariant(self):
        # Same weight *ratios* at an extreme magnitude: exp(lw) itself
        # underflows, but the max-shifted Kish computation must not.
        result = self._result(1.0, log_weights=[-800.0, -800.0, -801.0])
        w = math.exp(-1.0)
        assert result.ess == pytest.approx((2 + w) ** 2 / (2 + w * w))

    def test_tilted_without_evidence_refuses(self):
        with pytest.raises(ValueError, match="effective sample size"):
            self._result(math.log(2.0)).ess


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
        """E[w] = 1 under the proposal; check within the CLT error of
        the weight sample itself."""
        result = estimate_p_loss_is(markov_cfg(), n_runs=300,
                                    tilt=math.log(2.0),
                                    keep_run_stats=True)
        for rs in result.run_stats:
            assert math.isfinite(rs.log_weight)
            assert rs.weight > 0.0
        agg = result.aggregate.weighted
        n = agg.n
        mean_w = agg.mean_weight
        var_w = max(0.0, agg.w_sq_sum.value / n - mean_w * mean_w)
        se = math.sqrt(var_w / n)
        assert abs(mean_w - 1.0) <= 5.0 * se


@pytest.mark.slow
class TestMarkovConformance:
    """All three estimators vs the exact chain, fixed seeds.

    Deterministic in (config, seed): these are regression gates, not
    flaky statistical coin flips.
    """

    def test_all_estimators_bracket_analytic_value(self):
        cfg = markov_cfg()
        exact = markov_p_loss(cfg)
        assert 0.05 < exact < 0.15  # scenario sanity: rare-ish, not tiny

        naive = estimate_p_loss(cfg, n_runs=300, base_seed=0)
        is_res = estimate_p_loss_is(cfg, n_runs=300, tilt=math.log(2.0),
                                    base_seed=0)
        split = splitting_p_loss(cfg, n_runs=150, levels=(2,),
                                 base_seed=0)
        intervals = {"naive": naive.p_loss, "is": is_res.p_loss,
                     "splitting": split.p_loss}
        for name, p in intervals.items():
            assert p.lo <= exact <= p.hi, (
                f"{name} interval [{p.lo:.4f}, {p.hi:.4f}] misses the "
                f"analytic value {exact:.4f}")
        assert overlap(intervals["naive"], intervals["is"])
        assert overlap(intervals["naive"], intervals["splitting"])
        assert overlap(intervals["is"], intervals["splitting"])

    def test_is_keeps_healthy_ess_at_mild_tilt(self):
        result = estimate_p_loss_is(markov_cfg(), n_runs=300,
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
        assert len(result.rows) == 3
