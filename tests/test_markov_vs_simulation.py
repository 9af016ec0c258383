"""Cross-validation: simulator vs the exact Markov chain.

Under a *constant* hazard, two-way mirroring with FARM is exactly the
birth-death chain of :mod:`repro.reliability.markov`: per-block failure
rate λ (memoryless, so block moves and disk ages don't matter) and repair
rate μ = 1 / (detection + one-block rebuild).  The expected number of lost
groups per run is therefore G * p_group(T) — an exact identity we use to
pin the Monte-Carlo engine.  Replacement keeps the population (and thus
free space) steady so the repair-rate assumption stays valid.

Where groups rarely share a disk pair, group losses are nearly
independent and the chain's P(any loss) = 1 - (1 - p_group)^G holds too;
a slow test brackets it with the DES's p_loss interval.
"""

import pytest

from repro.config import SystemConfig
from repro.disks.failure import BathtubFailureModel, RatePeriod
from repro.disks.vintage import DiskVintage
from repro.redundancy import MIRROR_2
from repro.reliability import (ReliabilitySimulation, estimate_p_loss,
                               p_group_loss, p_system_loss)
from repro.units import DAY, GB, HOUR, TB, YEAR


def flat_vintage(pct_per_1000h: float) -> DiskVintage:
    model = BathtubFailureModel(
        (RatePeriod(0.0, float("inf"), pct_per_1000h),))
    return DiskVintage(failure_model=model)


def test_expected_group_losses_match_markov():
    rate = 4.0                           # % per 1000 h, constant
    cfg = SystemConfig(total_user_bytes=200 * TB, group_user_bytes=10 * GB,
                       scheme=MIRROR_2, vintage=flat_vintage(rate),
                       replacement_threshold=0.05)
    lam = rate / 100.0 / (1000 * HOUR)
    mu = 1.0 / (cfg.detection_latency + cfg.rebuild_seconds_per_block)
    p_group = p_group_loss(MIRROR_2, lam, mu, cfg.duration)
    expected_per_run = cfg.n_groups * p_group

    n_runs = 20
    lost = sum(ReliabilitySimulation(cfg, seed=s).run().groups_lost
               for s in range(n_runs))
    observed_per_run = lost / n_runs

    # Poisson counting noise at ~expected_per_run * n_runs events.
    assert observed_per_run == pytest.approx(expected_per_run, rel=0.6)
    assert lost > 0


def test_markov_and_window_model_agree_at_first_order():
    """The two independent analytic models corroborate each other."""
    from repro.reliability import p_loss_window_model
    rate = 0.25
    cfg = SystemConfig(vintage=flat_vintage(rate))
    lam = rate / 100.0 / (1000 * HOUR)
    mu = 1.0 / (cfg.detection_latency + cfg.rebuild_seconds_per_block)
    p_markov = cfg.n_groups * p_group_loss(MIRROR_2, lam, mu, cfg.duration)
    wm = p_loss_window_model(cfg)
    assert wm.p_loss == pytest.approx(p_markov, rel=0.25)


FLAT_RATE = 4.0  # % per 1000 h, constant hazard


def markov_cfg():
    """Constant hazard + sparse groups: the Markov chain is exact here.

    80 groups over C(40, 2) = 780 disk pairs puts ~0.1 groups on any
    mirror pair, so group-loss events are approximately independent and
    P(any loss) = 1 - (1 - p_group)^G holds; at 10 disks the same
    formula overestimates badly because one double failure takes out
    several co-located groups at once.
    """
    return SystemConfig(total_user_bytes=8 * TB, group_user_bytes=100 * GB,
                        duration=0.25 * YEAR, detection_latency=7 * DAY,
                        vintage=flat_vintage(FLAT_RATE))


def markov_p_loss(cfg):
    lam = FLAT_RATE / 100.0 / (1000 * HOUR)
    mu = 1.0 / (cfg.detection_latency + cfg.rebuild_seconds_per_block)
    return p_system_loss(MIRROR_2, cfg.n_groups, lam, mu, cfg.duration)


@pytest.mark.slow
def test_naive_interval_brackets_markov_p_loss():
    """The DES's 95 % interval at 300 runs contains the exact chain's
    P(loss).  Deterministic in (config, seed): a regression gate, not a
    statistical coin flip."""
    cfg = markov_cfg()
    exact = markov_p_loss(cfg)
    assert 0.05 < exact < 0.15  # scenario sanity: rare-ish, not tiny

    p = estimate_p_loss(cfg, n_runs=300, base_seed=0).p_loss
    assert p.lo <= exact <= p.hi, (
        f"naive interval [{p.lo:.4f}, {p.hi:.4f}] misses the analytic "
        f"value {exact:.4f}")
