"""Ablation studies for design choices called out in DESIGN.md.

These go beyond the paper's figures to quantify decisions the paper makes
implicitly:

* **placement** — RUSH versus the statistically-equivalent random
  placement: reliability must be indistinguishable (this justifies using
  the fast placement in the Monte-Carlo sweeps).
* **policy** — dropping the no-buddy constraint when picking recovery
  targets: co-locating two blocks of one group makes a single later disk
  failure count double, hurting reliability.
* **workload** — a diurnal user load that throttles recovery bandwidth
  (paper §2.4 notes the fluctuation but holds bandwidth fixed).
* **bathtub** — the paper criticizes prior studies for flat failure rates;
  this ablation re-runs the base point with a constant-hazard model of the
  same 6-year cumulative failure probability.
"""

from __future__ import annotations

import numpy as np

from ..config import SystemConfig
from ..disks.failure import BathtubFailureModel, RatePeriod
from ..reliability.montecarlo import estimate_p_loss
from ..reliability.simulation import PolicyConfig, ReliabilitySimulation
from ..units import GB, HOUR
from .base import ExperimentResult, Scale, current_scale
from .report import render_proportion


def _flat_model_matching(model: BathtubFailureModel,
                         horizon: float) -> BathtubFailureModel:
    """Constant-hazard model with the same cumulative failure probability."""
    h = float(model.cumulative_hazard(horizon)) / horizon
    pct_per_1000h = h * 1000 * HOUR * 100
    return BathtubFailureModel(
        (RatePeriod(0.0, float("inf"), pct_per_1000h),))


def run_placement(scale: Scale | None = None,
                  base_seed: int = 0) -> ExperimentResult:
    scale = scale or current_scale()
    result = ExperimentResult(
        experiment="ablation-placement",
        description="RUSH vs random placement: P(loss) must match",
        scale=scale,
        columns=["placement", "p_loss_pct", "ci95"],
    )
    base = scale.size_config(SystemConfig(group_user_bytes=10 * GB,
                                          use_farm=False))
    for placement in ("random", "rush"):
        mc = estimate_p_loss(base.with_(placement=placement),
                             n_runs=scale.n_runs, base_seed=base_seed,
                             n_jobs=scale.n_jobs)
        result.add(placement=placement,
                   p_loss_pct=100.0 * mc.p_loss.estimate,
                   ci95=render_proportion(mc.p_loss))
    result.notes.append("Overlapping CIs expected: the reliability results "
                        "depend only on placement statistics.")
    return result


def buddy_violations(group_disks: np.ndarray) -> int:
    """Live blocks sharing a disk with another block of their group."""
    rows = np.sort(group_disks, axis=1)
    return int(((rows[:, 1:] == rows[:, :-1]) & (rows[:, 1:] >= 0)).sum())


def run_policy(scale: Scale | None = None,
               base_seed: int = 0) -> ExperimentResult:
    """Target-selection constraints on a small, nearly-full system.

    The hard constraints only bind when space is scarce and candidate lists
    are short, so this ablation uses a dense 60-disk system at 80%
    utilization and reports mechanism-level outcomes: do any groups end up
    with co-located blocks (buddy violations), and how do windows stretch?
    """
    from ..units import TB

    scale = scale or current_scale()
    n_runs = max(4, scale.n_runs // 3)
    result = ExperimentResult(
        experiment="ablation-policy",
        description=("FARM target-selection constraints on a dense system "
                     "(60 disks @ 80%)"),
        scale=scale,
        columns=["policy", "buddy_violations", "mean_window_s",
                 "rebuilds", "losses"],
        runs=n_runs,
    )
    cfg = SystemConfig(total_user_bytes=24 * TB, group_user_bytes=10 * GB,
                       target_utilization=0.80)
    variants = {
        "full": PolicyConfig(),
        "no-buddy-check": PolicyConfig(forbid_buddy=False),
        "no-idle-pref": PolicyConfig(prefer_idle=False),
    }
    for label, policy in variants.items():
        violations = rebuilds = losses = 0
        window_total = completed = 0
        for i in range(n_runs):
            engine = ReliabilitySimulation(cfg, seed=base_seed + i,
                                           policy=policy)
            s = engine.run()
            rebuilds += s.rebuilds_completed
            losses += s.groups_lost
            window_total += s.window_total
            completed += s.rebuilds_completed
            violations += buddy_violations(engine.group_disks)
        result.add(policy=label, buddy_violations=violations,
                   mean_window_s=window_total / completed if completed else 0,
                   rebuilds=rebuilds, losses=losses)
    result.notes.append(
        "Dropping the no-buddy constraint lets rebuilds co-locate blocks "
        "of one group, so a later single failure counts double.")
    return result


def run_workload(scale: Scale | None = None,
                 base_seed: int = 0) -> ExperimentResult:
    scale = scale or current_scale()
    result = ExperimentResult(
        experiment="ablation-workload",
        description=("diurnal user load throttling recovery bandwidth "
                     "(peak load fraction swept)"),
        scale=scale,
        columns=["peak_load", "p_loss_pct", "ci95"],
    )
    base = scale.size_config(SystemConfig(group_user_bytes=10 * GB))
    for peak in (0.0, 0.5, 0.8):
        mc = estimate_p_loss(base.with_(workload_peak_load=peak),
                             n_runs=scale.n_runs, base_seed=base_seed,
                             n_jobs=scale.n_jobs)
        result.add(peak_load=peak,
                   p_loss_pct=100.0 * mc.p_loss.estimate,
                   ci95=render_proportion(mc.p_loss))
    result.notes.append("Busy-hour throttling stretches rebuild windows; "
                        "FARM degrades gracefully because windows stay "
                        "minutes-scale.")
    return result


def run_mixed_scheme(scale: Scale | None = None,
                     base_seed: int = 0) -> ExperimentResult:
    """Mixed scheme (paper §2.2): mirrored RAID-5 stripe vs plain schemes.

    Loss for a composite scheme depends on *which* blocks die, so the
    informative comparison is exact: exhaustively enumerate k-failure
    patterns per scheme and report the survivable fraction, alongside the
    storage efficiency and a single DES lifetime confirming the scheme
    runs end to end.
    """
    from ..redundancy import ECC_4_6, MIRROR_2, MIRROR_3
    from ..redundancy.composite import (MirroredParity,
                                        exhaustive_tolerance,
                                        survival_fraction)
    from ..units import TB

    scale = scale or current_scale()
    result = ExperimentResult(
        experiment="ablation-mixed-scheme",
        description=("mixed mirrored-parity scheme vs plain schemes: "
                     "exact failure-pattern survival + one lifetime"),
        scale=scale,
        columns=["scheme", "efficiency", "tolerance", "survive_3of_pct",
                 "survive_4of_pct", "rebuilds", "groups_lost"],
        runs=1,
    )
    base = SystemConfig(total_user_bytes=20 * TB, group_user_bytes=10 * GB)
    vintage = base.vintage.with_rate_multiplier(5.0)
    for scheme in (MIRROR_2, MIRROR_3, ECC_4_6, MirroredParity(4)):
        assert exhaustive_tolerance(scheme) == scheme.tolerance
        stats = ReliabilitySimulation(
            base.with_(scheme=scheme, vintage=vintage),
            seed=base_seed).run()
        result.add(scheme=str(scheme),
                   efficiency=scheme.storage_efficiency,
                   tolerance=scheme.tolerance,
                   survive_3of_pct=100.0 * survival_fraction(scheme, 3),
                   survive_4of_pct=100.0 * survival_fraction(scheme, 4),
                   rebuilds=stats.rebuilds_completed,
                   groups_lost=stats.groups_lost)
    result.notes.append(
        "The mixed scheme survives all 3-failure patterns and most "
        "4-failure patterns at 40% efficiency; plain schemes of similar "
        "efficiency (1/3) stop at tolerance 2.")
    return result


def run_bathtub(scale: Scale | None = None,
                base_seed: int = 0) -> ExperimentResult:
    scale = scale or current_scale()
    # Traditional-recovery losses at reduced scale are rare events; triple
    # the run count (runs are cheap) so the comparison has power.
    n_runs = scale.n_runs * 3
    base = scale.size_config(SystemConfig(group_user_bytes=10 * GB,
                                          use_farm=False))
    flat = _flat_model_matching(base.vintage.failure_model, base.duration)
    result = ExperimentResult(
        experiment="ablation-bathtub",
        description=("bathtub vs flat hazard with equal 6-year cumulative "
                     "failure probability (traditional recovery)"),
        scale=scale,
        columns=["hazard", "p_loss_pct", "ci95"],
        runs=n_runs,
    )
    import dataclasses
    for label, vintage in (
            ("bathtub", base.vintage),
            ("flat", dataclasses.replace(base.vintage, failure_model=flat))):
        mc = estimate_p_loss(base.with_(vintage=vintage),
                             n_runs=n_runs, base_seed=base_seed,
                             n_jobs=scale.n_jobs)
        result.add(hazard=label, p_loss_pct=100.0 * mc.p_loss.estimate,
                   ci95=render_proportion(mc.p_loss))
    result.notes.append(
        "The paper criticizes flat-rate studies: infant mortality clusters "
        "failures early, raising the chance of overlapping windows.")
    return result
