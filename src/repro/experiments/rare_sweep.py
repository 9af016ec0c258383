"""Rare-event estimator comparison: naive MC vs importance sampling.

The paper's probabilities fall below what 100-run naive Monte Carlo can
resolve — a zero-hit sweep point proves only ``p <= 3/n``.  This driver
takes the base FARM scenario (two-way mirroring, bathtub rates, FARM
recovery) reduced to the *rare regime* — the small-cluster, short-horizon
corner where losses are genuinely rare events — and runs both
estimators at the **same run budget**:

* ``naive``   — count losing lifetimes (Wilson interval);
* ``is``      — exponential tilting at :data:`RARE_TILT` (weighted CLT
  interval; see :mod:`repro.reliability.rare`).

It asserts the headline claim of the acceleration subsystem — the IS 95%
interval is at least :data:`MIN_CI_NARROWING` times narrower than the
naive one at equal budget — and states the narrowing in the table's
note; ``python -m repro run rare --out results/`` saves the table.  The
global tilt only *helps* while the expected failure count is small;
``docs/RARE_EVENTS.md`` derives why.
"""

from __future__ import annotations

import math
import time

from ..config import SystemConfig
from ..reliability.montecarlo import MonteCarloResult, estimate_p_loss
from ..units import DAY, GB, TB, YEAR
from .base import ExperimentResult, Scale, current_scale
from .report import render_proportion

#: Hazard log-multiplier for the IS leg (rates scaled by ``exp`` of it).
#: Calibrated for the rare-regime scenario below: large enough that tilted
#: runs hit losses routinely, small enough that the likelihood-ratio
#: weights keep a healthy effective sample size (~n/4 at this budget).
RARE_TILT = math.log(14.0)

#: Run budget per estimator.  Deliberately independent of the scale knob:
#: the rare-regime lifetimes are tiny (10 disks, 3 months), and the
#: comparison needs a budget where the naive estimator demonstrably
#: fails while IS resolves the probability.
N_RUNS = 400

#: The asserted headline: IS 95% CI at least this many times narrower
#: than naive MC at equal budget (measured ~12x at seed 0).
MIN_CI_NARROWING = 5.0


def scenario_config() -> SystemConfig:
    """The base FARM scenario reduced to the rare regime.

    Same design point as the paper's base system — two-way mirroring,
    10 GB groups, bathtub vintage, FARM recovery — shrunk to a 10-disk
    pilot over a quarter, with a week-long detection latency so loss
    needs two overlapping failures inside a rare window.  True p_loss is
    ~1e-3: a 400-run naive estimate is usually a zero-hit.
    """
    return SystemConfig(total_user_bytes=2 * TB,
                        group_user_bytes=10 * GB,
                        duration=0.25 * YEAR,
                        detection_latency=7 * DAY)


def _width(result: MonteCarloResult) -> float:
    return result.p_loss.hi - result.p_loss.lo


def run(scale: Scale | None = None, base_seed: int = 0,
        n_runs: int = N_RUNS) -> ExperimentResult:
    scale = scale or current_scale()
    cfg = scenario_config()
    t0 = time.time()
    naive = estimate_p_loss(cfg, n_runs=n_runs, base_seed=base_seed)
    t_naive = time.time() - t0
    t0 = time.time()
    is_res = estimate_p_loss(cfg, n_runs=n_runs, base_seed=base_seed,
                             tilt=RARE_TILT)
    t_is = time.time() - t0

    result = ExperimentResult(
        experiment="rare-sweep",
        description=(f"p_loss estimators at equal budget ({n_runs} runs), "
                     f"rare-regime FARM scenario ({cfg.n_disks} disks, "
                     f"3 months)"),
        scale=scale,
        columns=["estimator", "p_loss_pct", "ci95", "ci_width_pct",
                 "hit_runs", "ess", "seconds"],
    )
    rows = [
        ("naive", naive, naive.aggregate.losses, naive.ess, t_naive),
        ("is(tilt=ln14)", is_res, is_res.aggregate.losses, is_res.ess, t_is),
    ]
    for name, mc, hits, ess, secs in rows:
        result.add(estimator=name,
                   p_loss_pct=100.0 * mc.p_loss.estimate,
                   ci95=render_proportion(mc.p_loss),
                   ci_width_pct=100.0 * _width(mc),
                   hit_runs=hits, ess=round(ess, 1),
                   seconds=round(secs, 2))

    narrowing = _width(naive) / _width(is_res) if _width(is_res) else \
        math.inf
    result.notes.append(
        f"IS 95% CI is {narrowing:.1f}x narrower than naive MC at equal "
        f"budget (required >= {MIN_CI_NARROWING:g}x).")
    if naive.zero_hit:
        result.notes.append(
            f"naive is a zero-hit: its budget only proves p <= "
            f"{naive.p_loss.rule_of_three_upper:.3g} (rule of three).")
    # The subsystem's headline claim is part of the harness contract:
    # fail loudly if a regression widens the weighted interval.
    assert narrowing >= MIN_CI_NARROWING, (
        f"IS CI narrowing {narrowing:.2f}x < required "
        f"{MIN_CI_NARROWING:g}x (naive width {_width(naive):.5f}, "
        f"IS width {_width(is_res):.5f})")

    return result
