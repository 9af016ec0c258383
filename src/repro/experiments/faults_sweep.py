"""Scrub-interval sweep under latent sector errors (fault-model study).

The paper's loss model only knows loud, whole-disk failures.  Latent
sector errors add a silent channel: a corrupt block contributes nothing to
redundancy, yet nothing notices until a scrub (or a rebuild read) reaches
it.  The undiscovered lifetime — about half the scrub interval — therefore
extends the window in which a second fault can combine with the hidden
corruption.

This experiment sweeps the scrub interval and reports, per interval:

* *measured*, from a seeded scenario on the DES engine armed with
  :class:`~repro.faults.latent.LatentSectorErrors` and a
  :class:`~repro.faults.scrub.Scrubber`: latent errors discovered, their
  mean undiscovered lifetime, and rebuild health (deferred/retried);
* *analytic*: group MTTDL from the Markov chain with the latent channel
  folded into the per-block failure rate and the repair rate taken from
  the channel-weighted mean window.  Shrinking the interval shrinks the
  latent window, so MTTDL improves monotonically as scrubbing speeds up.
"""

from __future__ import annotations

from ..config import SystemConfig
from ..faults import LatentSectorErrors, Scrubber
from ..reliability.analytic import mean_hazard, mean_window
from ..reliability.markov import mttdl
from ..reliability.runner import SweepRunner
from ..reliability.scenarios import Scenario
from ..units import DAY, GB, HOUR, TB, YEAR
from .base import ExperimentResult, Scale, current_scale

#: Swept whole-population scrub cycles, slowest first.
SCRUB_INTERVALS: tuple[float, ...] = (
    16 * DAY, 8 * DAY, 4 * DAY, 2 * DAY, 1 * DAY, 12 * HOUR)

#: Latent-error arrival rate per disk: high enough that a smoke-scale
#: scenario sees dozens of arrivals inside the measurement horizon.
LATENT_RATE_PER_DISK = 1.0 / (2 * DAY)

#: Scenario measurement horizon.
HORIZON = 64 * DAY


def _measured_config() -> SystemConfig:
    """A small scenario system (20 disks, 400 groups); the analytic
    column uses the paper geometry, so system size only affects the
    *measured* columns and stays deliberately scenario-sized."""
    return SystemConfig(total_user_bytes=4 * TB, group_user_bytes=10 * GB)


def analytic_mttdl_years(cfg: SystemConfig, interval_s: float,
                         latent_rate_per_disk: float) -> float:
    """Group MTTDL with the latent channel folded into the Markov chain.

    A block fails loudly with the drive (rate ``lam_disk``) or silently
    corrupts (per-block rate ``lam_latent``).  Loud losses repair after
    ``detection + rebuild``; silent ones additionally sit undiscovered for
    half a scrub cycle.  The chain takes the combined rate and the
    rate-weighted mean window.
    """
    lam_disk = mean_hazard(cfg)
    lam_latent = latent_rate_per_disk / cfg.blocks_per_disk
    lam = lam_disk + lam_latent
    w_disk = mean_window(cfg)
    w_latent = 0.5 * interval_s + w_disk
    w = (lam_disk * w_disk + lam_latent * w_latent) / lam
    return mttdl(cfg.scheme, lam, 1.0 / w,
                 parallel_repair=cfg.use_farm) / YEAR


def _interval_row(task: tuple[SystemConfig, int, float]) -> dict:
    """One scrub-interval scenario (module-level so it pickles for the
    sweep runner's worker pool)."""
    cfg, seed, interval = task
    out = (Scenario(cfg, seed=seed)
           .inject_faults(
               LatentSectorErrors(LATENT_RATE_PER_DISK),
               Scrubber(interval))
           .run(horizon=HORIZON))
    s = out.stats
    return dict(scrub_interval_h=interval / HOUR,
                latent_found=s.latent_errors_discovered,
                mean_latency_h=s.mean_latent_window / HOUR,
                deferred=s.rebuilds_deferred,
                retries=s.retries,
                groups_lost=len(out.lost_groups))


def run(scale: Scale | None = None, base_seed: int = 0) -> ExperimentResult:
    scale = scale or current_scale()
    cfg = _measured_config()
    result = ExperimentResult(
        experiment="faults-sweep",
        description=("scrub interval vs latent-error exposure "
                     f"({cfg.describe()})"),
        scale=scale,
        columns=["scrub_interval_h", "latent_found", "mean_latency_h",
                 "deferred", "retries", "groups_lost", "group_mttdl_yr"],
    )
    paper_cfg = SystemConfig()
    runner = SweepRunner(n_jobs=scale.n_jobs)
    rows = runner.map_tasks(
        _interval_row,
        [(cfg, base_seed, interval) for interval in SCRUB_INTERVALS])
    for interval, row in zip(SCRUB_INTERVALS, rows):
        result.add(**row,
                   group_mttdl_yr=analytic_mttdl_years(
                       paper_cfg, interval, LATENT_RATE_PER_DISK))
    result.notes.append(
        "group_mttdl_yr is analytic (Markov chain, paper base geometry) "
        "with the latent channel folded in; it improves monotonically as "
        "the scrub interval shrinks because the undiscovered lifetime "
        "(~interval/2) dominates the latent repair window.")
    result.notes.append(
        f"measured columns: one seeded scenario run per interval, "
        f"latent rate 1/{2 * DAY / HOUR:g} h per disk, horizon "
        f"{HORIZON / DAY:g} d.")
    return result
