"""Monte-Carlo estimation of the probability of data loss.

The paper's headline metric: simulate N independent system lifetimes and
report the fraction that lose at least one redundancy group, with Wilson
confidence intervals (Figure 7 shows 95% CIs; the other figures use 100
runs per point).

Execution is delegated to :mod:`repro.reliability.runner`: a sweep shares
one persistent process pool across *all* of its points and aggregates
per-run statistics streamingly, so parallel (``n_jobs``) and serial runs
produce bit-identical results and memory stays flat however many runs a
point has.  Every entry point returns the runner's
:class:`~repro.reliability.runner.MonteCarloResult`.
"""

from __future__ import annotations

from pathlib import Path

from ..config import SystemConfig
from ..telemetry.handle import TelemetryConfig
from .runner import MonteCarloResult, PointSpec, SweepRunner


def estimate_p_loss(config: SystemConfig, n_runs: int = 100,
                    base_seed: int = 0, n_jobs: int | None = None,
                    telemetry: TelemetryConfig | bool | None = None,
                    telemetry_path: str | Path | None = None,
                    on_error: str = "raise",
                    engine: str = "des") -> MonteCarloResult:
    """Estimate P(data loss over the configured duration).

    Parameters
    ----------
    n_runs:
        Independent lifetimes to simulate (paper: 100 per point).
    base_seed:
        Run i uses a seed derived from ``(base_seed, i)``; results are
        reproducible and runs are independent.
    n_jobs:
        Process-parallelism; ``None``/1 runs serially, 0 uses all cores.
        Aggregates are bit-identical to the serial run either way.
    telemetry:
        A :class:`~repro.telemetry.handle.TelemetryConfig` (or ``True``
        for defaults) records in-sim metrics; the merged snapshot lands
        on ``result.telemetry`` and, when ``telemetry_path`` is given,
        in a ``repro.telemetry.v1`` JSONL record.
    on_error:
        ``"skip"`` drops lifetimes that raise (counted on
        ``result.runs_failed``) instead of propagating.
    engine:
        ``"des"`` (default) runs the flat-array discrete-event engine;
        ``"bulk"`` runs the vectorized window-overlap model
        (:mod:`repro.reliability.bulk`) — orders of magnitude faster,
        statistically conformant on its supported configuration space,
        incompatible with telemetry.
    """
    return sweep({"point": config}, n_runs=n_runs, base_seed=base_seed,
                 n_jobs=n_jobs, sweep_name="estimate_p_loss",
                 telemetry=telemetry, telemetry_path=telemetry_path,
                 on_error=on_error, engine=engine)["point"]


async def estimate_p_loss_async(config: SystemConfig, n_runs: int = 100,
                                base_seed: int = 0,
                                n_jobs: int | None = None,
                                on_error: str = "raise",
                                engine: str = "des",
                                runner: SweepRunner | None = None
                                ) -> MonteCarloResult:
    """:func:`estimate_p_loss` without blocking the calling event loop.

    Same seed schedule, same aggregates, bit for bit — the lifetimes run
    on a worker thread via :meth:`SweepRunner.run_points_async` while the
    loop keeps serving (the forecast service's live tier).  Pass
    ``runner`` to reuse a long-lived pool across requests; a fresh
    serial runner is built otherwise.
    """
    runner = runner or SweepRunner(n_jobs=n_jobs)
    [result] = await runner.run_points_async(
        [PointSpec("point", config, engine=engine)], n_runs,
        base_seed=base_seed, sweep_name="estimate_p_loss",
        on_error=on_error)
    return result


def sweep(configs: dict[str, SystemConfig], n_runs: int = 100,
          base_seed: int = 0, n_jobs: int | None = None,
          sweep_name: str = "sweep",
          telemetry: TelemetryConfig | bool | None = None,
          telemetry_path: str | Path | None = None,
          on_error: str = "raise",
          engine: str = "des") -> dict[str, MonteCarloResult]:
    """Estimate P(loss) for a labelled family of configurations.

    All points run on one :class:`SweepRunner` (and hence one persistent
    worker pool) with every ``(point, run)`` lifetime submitted as an
    independent task.  With ``telemetry`` enabled each result carries the
    point's merged telemetry snapshot; ``telemetry_path`` additionally
    appends one JSONL record per point.
    """
    runner = SweepRunner(n_jobs=n_jobs, telemetry=telemetry,
                         telemetry_path=telemetry_path)
    points = [PointSpec(label, cfg, engine=engine)
              for label, cfg in configs.items()]
    results = runner.run_points(points, n_runs, base_seed=base_seed,
                                sweep_name=sweep_name, on_error=on_error)
    return {r.label: r for r in results}
