"""Monte-Carlo estimation of the probability of data loss.

The paper's headline metric: simulate N independent system lifetimes and
report the fraction that lose at least one redundancy group, with Wilson
confidence intervals (Figure 7 shows 95% CIs; the other figures use 100
runs per point).

Execution is delegated to :mod:`repro.reliability.runner`: a sweep shares
one persistent process pool across *all* of its points and aggregates
per-run statistics streamingly, so parallel (``n_jobs``) and serial runs
produce bit-identical results and memory stays flat however many runs a
point has.  Pass ``keep_run_stats=True`` to also retain the raw per-run
:class:`~repro.reliability.simulation.RecoveryStats` objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

from ..config import SystemConfig
from ..telemetry.handle import TelemetryConfig
from .runner import PointOutcome, PointSpec, StatsAggregate, SweepRunner
from .simulation import RecoveryStats, ReliabilitySimulation
from .stats import (Proportion, empty_proportion, weighted_clt_interval,
                    wilson_interval)


@dataclass
class MonteCarloResult:
    """Aggregate over N independent lifetimes of one configuration."""

    config: SystemConfig
    n_runs: int
    losses: int
    p_loss: Proportion
    groups_lost_total: int
    mean_window: float
    max_window: float
    disk_failures_total: int
    redirections_total: int
    replacement_batches_total: int = 0
    blocks_migrated_total: int = 0
    events_fired_total: int = 0
    #: runs that raised and were dropped (``on_error="skip"``); the
    #: estimate's trial count is ``n_runs - runs_failed``.
    runs_failed: int = 0
    aggregate: StatsAggregate | None = field(repr=False, default=None)
    run_stats: list[RecoveryStats] = field(repr=False, default_factory=list)
    #: merged telemetry snapshot (``None`` unless telemetry was enabled).
    telemetry: dict | None = field(repr=False, default=None)
    #: importance-sampling tilt the runs used (0.0 = naive MC; nonzero
    #: means ``p_loss`` is the weighted CLT interval of the unbiased
    #: likelihood-ratio estimator).
    tilt: float = 0.0
    #: the lifetime engine that produced the runs ("des" or "bulk").
    engine: str = "des"

    @property
    def runs_with_redirection(self) -> int:
        if self.aggregate is not None:
            return self.aggregate.runs_with_redirection
        return sum(1 for s in self.run_stats if s.target_redirections > 0)

    @property
    def ess(self) -> float:
        """Effective sample size of the (possibly weighted) estimate.

        Unweighted runs contribute one effective sample each; weighted
        (tilted) runs contribute through the Kish ratio of their
        likelihood-ratio weights.  A run-stats-only construction (no
        aggregate) recomputes Kish from the per-run log-weights — the
        completed-run count would silently *overstate* a weighted
        estimate's information — and a tilted result carrying neither
        the aggregate nor the run stats has no defensible answer, so it
        refuses rather than guessing.
        """
        if self.aggregate is not None:
            return self.aggregate.weighted.ess
        if self.tilt == 0.0:
            return float(self.n_runs - self.runs_failed)
        if self.run_stats:
            # Kish ESS is scale-invariant, so shift by the max log-weight
            # before exponentiating: immune to under/overflow however
            # extreme the tilt.
            log_w = [s.log_weight for s in self.run_stats]
            peak = max(log_w)
            if peak == float("-inf"):
                return 0.0
            w = [math.exp(v - peak) for v in log_w]
            return math.fsum(w) ** 2 / math.fsum(x * x for x in w)
        raise ValueError(
            "cannot derive the effective sample size of a tilted result "
            "without its aggregate or per-run stats; construct it with "
            "aggregate=... or keep_run_stats=True")

    @property
    def zero_hit(self) -> bool:
        """True when no completed run observed a loss (see Proportion)."""
        return self.p_loss.zero_hit


def run_seed(config: SystemConfig, seed: int) -> RecoveryStats:
    """One DES lifetime (module-level for pickling)."""
    return ReliabilitySimulation(config, seed=seed).run()


def _result_from(outcome: PointOutcome,
                 confidence: float) -> MonteCarloResult:
    agg = outcome.aggregate
    # The estimate's trials are the runs that actually completed; with
    # on_error="skip" that can legitimately be zero, where the Wilson
    # interval is undefined and the uninformative [0, 1] stands in.
    completed = agg.n_runs
    if completed == 0:
        p_loss = empty_proportion(confidence)
    elif outcome.tilt != 0.0:
        # Importance-sampled runs: the unbiased weighted estimator with
        # its CLT interval (weights folded through WeightedAggregate).
        p_loss = weighted_clt_interval(agg.weighted, confidence)
    else:
        p_loss = wilson_interval(agg.losses, completed, confidence)
    return MonteCarloResult(
        config=outcome.config,
        n_runs=outcome.n_runs,
        losses=agg.losses,
        p_loss=p_loss,
        groups_lost_total=agg.groups_lost,
        mean_window=agg.mean_window,
        max_window=agg.window_max,
        disk_failures_total=agg.disk_failures,
        redirections_total=agg.target_redirections,
        replacement_batches_total=agg.replacement_batches,
        blocks_migrated_total=agg.blocks_migrated,
        events_fired_total=agg.events_fired,
        runs_failed=outcome.runs_failed,
        aggregate=agg,
        run_stats=outcome.run_stats,
        telemetry=outcome.telemetry,
        tilt=outcome.tilt,
        engine=outcome.engine,
    )


def estimate_p_loss(config: SystemConfig, n_runs: int = 100,
                    base_seed: int = 0, confidence: float = 0.95,
                    n_jobs: int | None = None,
                    keep_run_stats: bool = False,
                    telemetry: TelemetryConfig | bool | None = None,
                    telemetry_path: str | Path | None = None,
                    on_error: str = "raise",
                    tilt: float = 0.0,
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
    keep_run_stats:
        Retain the per-run :class:`RecoveryStats` list on the result
        (off by default; aggregates are streamed regardless).
    telemetry:
        A :class:`~repro.telemetry.handle.TelemetryConfig` (or ``True``
        for defaults) records in-sim metrics; the merged snapshot lands
        on ``result.telemetry`` and, when ``telemetry_path`` is given,
        in a ``repro.telemetry.v1`` JSONL record.
    on_error:
        ``"skip"`` drops lifetimes that raise (counted on
        ``result.runs_failed``) instead of propagating.
    tilt:
        Importance-sampling hazard log-multiplier: failure rates are
        scaled by ``exp(tilt)`` and every run carries its likelihood
        ratio, making loss more frequent under the proposal without
        biasing the (weighted) estimate.  0.0 is exactly the naive
        estimator (see :mod:`repro.reliability.rare`).
    engine:
        ``"des"`` (default) runs the flat-array discrete-event engine;
        ``"bulk"`` runs the vectorized window-overlap model
        (:mod:`repro.reliability.bulk`) — orders of magnitude faster,
        statistically conformant on its supported configuration space,
        incompatible with ``tilt`` and telemetry.
    """
    runner = SweepRunner(n_jobs=n_jobs, telemetry=telemetry,
                         telemetry_path=telemetry_path)
    [outcome] = runner.run_points(
        [PointSpec("point", config, tilt=tilt, engine=engine)], n_runs,
        base_seed=base_seed, keep_run_stats=keep_run_stats,
        sweep_name="estimate_p_loss", on_error=on_error)
    return _result_from(outcome, confidence)


async def estimate_p_loss_async(config: SystemConfig, n_runs: int = 100,
                                base_seed: int = 0,
                                confidence: float = 0.95,
                                n_jobs: int | None = None,
                                on_error: str = "raise",
                                tilt: float = 0.0,
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
    [outcome] = await runner.run_points_async(
        [PointSpec("point", config, tilt=tilt, engine=engine)], n_runs,
        base_seed=base_seed, sweep_name="estimate_p_loss",
        on_error=on_error)
    return _result_from(outcome, confidence)


def sweep(configs: dict[str, SystemConfig], n_runs: int = 100,
          base_seed: int = 0, n_jobs: int | None = None,
          confidence: float = 0.95, keep_run_stats: bool = False,
          sweep_name: str = "sweep",
          telemetry: TelemetryConfig | bool | None = None,
          telemetry_path: str | Path | None = None,
          on_error: str = "raise",
          tilt: float = 0.0,
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
    points = [PointSpec(label, cfg, tilt=tilt, engine=engine)
              for label, cfg in configs.items()]
    outcomes = runner.run_points(points, n_runs, base_seed=base_seed,
                                 keep_run_stats=keep_run_stats,
                                 sweep_name=sweep_name, on_error=on_error)
    return {o.label: _result_from(o, confidence) for o in outcomes}


def loss_probability_series(base: SystemConfig, param: str,
                            values: list, n_runs: int = 100,
                            base_seed: int = 0,
                            n_jobs: int | None = None,
                            keep_run_stats: bool = False,
                            sweep_name: str | None = None,
                            telemetry: TelemetryConfig | bool | None = None,
                            telemetry_path: str | Path | None = None,
                            on_error: str = "raise",
                            tilt: float = 0.0,
                            engine: str = "des"
                            ) -> list[tuple[object, MonteCarloResult]]:
    """Sweep one config field; returns (value, result) pairs in order."""
    labelled = {str(v): base.with_(**{param: v}) for v in values}
    results = sweep(labelled, n_runs=n_runs, base_seed=base_seed,
                    n_jobs=n_jobs, keep_run_stats=keep_run_stats,
                    sweep_name=sweep_name or f"series:{param}",
                    telemetry=telemetry, telemetry_path=telemetry_path,
                    on_error=on_error, tilt=tilt, engine=engine)
    return [(v, results[str(v)]) for v in values]
