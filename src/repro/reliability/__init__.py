"""Reliability analysis: the DES engine, sweeps, analytic cross-checks."""

from .analytic import (WindowModel, expected_disk_failures, mean_window,
                       p_loss, p_loss_window_model)
from .markov import group_generator, mttdl, p_group_loss, p_system_loss
from .montecarlo import (MonteCarloResult, estimate_p_loss,
                         loss_probability_series, run_seed, sweep)
from .rare import (SplittingResult, TiltedFailureDraw, estimate_p_loss_is,
                   splitting_p_loss, sweep_splitting)
from .runner import (PointOutcome, PointSpec, RunningMoments,
                     StatsAggregate, SweepRunner, seed_schedule,
                     shutdown_pool)
from .scenarios import (Injection, Scenario, ScenarioOutcome,
                        ScriptedFailures)
from .sensitivity import (SensitivityRow, elasticity, render_tornado,
                          tornado)
from .simulation import PolicyConfig, RecoveryStats, ReliabilitySimulation
from .stats import (ExactSum, Proportion, WeightedAggregate,
                    bootstrap_mean, empty_proportion,
                    weighted_clt_interval, weighted_wilson_interval,
                    wilson_interval)

__all__ = [
    "ReliabilitySimulation", "RecoveryStats", "PolicyConfig",
    "MonteCarloResult", "estimate_p_loss", "sweep",
    "loss_probability_series", "run_seed",
    "SweepRunner", "PointSpec", "PointOutcome", "StatsAggregate",
    "RunningMoments", "seed_schedule", "shutdown_pool",
    "Proportion", "wilson_interval", "empty_proportion", "bootstrap_mean",
    "ExactSum", "WeightedAggregate",
    "weighted_clt_interval", "weighted_wilson_interval",
    "TiltedFailureDraw", "SplittingResult", "estimate_p_loss_is",
    "splitting_p_loss", "sweep_splitting",
    "p_loss", "p_loss_window_model", "WindowModel",
    "mean_window", "expected_disk_failures",
    "p_group_loss", "p_system_loss", "mttdl", "group_generator",
    "Scenario", "ScenarioOutcome", "Injection", "ScriptedFailures",
    "elasticity", "tornado", "render_tornado", "SensitivityRow",
]
