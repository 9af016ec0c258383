"""Reliability analysis: the DES engine, sweeps, analytic cross-checks."""

from .analytic import (WindowModel, expected_disk_failures, mean_window,
                       p_loss, p_loss_window_model)
from .markov import group_generator, mttdl, p_group_loss, p_system_loss
from .montecarlo import MonteCarloResult, estimate_p_loss, sweep
from .runner import (PointSpec, RunningMoments, StatsAggregate, SweepRunner,
                     seed_schedule, shutdown_pool)
from .scenarios import (Injection, Scenario, ScenarioOutcome,
                        ScriptedFailures)
from .sensitivity import (SensitivityRow, elasticity, render_tornado,
                          tornado)
from .simulation import PolicyConfig, RecoveryStats, ReliabilitySimulation
from .stats import Proportion, empty_proportion, wilson_interval

__all__ = [
    "ReliabilitySimulation", "RecoveryStats", "PolicyConfig",
    "MonteCarloResult", "estimate_p_loss", "sweep",
    "SweepRunner", "PointSpec", "StatsAggregate",
    "RunningMoments", "seed_schedule", "shutdown_pool",
    "Proportion", "wilson_interval", "empty_proportion",
    "p_loss", "p_loss_window_model", "WindowModel",
    "mean_window", "expected_disk_failures",
    "p_group_loss", "p_system_loss", "mttdl", "group_generator",
    "Scenario", "ScenarioOutcome", "Injection", "ScriptedFailures",
    "elasticity", "tornado", "render_tornado", "SensitivityRow",
]
