"""§2.3 claim — recovery redirection is rare.

"Even with S.M.A.R.T., the possibility that a recovery target fails during
the data rebuild process remains.  In this case, we merely choose an
alternative target. ... The occurrence of this problem, which we call
recovery redirection, is rare.  We found that, at worst, it happened to
fewer than 8.0% of our systems even once during simulated six years."

This experiment measures the fraction of simulated systems that experience
at least one target redirection under the base FARM configuration.
"""

from __future__ import annotations

from ..config import SystemConfig
from ..reliability.montecarlo import estimate_p_loss
from ..reliability.stats import wilson_interval
from ..units import GB
from .base import ExperimentResult, Scale, current_scale
from .report import render_proportion

GROUP_SIZES_BYTES = (10 * GB, 50 * GB, 100 * GB)


def run(scale: Scale | None = None, base_seed: int = 0,
        group_sizes_bytes: tuple[float, ...] | None = None
        ) -> ExperimentResult:
    scale = scale or current_scale()
    sizes = group_sizes_bytes or GROUP_SIZES_BYTES
    result = ExperimentResult(
        experiment="redirection",
        description=("fraction of systems seeing >=1 recovery redirection "
                     "in six years (paper: < 8% at worst)"),
        scale=scale,
        columns=["group_gb", "systems_with_redirection_pct", "ci95",
                 "redirections_total"],
    )
    for size in sizes:
        cfg = scale.size_config(SystemConfig(group_user_bytes=size))
        mc = estimate_p_loss(cfg, n_runs=scale.n_runs, base_seed=base_seed,
                             n_jobs=scale.n_jobs)
        p = wilson_interval(mc.aggregate.runs_with_redirection, mc.n_runs)
        result.add(group_gb=size / GB,
                   systems_with_redirection_pct=100.0 * p.estimate,
                   ci95=render_proportion(p),
                   redirections_total=mc.aggregate.target_redirections)
    result.notes.append(
        "Paper §2.3: at worst, fewer than 8% of systems saw a redirection "
        "even once in six simulated years.")
    return result
