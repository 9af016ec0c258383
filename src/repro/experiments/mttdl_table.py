"""MTTDL designer table (extension beyond the paper's figures).

The paper reports six-year loss probabilities; storage designers usually
quote the complementary number — mean time to data loss.  This experiment
derives MTTDL for every paper scheme under FARM and traditional recovery
from the Markov chain at the base geometry, through the chain's config
mapping (`repro.reliability.markov.p_loss_config` and `mttdl_config`):
per-block failure rate = the mean drive hazard, repair rate = 1/window.

The headline: FARM's shorter window multiplies MTTDL by the same ~20x
factor that divides the window, and each extra tolerated fault multiplies
it by roughly (repair rate / failure rate) ~ 10^5.
"""

from __future__ import annotations

from ..config import SystemConfig
from ..redundancy.composite import is_threshold_scheme
from ..redundancy.schemes import PAPER_SCHEMES
from ..reliability.analytic import mean_window
from ..reliability.markov import mttdl_config, p_loss_config
from ..units import GB, YEAR
from .base import ExperimentResult, Scale, current_scale


def run(scale: Scale | None = None, base_seed: int = 0,
        group_bytes: float = 10 * GB) -> ExperimentResult:
    scale = scale or current_scale()
    result = ExperimentResult(
        experiment="mttdl",
        description=("analytic MTTDL per scheme and recovery mode "
                     f"({group_bytes / GB:g} GB groups, "
                     "paper base geometry)"),
        scale=scale,
        columns=["scheme", "mode", "window_s", "group_mttdl_yr",
                 "system_mttdl_yr", "p_loss_6yr_pct"],
    )
    for scheme in PAPER_SCHEMES:
        assert is_threshold_scheme(scheme)
        for farm in (True, False):
            cfg = SystemConfig(group_user_bytes=group_bytes,
                               scheme=scheme, use_farm=farm)
            # Independent groups: the system loses data n_groups times
            # faster (exact for exponential tails, first-order otherwise).
            system_mttdl = mttdl_config(cfg)
            result.add(scheme=scheme.name,
                       mode="FARM" if farm else "w/o",
                       window_s=mean_window(cfg),
                       group_mttdl_yr=system_mttdl * cfg.n_groups / YEAR,
                       system_mttdl_yr=system_mttdl / YEAR,
                       p_loss_6yr_pct=100.0 * p_loss_config(cfg))
    result.notes.append(
        "Markov-chain MTTDL at constant (time-averaged) hazard; the "
        "simulators add bathtub clustering on top, which shortens real "
        "MTTDL slightly (see ablation-bathtub).")
    return result
