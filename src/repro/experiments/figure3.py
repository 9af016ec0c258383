"""Figure 3 — reliability with and without FARM across redundancy schemes.

Paper setup: 2 PB system, six group configurations (1/2, 1/3, 2/3, 4/5,
4/6, 8/10), redundancy group sizes 10 GB (a) and 50 GB (b), **zero**
failure-detection latency, 100 runs each, six simulated years.

Paper findings the reproduction must show:

* FARM always increases reliability;
* with two-way mirroring, FARM cuts P(loss) to 1–3% versus 6–25% without;
* RAID-5-like parity (2/3, 4/5) without FARM fails to provide sufficient
  reliability;
* 3-way mirroring, 4/6 and 8/10 with FARM keep P(loss) below ~0.1%;
* group size has little impact *with* FARM but matters *without* it.
"""

from __future__ import annotations

from ..config import SystemConfig
from ..redundancy.schemes import PAPER_SCHEMES
from ..reliability.montecarlo import sweep
from ..units import GB
from .base import ExperimentResult, Scale, current_scale
from .report import render_proportion

#: Approximate values read off the paper's Figure 3 bars (percent), used by
#: EXPERIMENTS.md for side-by-side comparison.  Entries are
#: (scheme, group GB, farm?) -> expected percent (None = "too small to read").
PAPER_FIGURE3 = {
    ("1/2", 10, True): 2.0, ("1/2", 10, False): 25.0,
    ("1/3", 10, True): 0.05, ("1/3", 10, False): 1.0,
    ("1/2", 50, True): 2.0, ("1/2", 50, False): 6.0,
}


def run(scale: Scale | None = None, base_seed: int = 0,
        group_bytes: float = 10 * GB) -> ExperimentResult:
    """One panel of Figure 3 (the group size selects panel a or b)."""
    scale = scale or current_scale()
    base = scale.size_config(SystemConfig(
        group_user_bytes=group_bytes,
        detection_latency=0.0,      # Figure 3 assumes zero latency
    ))
    panel = "a" if group_bytes <= 25 * GB else "b"
    result = ExperimentResult(
        experiment=f"figure3{panel}",
        description=(f"P(data loss) by scheme, with/without FARM, "
                     f"{group_bytes / GB:g} GB groups, "
                     f"zero detection latency"),
        scale=scale,
        columns=["scheme", "farm", "p_loss_pct", "ci95",
                 "groups_lost", "paper_pct"],
    )
    points = {f"{scheme.name}|{farm}": base.with_(scheme=scheme,
                                                  use_farm=farm)
              for scheme in PAPER_SCHEMES for farm in (True, False)}
    results = sweep(points, n_runs=scale.n_runs, base_seed=base_seed,
                    n_jobs=scale.n_jobs, sweep_name=f"figure3{panel}")
    for scheme in PAPER_SCHEMES:
        for farm in (True, False):
            mc = results[f"{scheme.name}|{farm}"]
            result.add(
                scheme=scheme.name,
                farm="FARM" if farm else "w/o",
                p_loss_pct=100.0 * mc.p_loss.estimate,
                ci95=render_proportion(mc.p_loss),
                groups_lost=mc.aggregate.groups_lost,
                paper_pct=PAPER_FIGURE3.get(
                    (scheme.name, round(group_bytes / GB), farm)),
            )
    result.notes.append(
        "Paper: FARM 1-3% vs 6-25% w/o for two-way mirroring; RAID-5-like "
        "parity w/o FARM insufficient; <=0.1% for 1/3, 4/6, 8/10 with FARM.")
    return result


def run_both_panels(scale: Scale | None = None, base_seed: int = 0
                    ) -> tuple[ExperimentResult, ExperimentResult]:
    """Figure 3(a) and 3(b)."""
    return (run(scale, base_seed, group_bytes=10 * GB),
            run(scale, base_seed, group_bytes=50 * GB))
