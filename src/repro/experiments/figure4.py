"""Figure 4 — impact of failure-detection latency on reliability.

Panel (a): P(loss) versus detection latency (0–10 minutes) for redundancy
group sizes 1–100 GB under two-way mirroring with FARM.  Smaller groups are
more sensitive: their rebuilds are short, so a fixed detection latency is a
much larger share of the window of vulnerability (64 s to rebuild a 1 GB
group at 16 MB/s versus 6400 s for 100 GB).

Panel (b): the same data plotted against the *ratio* of detection latency
to recovery time — the paper's hypothesis, which the data confirm, is that
this ratio (equivalently the total window) determines P(loss), collapsing
all group sizes onto one curve.
"""

from __future__ import annotations

from ..config import SystemConfig
from ..reliability.montecarlo import sweep
from ..units import GB, MINUTE
from .base import ExperimentResult, Scale, current_scale
from .report import render_proportion

#: Group sizes of the paper's six curves (bytes; the paper labels GB).
GROUP_SIZES_BYTES = (1 * GB, 5 * GB, 10 * GB, 25 * GB, 50 * GB, 100 * GB)
#: Detection latencies swept (seconds; the paper labels minutes).
LATENCIES_S = (0.0, 1 * MINUTE, 2 * MINUTE, 5 * MINUTE, 10 * MINUTE)


def run(scale: Scale | None = None, base_seed: int = 0,
        group_sizes_bytes: tuple[float, ...] | None = None,
        latencies_s: tuple[float, ...] | None = None) -> ExperimentResult:
    scale = scale or current_scale()
    sizes = group_sizes_bytes or GROUP_SIZES_BYTES
    lats = latencies_s or LATENCIES_S
    result = ExperimentResult(
        experiment="figure4",
        description=("P(data loss) vs detection latency, by group size "
                     "(two-way mirroring + FARM); ratio column drives "
                     "panel (b)"),
        scale=scale,
        columns=["group_gb", "latency_min", "latency_over_rebuild",
                 "mean_window_s", "p_loss_pct", "ci95"],
    )
    points = {}
    for size in sizes:
        base = scale.size_config(SystemConfig(group_user_bytes=size))
        for lat in lats:
            points[f"{size / GB:g}|{lat:g}"] = \
                base.with_(detection_latency=lat)
    results = sweep(points, n_runs=scale.n_runs, base_seed=base_seed,
                    n_jobs=scale.n_jobs, sweep_name="figure4")
    for size in sizes:
        for lat in lats:
            mc = results[f"{size / GB:g}|{lat:g}"]
            cfg = mc.config
            ratio = cfg.detection_latency / cfg.rebuild_seconds_per_block
            result.add(group_gb=size / GB, latency_min=lat / MINUTE,
                       latency_over_rebuild=ratio,
                       mean_window_s=mc.aggregate.mean_window,
                       p_loss_pct=100.0 * mc.p_loss.estimate,
                       ci95=render_proportion(mc.p_loss))
    result.notes.append(
        "Paper: smaller groups are more latency-sensitive (a); P(loss) is "
        "determined by the latency-to-recovery-time ratio (b).")
    return result


def collapse_by_ratio(result: ExperimentResult) -> list[dict]:
    """Panel (b): rows keyed by the latency/rebuild ratio.

    If the paper's hypothesis holds, rows with similar ratios have similar
    P(loss) regardless of group size.
    """
    rows = sorted(result.rows, key=lambda r: r["latency_over_rebuild"])
    return [{"ratio": r["latency_over_rebuild"],
             "group_gb": r["group_gb"],
             "p_loss_pct": r["p_loss_pct"]} for r in rows]
