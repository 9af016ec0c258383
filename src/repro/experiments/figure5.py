"""Figure 5 — disk bandwidth devoted to recovery.

P(loss) versus recovery bandwidth (8–40 MB/s) for group sizes 10 GB and
50 GB, with and without FARM, detection latency 30 s, two-way mirroring.

Paper findings: loss probability falls as recovery bandwidth rises; higher
bandwidth helps the traditional scheme dramatically (its window is the
whole-disk rebuild, which shrinks proportionally) but has a much weaker
effect with FARM, whose windows are already short.
"""

from __future__ import annotations

from ..config import SystemConfig
from ..units import GB, MB
from .base import ExperimentResult, Scale, current_scale, run_p_loss_sweep
from .report import render_proportion

#: Recovery bandwidths swept (bytes/s; the paper's axis is MB/s).
BANDWIDTHS_BPS = (8 * MB, 16 * MB, 24 * MB, 32 * MB, 40 * MB)
GROUP_SIZES_BYTES = (10 * GB, 50 * GB)


def grid(scale: Scale,
         bandwidths_bps: tuple[float, ...] | None = None,
         group_sizes_bytes: tuple[float, ...] | None = None
         ) -> dict[str, SystemConfig]:
    """The labelled figure-5 point grid at ``scale``.

    Factored out of :func:`run` so other drivers (notably the
    bulk-engine benchmark, :mod:`.bulk_sweep`) sweep the *same* grid the
    figure uses — its FARM/traditional x bandwidth x group-size spread
    is the paper's canonical workload mix.
    """
    bws = bandwidths_bps or BANDWIDTHS_BPS
    sizes = group_sizes_bytes or GROUP_SIZES_BYTES
    points = {}
    for farm in (True, False):
        for size in sizes:
            base = scale.size_config(SystemConfig(
                group_user_bytes=size, use_farm=farm,
                detection_latency=30.0))
            for bw in bws:
                points[f"{farm}|{size / GB:g}|{bw / MB:g}"] = \
                    base.with_(recovery_bandwidth_bps=bw)
    return points


def run(scale: Scale | None = None, base_seed: int = 0,
        bandwidths_bps: tuple[float, ...] | None = None,
        group_sizes_bytes: tuple[float, ...] | None = None,
        estimator: str = "naive") -> ExperimentResult:
    scale = scale or current_scale()
    bws = bandwidths_bps or BANDWIDTHS_BPS
    sizes = group_sizes_bytes or GROUP_SIZES_BYTES
    result = ExperimentResult(
        experiment="figure5",
        description=("P(data loss) vs recovery bandwidth, FARM vs "
                     "traditional, detection latency 30 s"),
        scale=scale,
        columns=["mode", "group_gb", "bw_mbps", "mean_window_s",
                 "p_loss_pct", "ci95"],
    )
    points = grid(scale, bws, sizes)
    results = run_p_loss_sweep(points, estimator, n_runs=scale.n_runs,
                               base_seed=base_seed, n_jobs=scale.n_jobs,
                               sweep_name="figure5")
    for farm in (True, False):
        for size in sizes:
            for bw in bws:
                mc = results[f"{farm}|{size / GB:g}|{bw / MB:g}"]
                result.add(mode="FARM" if farm else "w/o",
                           group_gb=size / GB, bw_mbps=bw / MB,
                           mean_window_s=mc.aggregate.mean_window,
                           p_loss_pct=100.0 * mc.p_loss.estimate,
                           ci95=render_proportion(mc.p_loss))
    result.notes.append(
        "Paper: higher recovery bandwidth improves the traditional scheme "
        "dramatically but has no pronounced effect under FARM.")
    return result
