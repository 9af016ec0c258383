#!/usr/bin/env python
"""Scenario: how good does failure detection need to be?

An operator sizing the monitoring plane wants to know when detection
latency starts hurting reliability.  The paper's answer (Figure 4): what
matters is the *ratio* of detection latency to per-group recovery time —
small redundancy groups rebuild in seconds, so even a minute of detection
latency dominates their window of vulnerability.

This study sweeps detection latency for two group sizes, then re-plots by
ratio to show the collapse.

Run:  python examples/detection_latency_study.py
"""

from repro import SystemConfig, estimate_p_loss
from repro.experiments.report import render_table
from repro.units import GB, MINUTE, PB

N_RUNS = 30
USER_DATA = 0.25 * PB

def main() -> None:
    rows = []
    for group_gb in (1.0, 50.0):
        base = SystemConfig(total_user_bytes=USER_DATA,
                            group_user_bytes=group_gb * GB)
        for latency_min in (0.0, 2.0, 10.0):
            cfg = base.with_(detection_latency=latency_min * MINUTE)
            mc = estimate_p_loss(cfg, n_runs=N_RUNS, n_jobs=0)
            rows.append({
                "group_gb": group_gb,
                "latency_min": latency_min,
                "rebuild_s": cfg.rebuild_seconds_per_block,
                "latency/rebuild": (cfg.detection_latency
                                    / cfg.rebuild_seconds_per_block),
                "p_loss_pct": 100 * mc.p_loss.estimate,
            })
    print(render_table(list(rows[0]), rows))

    print("\ncollapse by ratio (the paper's Figure 4(b) claim): points with")
    print("similar latency/rebuild ratios have similar P(loss), regardless")
    print("of group size:")
    for r in sorted(rows, key=lambda r: r["latency/rebuild"]):
        bar = "#" * max(1, round(r["p_loss_pct"]))
        print(f"  ratio {r['latency/rebuild']:8.2f}  "
              f"({r['group_gb']:>4.0f} GB): {r['p_loss_pct']:5.2f}%  {bar}")

if __name__ == "__main__":
    main()
