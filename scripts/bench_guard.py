#!/usr/bin/env python
"""Bench-regression guard: a run set against the tracked baseline.

``scripts/check.sh`` appends its three pin-gate runs (des-fig3a,
des-lazy, bulk-fig5) to one temporary run set with ``python3 -m bench
--out``.  This guard compares that set with the tracked baseline
``results/bench-baseline.json``, recorded with the same commands: five
runs per workload, the same ``--seed`` and ``--seconds``.  The judging
is ``bench.compare``'s (medians, quartile spreads and the bounds of
``BENCHMARK.json``).  Every row is printed; a ``regressed``
``throughput_per_s`` or ``failed_frac`` row fails the guard.

Like is compared with like.  Runs whose seed, ``--seconds``, ``--quick``
or ``--trace`` differ from the baseline's cannot be compared, and the
guard exits 2.  Runs from another host fingerprint (nproc, CPU, Python,
NumPy) are not judged: the guard prints both fingerprints and skips.

service-mix is not guarded: its quartile spread (16-34 %) exceeds its
20 % bound, so ``compare`` cannot resolve it.

Usage::

    python scripts/bench_guard.py RUNS.json

Exit status: 0 = no regression, or another host (skipped);
1 = regression; 2 = the run sets cannot be read or compared.

Re-record the baseline on the host that runs the gate, after a change
that is meant to move performance::

    rm results/bench-baseline.json
    for i in 1 2 3 4 5; do
      for w in des-fig3a des-lazy bulk-fig5; do
        python3 -m bench --workload $w --seconds 20 \\
          --out results/bench-baseline.json
      done
    done
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from bench.cli import load_spec  # noqa: E402
from bench.compare import compare_runs, render  # noqa: E402

BASELINE = ROOT / "results" / "bench-baseline.json"

#: The workloads the guard judges.
GUARDED = ("des-fig3a", "des-lazy", "bulk-fig5")

#: Rows whose ``regressed`` verdict fails the guard.
GATED = ("throughput_per_s", "failed_frac")

#: Run settings that must equal the baseline's.
SETTINGS = ("seed", "seconds", "quick", "trace")


def _distinct(runs: list[dict], part) -> list[str]:
    return sorted({json.dumps(part(run), sort_keys=True) for run in runs})


def guard(runs: list[dict], baseline: list[dict], spec: dict) -> int:
    """Judge ``runs`` against ``baseline`` (0 ok or skipped, 1 regression,
    2 not comparable)."""
    settings = _distinct(runs + baseline,
                         lambda run: {k: run.get(k) for k in SETTINGS})
    if len(settings) > 1:
        print("bench_guard: the runs and the baseline differ in seed, "
              "seconds or flags; cannot compare:\n  "
              + "\n  ".join(settings), file=sys.stderr)
        return 2
    hosts = _distinct(runs, lambda run: run["host"])
    base_hosts = _distinct(baseline, lambda run: run["host"])
    if hosts != base_hosts:
        print("bench_guard: skipped, the runs come from another host than "
              "the baseline\n  baseline: " + "\n            ".join(base_hosts)
              + "\n  runs:     " + "\n            ".join(hosts))
        return 0
    guarded = {**spec, "workloads": [w for w in spec["workloads"]
                                     if w["name"] in GUARDED]}
    rows = compare_runs(baseline, runs, guarded)
    if not rows:
        print("bench_guard: no guarded workload "
              f"({', '.join(GUARDED)}) is in both run sets",
              file=sys.stderr)
        return 2
    print(render(rows))
    bad = [f"{r['workload']} {r['metric']}" for r in rows
           if r["metric"] in GATED and r["verdict"] == "regressed"]
    if bad:
        print(f"bench_guard: regressed: {', '.join(bad)}", file=sys.stderr)
        return 1
    print("bench_guard: ok")
    return 0


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python scripts/bench_guard.py RUNS.json",
              file=sys.stderr)
        return 2
    try:
        runs, baseline = (json.loads(p.read_text(encoding="utf-8"))["runs"]
                          for p in (Path(argv[1]), BASELINE))
    except (OSError, ValueError, KeyError) as exc:
        print(f"bench_guard: cannot read run sets: {exc}", file=sys.stderr)
        return 2
    return guard(runs, baseline, load_spec())


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
