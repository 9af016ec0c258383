"""``python -m bench compare BASE.json NEW.json [--force]``.

Each file is a set of runs appended by ``python -m bench --out``.  For
every (workload, end-to-end metric) row of ``BENCHMARK.json`` it takes
medians and quartiles per side and the fraction of pairs (i-th base
run, i-th new run) the new side wins, and gives a verdict:

* ``unresolved`` when either side's quartile spread exceeds the bound,
  unless every new run beats every base run (then ``improved``);
* ``regressed`` when the new median is worse by more than the bound;
* ``improved`` when the new side wins at least nine pairs in ten and the
  medians differ by more than the base side's quartile distance;
* ``same`` otherwise.

One more row per workload compares failed / attempted, where any
increase is a regression.  Exit status: 0 when no row regressed or is
unresolved, 1 otherwise, 2 when the files cannot be compared.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .stats import quartiles, spread

#: Share of pairs the new side must win for a gain.
WIN_FRACTION = 0.9


def judge(base: list[float], new: list[float], better: str,
          bound: float) -> dict:
    sign = 1.0 if better == "higher" else -1.0
    b_q1, b_med, b_q3 = quartiles(base)
    _, n_med, _ = quartiles(new)
    change = sign * (n_med - b_med) / b_med
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    win_frac = wins / len(pairs)
    every_better = all(sign * (n - b) > 0 for b in base for n in new)
    noise = max(spread(base), spread(new))
    if noise > bound:
        verdict = "improved" if every_better else "unresolved"
    elif change < -bound:
        verdict = "regressed"
    elif win_frac >= WIN_FRACTION and abs(n_med - b_med) > b_q3 - b_q1:
        verdict = "improved"
    else:
        verdict = "same"
    return {"base_median": b_med, "new_median": n_med, "change": change,
            "spread": noise, "win_frac": win_frac, "n": len(pairs),
            "verdict": verdict}


def _values(runs: list[dict], workload: str, metric: str) -> list[float]:
    return [run["workloads"][workload]["metrics"][metric]["value"]
            for run in runs if workload in run["workloads"]
            and metric in run["workloads"][workload].get("metrics", {})]


def _failed_frac(runs: list[dict], workload: str) -> float | None:
    results = [run["workloads"][workload] for run in runs
               if workload in run["workloads"]]
    attempted = sum(r["attempted"] for r in results)
    if not attempted:
        return None
    return sum(r["failed"] for r in results) / attempted


def compare_runs(base: list[dict], new: list[dict], spec: dict
                 ) -> list[dict]:
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            b = _values(base, workload, metric["name"])
            n = _values(new, workload, metric["name"])
            if b and n:
                rows.append({"workload": workload, "metric": metric["name"],
                             **judge(b, n, metric["better"],
                                     metric["bound"])})
        b_frac, n_frac = (_failed_frac(base, workload),
                          _failed_frac(new, workload))
        if b_frac is not None and n_frac is not None:
            rows.append({"workload": workload, "metric": "failed_frac",
                         "base_median": b_frac, "new_median": n_frac,
                         "verdict": "regressed" if n_frac > b_frac
                         else "same"})
    return rows


def render(rows: list[dict]) -> str:
    lines = [f"{'workload':<12} {'metric':<16} {'base':>11} {'new':>11} "
             f"{'change':>8} {'spread':>7} {'wins':>5} {'n':>3}  verdict"]
    for r in rows:
        extra = (f"{100 * r['change']:>+7.1f}% {100 * r['spread']:>6.1f}% "
                 f"{100 * r['win_frac']:>4.0f}% {r['n']:>3}"
                 if "change" in r else f"{'':>8} {'':>7} {'':>5} {'':>3}")
        lines.append(f"{r['workload']:<12} {r['metric']:<16} "
                     f"{r['base_median']:>11.5g} {r['new_median']:>11.5g} "
                     f"{extra}  {r['verdict']}")
    return "\n".join(lines)


def main(argv: list[str], spec: dict) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench compare")
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--force", action="store_true",
                        help="compare runs from different hosts")
    args = parser.parse_args(argv)
    try:
        base, new = (json.loads(p.read_text())["runs"]
                     for p in (args.base, args.new))
    except (OSError, ValueError, KeyError) as exc:
        print(f"bench compare: cannot read run sets: {exc}", file=sys.stderr)
        return 2
    hosts = {json.dumps(run["host"], sort_keys=True) for run in base + new}
    if len(hosts) > 1 and not args.force:
        print("bench compare: runs come from different hosts "
              "(nproc, CPU, Python, NumPy); pass --force to compare "
              "anyway:\n  " + "\n  ".join(sorted(hosts)), file=sys.stderr)
        return 2
    rows = compare_runs(base, new, spec)
    print(render(rows))
    bad = [r for r in rows if r["verdict"] in ("regressed", "unresolved")]
    return 1 if bad else 0
