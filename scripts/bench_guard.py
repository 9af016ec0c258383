#!/usr/bin/env python
"""Bench-regression guard: fail on recorded performance regressions.

Three guarded series, all read from the bounded perf history at
``results/BENCH_sweep.json``:

* bulk-engine Monte-Carlo throughput (``bulk-sweep`` records from
  ``python -m repro run bulk``, ``runs_per_s``), floor at
  :data:`TOLERANCE` of the best comparable prior run;
* forecast-service p99 request latency (``service-bench`` records from
  ``benchmarks/bench_service.py``, ``p99_s``), ceiling at
  :data:`SERVICE_LATENCY_TOLERANCE` times the best comparable prior run;
* fast-DES availability-sweep throughput (``availability`` records from
  ``python -m repro run availability``, ``runs_per_s``), floor at
  :data:`TOLERANCE` of the best comparable prior run.  This series
  tracks the lazy-recovery hot path (held queue, span accounting) that
  the bulk engine cannot cover.

Each series' *latest* record is compared only with earlier records of
the same workload (:func:`workload_key`): the same sweep, grid size and
run count, the same ``scale`` and, for DES sweeps, the same
``events_fired``, which is exact for a fixed (config, seed) set.  A
smoke-scale record is never the baseline of a small-scale one, and a
record that fired different events ran different behaviour, not the
same work faster or slower.  With no comparable earlier record the
series passes.  This catches the class of regression the >= 100x
speedup assert cannot: a slowdown that still clears the absolute bar.

Ratio-of-recorded-runs, not absolute numbers: the history lives in the
repository, so records may come from different machines.  A 30% drop
against the best comparable run is a loud signal; the threshold is
deliberately loose so machine-to-machine variance does not produce
false alarms.

Stdlib only (the guard must run on the bare reproduction image).

Usage::

    python scripts/bench_guard.py [path/to/BENCH_sweep.json]

Exit status: 0 = no regression (or nothing comparable to compare);
1 = regression; 2 = unreadable history.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import NamedTuple

#: Latest runs/s must be at least this fraction of the best comparable
#: previously recorded runs/s.
TOLERANCE = 0.7

#: Latest service p99 request latency may be at most this multiple of
#: the best comparable previously recorded p99.  Looser than the
#: throughput bound: sub-millisecond latencies are far noisier across
#: machines than a minute of aggregate Monte-Carlo throughput.
SERVICE_LATENCY_TOLERANCE = 3.0

#: The sweep name the bulk benchmark records under.
SWEEP_NAME = "bulk-sweep"

#: The sweep name the forecast-service benchmark records under
#: (benchmarks/bench_service.py: per-tier HTTP request latency).
SERVICE_SWEEP_NAME = "service-bench"

#: The sweep name the availability experiment records under
#: (``python -m repro run availability``: the lazy-recovery /
#: repair-bandwidth trade-off grid on the fast DES engine).
AVAILABILITY_SWEEP_NAME = "availability"

#: Record fields naming the workload a record measured.  A missing field
#: reads as ``None``, so it matches only records that lack it too.
WORKLOAD_FIELDS = ("sweep", "n_points", "n_runs_per_point", "scale",
                   "events_fired")

DEFAULT_PATH = Path("results") / "BENCH_sweep.json"


class Series(NamedTuple):
    """One guarded series of the bench history."""

    sweep: str
    field: str
    #: True: a larger value is better (floor); False: a ceiling.
    higher_is_better: bool
    #: floor (fraction of the best prior) or ceiling (multiple of it)
    tolerance: float
    label: str
    unit: str
    #: display multiplier and format for values of ``field``
    factor: float
    fmt: str
    #: the command that re-records a baseline
    rerecord: str


SERIES = (
    Series(SWEEP_NAME, "runs_per_s", True, TOLERANCE, "bulk", "runs/s",
           1.0, ",.0f", "python -m repro run bulk"),
    Series(SERVICE_SWEEP_NAME, "p99_s", False, SERVICE_LATENCY_TOLERANCE,
           "service p99", "ms", 1e3, ",.2f",
           "pytest benchmarks/bench_service.py --benchmark-only"),
    Series(AVAILABILITY_SWEEP_NAME, "runs_per_s", True, TOLERANCE,
           "availability", "runs/s", 1.0, ",.1f",
           "python -m repro run availability"),
)


def _named_records(path: Path, sweep: str, field: str) -> list[dict]:
    """Records of one sweep carrying a numeric ``field``, oldest first."""
    raw = json.loads(path.read_text(encoding="utf-8"))
    # v2 container {"records": [...]} or a legacy bare record.
    records = raw.get("records", [raw]) if isinstance(raw, dict) else raw
    return [r for r in records
            if isinstance(r, dict) and r.get("sweep") == sweep
            and isinstance(r.get(field), (int, float))]


def workload_key(record: dict) -> tuple:
    """What a record measured; only equal keys are compared."""
    return tuple(record.get(name) for name in WORKLOAD_FIELDS)


def comparable_prior(records: list[dict]) -> list[dict]:
    """The records before the latest one that ran the same workload."""
    key = workload_key(records[-1])
    return [r for r in records[:-1] if workload_key(r) == key]


def guard(path: Path, series: Series) -> int:
    """Guard one series of the history (0 ok, 1 regression)."""
    records = _named_records(path, series.sweep, series.field)
    prior = comparable_prior(records) if records else []
    if not prior:
        print(f"bench_guard: {series.label}: no earlier {series.sweep} "
              f"record of the latest one's workload among "
              f"{len(records)} in {path}; nothing to compare — ok")
        return 0
    latest = records[-1]
    current = latest[series.field]
    values = [r[series.field] for r in prior]
    higher = series.higher_is_better
    baseline = max(values) if higher else min(values)
    limit = series.tolerance * baseline
    ok = current >= limit if higher else current <= limit
    bound = "floor" if higher else "ceiling"

    def show(value: float) -> str:
        return format(value * series.factor, series.fmt)

    print(f"bench_guard: {series.label} {show(current)} {series.unit} vs "
          f"best prior {show(baseline)} ({bound} {show(limit)} = "
          f"{series.tolerance:g}x) over {len(prior)} comparable of "
          f"{len(records)} records — {'ok' if ok else 'REGRESSION'}")
    if ok:
        return 0
    print(f"bench_guard: latest {series.sweep} record "
          f"(run_id={latest.get('run_id', '?')}, "
          f"scale={latest.get('scale', '?')}) regressed; if the "
          f"hardware changed, re-record a baseline with "
          f"'{series.rerecord}'", file=sys.stderr)
    return 1


def main(argv: list[str]) -> int:
    path = Path(argv[1]) if len(argv) > 1 else DEFAULT_PATH
    if not path.exists():
        print(f"bench_guard: {path} does not exist; nothing to guard "
              f"(run 'python -m repro run bulk' to record a baseline)")
        return 0
    try:
        return max(guard(path, series) for series in SERIES)
    except (json.JSONDecodeError, OSError) as exc:
        print(f"bench_guard: cannot read {path}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
