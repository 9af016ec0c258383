"""Sweep-level parallel execution with a persistent worker pool.

The paper's headline results (Figs. 3-8) are Monte-Carlo sweeps: hundreds
of independent lifetimes per point across many points.  Before this module
existed every point built and tore down its own ``ProcessPoolExecutor``
and the points themselves ran serially, so a 12-point x 100-run sweep
repeatedly barriered on its slowest point.  The :class:`SweepRunner`
instead submits **every** ``(point, run)`` lifetime as an independent task
to one process pool that persists across all points of a sweep (and across
sweeps within the process), so the pool stays saturated end to end.

Three guarantees:

* **Determinism** — run ``i`` of every point uses the seed
  ``stable_hash64(base_seed, "mc-run", i)``, the exact schedule the serial
  path uses, and results are folded into the aggregates *in run-index
  order* (a small reorder buffer holds out-of-order completions), so the
  parallel aggregates are bit-identical to a serial run.
* **Streaming aggregation** — per-run :class:`RecoveryStats` are reduced
  into a :class:`StatsAggregate` (counts, window sum/max, Welford moments)
  as they arrive; a sweep no longer retains one stats object per run
  unless the caller opts in with ``keep_run_stats=True``.
* **Perf record** — each sweep invocation can append a machine-readable
  record (wall time, events fired, runs/s, per-point timings) to the
  bounded ``BENCH_sweep.json`` history, keyed by schema version, run id
  (``REPRO_BENCH_ID`` or the git HEAD), and timestamp, so the benchmark
  trajectory accumulates across invocations instead of being rewritten.

Wall-clock reads here measure *host* performance only — simulated time
never touches them — and go through module-level injectable aliases so
tests can substitute a fake clock.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import threading
import time
from collections import Counter
from concurrent.futures import FIRST_COMPLETED, Future, wait
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

from ..config import SystemConfig
from ..sim.rng import stable_hash64
from ..telemetry.export import append_jsonl, default_telemetry_path
from ..telemetry.handle import Telemetry, TelemetryConfig
from ..telemetry.metrics import empty_snapshot, merge_into
from .simulation import RecoveryStats, ReliabilitySimulation
from .stats import WeightedAggregate

#: Injectable host-performance clocks (never simulated time; RPR004 keeps
#: direct wall-clock *calls* out of simulation logic, and these aliases
#: are the one sanctioned, swappable measurement point).
_WALL_CLOCK: Callable[[], float] = time.perf_counter
_WALL_TIME: Callable[[], float] = time.time

#: Default location of the perf record; ``REPRO_BENCH_PATH`` overrides it
#: ("" disables writing entirely).
DEFAULT_BENCH_PATH = Path("results") / "BENCH_sweep.json"

#: Schema tag stamped into every perf record.
BENCH_SCHEMA = "repro.bench-sweep.v1"

#: Schema tag of the on-disk container: an append-only, bounded history
#: of per-sweep records, so the perf *trajectory* survives across
#: invocations (and across PRs) instead of each sweep clobbering the
#: last.  A legacy bare-v1 file is absorbed as the first history entry.
BENCH_LOG_SCHEMA = "repro.bench-sweep-log.v1"

#: How many records the on-disk history retains (past it, the oldest
#: record of the largest ``sweep`` series is dropped).
BENCH_HISTORY_LIMIT = 200

#: Cap on queued-but-unsubmitted task batching: every task is submitted
#: up front (sweeps are at most a few thousand lifetimes), but completions
#: are drained in waves of this size to bound reorder-buffer growth.
_DRAIN_WAVE = 256


def default_bench_path() -> Path | None:
    """Where a sweep's perf record goes (None disables writing)."""
    env = os.environ.get("REPRO_BENCH_PATH")
    if env is not None:
        return Path(env) if env else None
    return DEFAULT_BENCH_PATH


#: Run id of a perf record whose ``.git`` could not be read.
GIT_UNREADABLE = "unknown-git-unreadable"


def _git_head_sha(start: Path) -> str | None:
    """Best-effort commit id from ``.git/HEAD`` (file reads only).

    Walks up from ``start`` looking for a ``.git`` directory and resolves
    HEAD through loose or packed refs.  No subprocess, no wall clock —
    it only exists to key perf records, so a failure degrades instead of
    raising: ``None`` when there is no ``.git`` or HEAD names no commit,
    and :data:`GIT_UNREADABLE` when reading it raised ``OSError``, so
    the record says why its run id is unknown.
    """
    try:
        d = Path(start).resolve()
        for _ in range(16):
            head = d / ".git" / "HEAD"
            if head.is_file():
                text = head.read_text(encoding="utf-8").strip()
                if not text.startswith("ref:"):
                    return text[:12] or None
                ref = text.split(None, 1)[1]
                loose = d / ".git" / ref
                if loose.is_file():
                    return loose.read_text(encoding="utf-8").strip()[:12]
                packed = d / ".git" / "packed-refs"
                if packed.is_file():
                    for line in packed.read_text(
                            encoding="utf-8").splitlines():
                        if line.endswith(" " + ref):
                            return line.split()[0][:12]
                return None
            if d.parent == d:
                break
            d = d.parent
    except OSError:
        return GIT_UNREADABLE
    return None


def bench_run_id() -> str:
    """Identity key for a perf record: env override, else git SHA.

    ``REPRO_BENCH_ID`` wins (CI can stamp a build id); otherwise the
    repository HEAD commit read from ``.git`` (never a subprocess),
    :data:`GIT_UNREADABLE` when ``.git`` exists but cannot be read, and
    ``"unknown"`` when there is no commit to name.
    """
    env = os.environ.get("REPRO_BENCH_ID")
    if env:
        return env
    return _git_head_sha(Path.cwd()) or "unknown"


def bench_timestamp() -> float:
    """Record timestamp: ``REPRO_BENCH_TIMESTAMP`` env, else host time.

    The env override keeps record identity reproducible in pinned
    environments; the fallback is the module's injectable ``_WALL_TIME``
    alias (a sanctioned host clock — simulated time never reaches here).
    """
    env = os.environ.get("REPRO_BENCH_TIMESTAMP")
    if env:
        return float(env)
    return _WALL_TIME()


def read_bench_records(path: str | Path) -> list[dict]:
    """All retained perf records at ``path``, oldest first.

    Understands both the ``repro.bench-sweep-log.v1`` container and a
    legacy bare-v1 single record (returned as a one-entry history).
    Unreadable or malformed files read as empty — the perf log is an
    artifact, never an input a sweep can fail on.
    """
    path = Path(path)
    if not path.exists():
        return []
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return []
    if isinstance(data, dict) and data.get("schema") == BENCH_LOG_SCHEMA:
        records = data.get("records")
        return [r for r in records if isinstance(r, dict)] \
            if isinstance(records, list) else []
    if isinstance(data, dict) and data.get("schema"):
        return [data]
    return []


def latest_bench_record(path: str | Path,
                        sweep: str | None = None) -> dict | None:
    """The newest retained record (optionally for one sweep name)."""
    for record in reversed(read_bench_records(path)):
        if sweep is None or record.get("sweep") == sweep:
            return record
    return None


def append_bench_record(path: str | Path, record: dict,
                        limit: int = BENCH_HISTORY_LIMIT) -> None:
    """Append ``record`` to the bounded on-disk perf history.

    Past ``limit`` records the oldest record of the ``sweep`` series
    holding the most records is dropped, so a flood of one series never
    evicts the few records of another (the regression guard compares
    each series only with itself).
    """
    path = Path(path)
    records = read_bench_records(path)
    records.append(record)
    while len(records) > limit:
        counts = Counter(r.get("sweep") for r in records)
        largest = max(counts, key=counts.__getitem__)
        del records[next(i for i, r in enumerate(records)
                         if r.get("sweep") == largest)]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps({"schema": BENCH_LOG_SCHEMA, "records": records},
                   indent=2) + "\n",
        encoding="utf-8")


def seed_schedule(base_seed: int, n_runs: int) -> list[int]:
    """The per-run seed schedule shared by serial and parallel paths."""
    return [stable_hash64(base_seed, "mc-run", i) % (2 ** 62)
            for i in range(n_runs)]


def resolve_workers(n_jobs: int | None) -> int:
    """Worker-process count for an ``n_jobs`` request (0 = all cores)."""
    if n_jobs is None or n_jobs == 1:
        return 1
    if n_jobs == 0:
        return os.cpu_count() or 1
    if n_jobs < 0:
        raise ValueError(f"n_jobs must be >= 0 or None, got {n_jobs}")
    return n_jobs


# --------------------------------------------------------------------- #
# Streaming aggregation
# --------------------------------------------------------------------- #
@dataclass
class RunningMoments:
    """Welford online mean/variance (numerically stable, single pass)."""

    count: int = 0
    mean: float = 0.0
    m2: float = 0.0

    def add(self, x: float) -> None:
        self.count += 1
        delta = x - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (x - self.mean)

    @property
    def variance(self) -> float:
        """Population variance (0 with fewer than two samples)."""
        if self.count < 2:
            return 0.0
        return self.m2 / self.count

    @property
    def std(self) -> float:
        return self.variance ** 0.5


@dataclass
class StatsAggregate:
    """Order-stable streaming reduction of per-run :class:`RecoveryStats`.

    Integer fields are plain sums; float fields are folded in run-index
    order so the result is bit-identical however the runs were executed.
    ``window_moments`` tracks the per-run *mean* window and
    ``failure_moments`` the per-run disk-failure count — the two
    quantities the experiment tables quote spreads for.
    """

    n_runs: int = 0
    losses: int = 0
    groups_lost: int = 0
    bytes_lost: float = 0.0
    disk_failures: int = 0
    rebuilds_started: int = 0
    rebuilds_completed: int = 0
    target_redirections: int = 0
    source_redirections: int = 0
    runs_with_redirection: int = 0
    window_total: float = 0.0
    window_max: float = 0.0
    replacement_batches: int = 0
    blocks_migrated: int = 0
    rebuilds_deferred: int = 0
    retries: int = 0
    latent_errors_discovered: int = 0
    latent_window_total: float = 0.0
    transient_outages: int = 0
    unavail_group_seconds: float = 0.0
    unavail_spans: int = 0
    unavail_max: float = 0.0
    rebuilds_held: int = 0
    events_fired: int = 0
    run_seconds_total: float = 0.0
    window_moments: RunningMoments = field(default_factory=RunningMoments)
    failure_moments: RunningMoments = field(default_factory=RunningMoments)
    #: Weighted loss reduction: every run folds its likelihood-ratio
    #: weight ``exp(stats.log_weight)`` (1.0 for ordinary runs) here, the
    #: one sanctioned weight-combination point (lint rule RPR012).  Exact
    #: sums inside make it chunking-insensitive, so serial and parallel
    #: sweeps agree bit for bit even under importance sampling.
    weighted: WeightedAggregate = field(default_factory=WeightedAggregate)

    def fold(self, stats: RecoveryStats, events_fired: int = 0,
             run_seconds: float = 0.0) -> None:
        """Reduce one lifetime's stats into the aggregate."""
        self.n_runs += 1
        self.losses += 1 if stats.any_loss else 0
        self.weighted.add(math.exp(stats.log_weight), stats.any_loss)
        self.groups_lost += stats.groups_lost
        self.bytes_lost += stats.bytes_lost
        self.disk_failures += stats.disk_failures
        self.rebuilds_started += stats.rebuilds_started
        self.rebuilds_completed += stats.rebuilds_completed
        self.target_redirections += stats.target_redirections
        self.source_redirections += stats.source_redirections
        self.runs_with_redirection += \
            1 if stats.target_redirections > 0 else 0
        self.window_total += stats.window_total
        self.window_max = max(self.window_max, stats.window_max)
        self.replacement_batches += stats.replacement_batches
        self.blocks_migrated += stats.blocks_migrated
        self.rebuilds_deferred += stats.rebuilds_deferred
        self.retries += stats.retries
        self.latent_errors_discovered += stats.latent_errors_discovered
        self.latent_window_total += stats.latent_window_total
        self.transient_outages += stats.transient_outages
        self.unavail_group_seconds += stats.unavail_group_seconds
        self.unavail_spans += stats.unavail_spans
        self.unavail_max = max(self.unavail_max, stats.unavail_max)
        self.rebuilds_held += stats.rebuilds_held
        self.events_fired += events_fired
        self.run_seconds_total += run_seconds
        self.window_moments.add(stats.mean_window)
        self.failure_moments.add(float(stats.disk_failures))

    @property
    def mean_window(self) -> float:
        """Mean window of vulnerability over all completed rebuilds."""
        if self.rebuilds_completed == 0:
            return 0.0
        return self.window_total / self.rebuilds_completed


# --------------------------------------------------------------------- #
# Worker tasks (module-level for pickling)
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class _LifetimeTask:
    """One (point, run) lifetime shipped to a worker process."""

    point: int
    index: int
    config: SystemConfig
    seed: int
    #: telemetry config; ``None`` runs the lifetime unobserved.
    telemetry: TelemetryConfig | None = None
    #: hazard log-multiplier for importance sampling (0.0 = untilted).
    tilt: float = 0.0
    #: lifetime engine: "des" (flat-array DES) or "bulk" (vectorized
    #: window-overlap model, see :mod:`repro.reliability.bulk`).
    engine: str = "des"


@dataclass(frozen=True)
class _BulkBatchTask:
    """A contiguous chunk of one bulk point's runs, shipped as one task.

    A bulk lifetime costs 0.4-0.8 ms at 2 PB on the figure-5 grid and
    about 0.3 ms at 100 TB (2-vCPU Xeon host), so per-run task
    dispatch would be dominated by pool overhead; chunking amortizes it
    while the per-run seeds keep every lifetime independent of how the
    chunk boundaries fall.
    """

    point: int
    start: int
    config: SystemConfig
    seeds: tuple[int, ...]


#: Runs per bulk pool task (see :class:`_BulkBatchTask`).  At 0.4-0.8 ms
#: a run at 2 PB (a task's median is 10-20 ms), 32 runs keep the workers
#: about 90 % busy under submission/pickle overhead while still feeding
#: even a wide pool promptly.
_BULK_CHUNK = 32


def _run_bulk_chunk(task: _BulkBatchTask
                    ) -> tuple[int, int, list[RecoveryStats], float]:
    """Execute one bulk chunk; returns ``(point, start, stats, secs)``."""
    t0 = _WALL_CLOCK()
    from .bulk import run_bulk_batch
    stats = run_bulk_batch(task.config, list(task.seeds))
    return (task.point, task.start, stats, _WALL_CLOCK() - t0)


def _run_lifetime(task: _LifetimeTask
                  ) -> tuple[int, int, RecoveryStats, int, float,
                             dict | None]:
    """Execute one lifetime.

    Returns ``(point, index, stats, events, secs, snapshot)`` where
    ``snapshot`` is the run's telemetry snapshot (a plain dict, so it
    pickles across the pool boundary) or ``None`` when unobserved.
    """
    t0 = _WALL_CLOCK()
    if task.engine == "bulk":
        from .bulk import BulkLifetime
        stats = BulkLifetime(task.config, seed=task.seed).run()
        return (task.point, task.index, stats, 0, _WALL_CLOCK() - t0, None)
    telemetry = (Telemetry(task.telemetry)
                 if task.telemetry is not None else None)
    failure_draw = None
    if task.tilt != 0.0:
        from .rare import TiltedFailureDraw
        failure_draw = TiltedFailureDraw(
            task.config.vintage.failure_model, task.tilt)
    sim = ReliabilitySimulation(task.config, seed=task.seed,
                                telemetry=telemetry,
                                failure_draw=failure_draw)
    stats = sim.run()
    snapshot = telemetry.snapshot() if telemetry is not None else None
    return (task.point, task.index, stats, sim.sim.events_fired,
            _WALL_CLOCK() - t0, snapshot)


# --------------------------------------------------------------------- #
# Persistent pool
# --------------------------------------------------------------------- #
_POOL: ProcessPoolExecutor | None = None
_POOL_WORKERS: int = 0


def shared_pool(workers: int) -> ProcessPoolExecutor:
    """The process-wide executor, (re)built only when the size changes."""
    global _POOL, _POOL_WORKERS
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if _POOL is None or _POOL_WORKERS != workers:
        if _POOL is not None:
            _POOL.shutdown(wait=True)
        _POOL = ProcessPoolExecutor(max_workers=workers)
        _POOL_WORKERS = workers
    return _POOL


def shutdown_pool() -> None:
    """Tear the shared pool down (tests, or explicit cleanup)."""
    global _POOL, _POOL_WORKERS
    if _POOL is not None:
        _POOL.shutdown(wait=True)
        _POOL = None
        _POOL_WORKERS = 0


# --------------------------------------------------------------------- #
# The runner
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class PointSpec:
    """One labelled sweep point."""

    label: str
    config: SystemConfig
    #: importance-sampling hazard tilt for this point (0.0 = naive MC).
    tilt: float = 0.0
    #: lifetime engine for this point ("des" or "bulk").
    engine: str = "des"


@dataclass
class PointOutcome:
    """Aggregated result of one sweep point."""

    label: str
    config: SystemConfig
    n_runs: int
    aggregate: StatsAggregate
    run_stats: list[RecoveryStats] = field(repr=False, default_factory=list)
    #: Host seconds from sweep start until this point's last run folded.
    completed_at_s: float = 0.0
    #: Runs that raised and were dropped (``on_error="skip"``).
    runs_failed: int = 0
    #: Merged telemetry snapshot over the point's completed runs, folded
    #: in run-index order (``None`` when telemetry is disabled).
    telemetry: dict | None = field(repr=False, default=None)
    #: the tilt the point ran under (0.0 = naive MC).
    tilt: float = 0.0
    #: the lifetime engine the point ran on ("des" or "bulk").
    engine: str = "des"


class SweepRunner:
    """Executes labelled sweep points over a persistent process pool.

    Parameters
    ----------
    n_jobs:
        ``None``/1 runs serially in-process; 0 uses all cores; ``k`` uses
        ``k`` worker processes.  Aggregates are bit-identical either way.
    bench_path:
        Where to write the ``BENCH_sweep.json`` perf record after each
        :meth:`run_points` invocation; ``None`` disables the record.
    telemetry:
        A :class:`~repro.telemetry.handle.TelemetryConfig` (or ``True``
        for the defaults) enables in-sim telemetry on every lifetime;
        per-point snapshots are merged in run-index order onto
        :attr:`PointOutcome.telemetry`, bit-identical however many
        workers executed the runs.
    telemetry_path:
        Append one ``repro.telemetry.v1`` JSONL record per point after
        each :meth:`run_points` invocation (implies ``telemetry=True``
        when no config was given).  Defaults to ``REPRO_TELEMETRY_PATH``
        when that is set (the CLI's ``--telemetry`` flag); pass ``""``
        to disable explicitly.
    """

    def __init__(self, n_jobs: int | None = None,
                 bench_path: str | Path | None = None,
                 telemetry: TelemetryConfig | bool | None = None,
                 telemetry_path: str | Path | None = None) -> None:
        self.n_jobs = n_jobs
        self.workers = resolve_workers(n_jobs)
        self.bench_path = Path(bench_path) if bench_path else None
        if telemetry_path is None:
            telemetry_path = default_telemetry_path()
        self.telemetry_path = Path(telemetry_path) if telemetry_path \
            else None
        if telemetry is True or (telemetry is None
                                 and self.telemetry_path is not None):
            telemetry = TelemetryConfig()
        self.telemetry: TelemetryConfig | None = telemetry or None
        self.last_record: dict[str, Any] | None = None
        # Serializes run_points invocations arriving from different
        # threads (run_points_async): the reorder buffers are per-call,
        # but last_record and the bench/telemetry writers are not.
        self._run_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    def run_points(self, points: Sequence[PointSpec], n_runs: int,
                   base_seed: int = 0, keep_run_stats: bool = False,
                   sweep_name: str = "sweep",
                   on_error: str = "raise") -> list[PointOutcome]:
        """Run ``n_runs`` lifetimes for every point; aggregate streamingly.

        Every point uses the same ``base_seed`` (hence the same per-run
        seed schedule), exactly like back-to-back ``estimate_p_loss``
        calls; results come back in point order.

        ``on_error="skip"`` drops a lifetime that raises (counted on
        :attr:`PointOutcome.runs_failed`) instead of propagating; the
        surviving runs still fold in run-index order, so the aggregate
        stays order-stable.  For a parallel bulk point the drop is
        chunk-granular: every run of the chunk containing the failing
        lifetime is skipped.
        """
        if n_runs <= 0:
            raise ValueError("n_runs must be positive")
        if not points:
            raise ValueError("at least one sweep point is required")
        if on_error not in ("raise", "skip"):
            raise ValueError(f"on_error must be 'raise' or 'skip', "
                             f"got {on_error!r}")
        for p in points:
            if p.engine not in ("des", "bulk"):
                raise ValueError(f"unknown engine {p.engine!r} for point "
                                 f"{p.label!r}; expected 'des' or 'bulk'")
            if p.engine == "bulk" and p.tilt != 0.0:
                raise ValueError(
                    f"point {p.label!r}: the bulk engine has no "
                    f"importance-sampling path (tilt={p.tilt}); use "
                    f"engine='des' for tilted runs")
            if p.engine == "bulk" and self.telemetry is not None:
                raise ValueError(
                    f"point {p.label!r}: the bulk engine is event-free "
                    f"and cannot drive telemetry probes; disable "
                    f"telemetry or use engine='des'")
        t0 = _WALL_CLOCK()
        seeds = seed_schedule(base_seed, n_runs)
        outcomes = [PointOutcome(label=p.label, config=p.config,
                                 n_runs=n_runs, aggregate=StatsAggregate(),
                                 tilt=p.tilt, engine=p.engine)
                    for p in points]
        if self.workers <= 1:
            self._run_serial(points, seeds, outcomes, keep_run_stats, t0,
                             on_error)
        else:
            self._run_parallel(points, seeds, outcomes, keep_run_stats, t0,
                               on_error)
        wall = _WALL_CLOCK() - t0
        self.last_record = self._bench_record(sweep_name, outcomes, n_runs,
                                              wall)
        self._write_bench(self.last_record)
        self._write_telemetry(sweep_name, outcomes)
        return outcomes

    async def run_points_async(self, points: Sequence[PointSpec],
                               n_runs: int, base_seed: int = 0,
                               keep_run_stats: bool = False,
                               sweep_name: str = "sweep",
                               on_error: str = "raise"
                               ) -> list[PointOutcome]:
        """:meth:`run_points` off the event loop.

        The forecast service (:mod:`repro.service`) answers HTTP requests
        from an asyncio loop but live estimation is CPU-bound blocking
        work; this awaitable runs it on a worker thread (the process pool
        underneath is thread-safe) so the loop keeps serving while
        lifetimes execute.  Concurrent invocations on one runner are
        serialized by an internal lock — the math is per-call, but the
        bench/telemetry side effects are not — and the determinism
        guarantee is untouched: same points, seed, and schedule as the
        synchronous path, bit for bit.
        """
        def _locked() -> list[PointOutcome]:
            with self._run_lock:
                return self.run_points(
                    points, n_runs, base_seed=base_seed,
                    keep_run_stats=keep_run_stats, sweep_name=sweep_name,
                    on_error=on_error)
        return await asyncio.to_thread(_locked)

    def map_tasks(self, fn: Callable[[Any], Any],
                  items: Iterable[Any]) -> list[Any]:
        """Ordered map over picklable items, on the shared pool when
        parallel (used by scenario-style experiment drivers)."""
        items = list(items)
        if self.workers <= 1 or len(items) <= 1:
            return [fn(item) for item in items]
        return list(shared_pool(self.workers).map(fn, items))

    # ------------------------------------------------------------------ #
    def _fold(self, outcome: PointOutcome, payload: tuple,
              keep_run_stats: bool) -> None:
        """Reduce one completed lifetime into its point's outcome."""
        _, _, stats, events, secs, snapshot = payload
        outcome.aggregate.fold(stats, events, secs)
        if keep_run_stats:
            outcome.run_stats.append(stats)
        if snapshot is not None:
            if outcome.telemetry is None:
                outcome.telemetry = empty_snapshot()
            merge_into(outcome.telemetry, snapshot)

    def _run_serial(self, points: Sequence[PointSpec], seeds: list[int],
                    outcomes: list[PointOutcome], keep_run_stats: bool,
                    t0: float, on_error: str) -> None:
        for p, point in enumerate(points):
            if point.engine == "bulk":
                # Same chunking as the parallel path: per-run dispatch
                # overhead is a measurable fraction of a sub-millisecond
                # bulk lifetime, and chunk boundaries cannot change the
                # fold (per-run seeds + run-index order).
                for lo in range(0, len(seeds), _BULK_CHUNK):
                    chunk = tuple(seeds[lo:lo + _BULK_CHUNK])
                    try:
                        _, start, chunk_stats, secs = _run_bulk_chunk(
                            _BulkBatchTask(p, lo, point.config, chunk))
                    except Exception:
                        if on_error != "skip":
                            raise
                        outcomes[p].runs_failed += len(chunk)
                        continue
                    per_run = secs / len(chunk_stats)
                    for k, stats in enumerate(chunk_stats):
                        self._fold(outcomes[p],
                                   (p, start + k, stats, 0, per_run, None),
                                   keep_run_stats)
                outcomes[p].completed_at_s = _WALL_CLOCK() - t0
                continue
            for i, seed in enumerate(seeds):
                try:
                    payload = _run_lifetime(
                        _LifetimeTask(p, i, point.config, seed,
                                      self.telemetry, point.tilt,
                                      point.engine))
                except Exception:
                    if on_error != "skip":
                        raise
                    outcomes[p].runs_failed += 1
                    continue
                self._fold(outcomes[p], payload, keep_run_stats)
            outcomes[p].completed_at_s = _WALL_CLOCK() - t0

    def _run_parallel(self, points: Sequence[PointSpec], seeds: list[int],
                      outcomes: list[PointOutcome], keep_run_stats: bool,
                      t0: float, on_error: str) -> None:
        pool = shared_pool(self.workers)
        # DES points submit one task per run; bulk points submit chunks
        # of _BULK_CHUNK runs (sub-millisecond lifetimes would otherwise
        # drown in task overhead).  The futures value is ``(point, first
        # run index, chunk length)`` with length 0 marking a single task.
        futures: dict[Future, tuple[int, int, int]] = {}
        for p, point in enumerate(points):
            if point.engine == "bulk":
                for lo in range(0, len(seeds), _BULK_CHUNK):
                    chunk = tuple(seeds[lo:lo + _BULK_CHUNK])
                    fut = pool.submit(
                        _run_bulk_chunk,
                        _BulkBatchTask(p, lo, point.config, chunk))
                    futures[fut] = (p, lo, len(chunk))
            else:
                for i, seed in enumerate(seeds):
                    fut = pool.submit(
                        _run_lifetime,
                        _LifetimeTask(p, i, point.config, seed,
                                      self.telemetry, point.tilt,
                                      point.engine))
                    futures[fut] = (p, i, 0)
        # Per-point reorder buffers: fold strictly in run-index order so
        # float reductions (and telemetry merges) are bit-identical to
        # the serial path.  ``None`` marks a run skipped after an error
        # (for a bulk chunk, every run the chunk covered).
        buffers: list[dict[int, tuple | None]] = [{} for _ in points]
        next_index = [0] * len(points)
        n_runs = len(seeds)
        while futures:
            done, _ = wait(futures, return_when=FIRST_COMPLETED)
            for fut in done:
                p, i, count = futures.pop(fut)
                try:
                    result = fut.result()
                except Exception:
                    if on_error != "skip":
                        for pending in futures:
                            pending.cancel()
                        raise
                    for k in range(max(count, 1)):
                        buffers[p][i + k] = None
                    continue
                if count:
                    _, start, chunk_stats, secs = result
                    per_run = secs / len(chunk_stats)
                    for k, stats in enumerate(chunk_stats):
                        buffers[p][start + k] = (p, start + k, stats, 0,
                                                 per_run, None)
                else:
                    buffers[p][i] = result
            for p, buffer in enumerate(buffers):
                while next_index[p] in buffer:
                    payload = buffer.pop(next_index[p])
                    if payload is None:
                        outcomes[p].runs_failed += 1
                    else:
                        self._fold(outcomes[p], payload, keep_run_stats)
                    next_index[p] += 1
                    if next_index[p] == n_runs:
                        outcomes[p].completed_at_s = _WALL_CLOCK() - t0

    # ------------------------------------------------------------------ #
    def _bench_record(self, sweep_name: str,
                      outcomes: list[PointOutcome], n_runs: int,
                      wall: float) -> dict[str, Any]:
        total_runs = n_runs * len(outcomes)
        events = sum(o.aggregate.events_fired for o in outcomes)
        return {
            "schema": BENCH_SCHEMA,
            "sweep": sweep_name,
            "timestamp": bench_timestamp(),
            "run_id": bench_run_id(),
            "engines": sorted({o.engine for o in outcomes}),
            "n_jobs": self.n_jobs,
            "workers": self.workers,
            "n_points": len(outcomes),
            "n_runs_per_point": n_runs,
            "total_runs": total_runs,
            "wall_time_s": wall,
            "events_fired": events,
            "runs_per_s": total_runs / wall if wall > 0 else 0.0,
            "events_per_s": events / wall if wall > 0 else 0.0,
            "points": [
                {
                    "label": o.label,
                    "n_runs": o.n_runs,
                    "runs_failed": o.runs_failed,
                    "tilt": o.tilt,
                    "engine": o.engine,
                    "ess": o.aggregate.weighted.ess,
                    "losses": o.aggregate.losses,
                    "events_fired": o.aggregate.events_fired,
                    "run_seconds_total": o.aggregate.run_seconds_total,
                    "completed_at_s": o.completed_at_s,
                }
                for o in outcomes
            ],
        }

    def _write_bench(self, record: dict[str, Any]) -> None:
        if self.bench_path is None:
            return
        append_bench_record(self.bench_path, record)

    def _write_telemetry(self, sweep_name: str,
                         outcomes: list[PointOutcome]) -> None:
        if self.telemetry_path is None:
            return
        for o in outcomes:
            if o.telemetry is None:
                continue
            append_jsonl(self.telemetry_path, o.telemetry,
                         sweep=sweep_name, point=o.label,
                         n_runs=o.aggregate.n_runs,
                         runs_failed=o.runs_failed)
