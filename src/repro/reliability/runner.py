"""Sweep-level parallel execution with a persistent worker pool.

The paper's headline results (Figs. 3-8) are Monte-Carlo sweeps: hundreds
of independent lifetimes per point across many points.  Before this module
existed every point built and tore down its own ``ProcessPoolExecutor``
and the points themselves ran serially, so a 12-point x 100-run sweep
repeatedly barriered on its slowest point.  The :class:`SweepRunner`
instead submits **every** ``(point, run)`` DES lifetime (and every chunk of
bulk lifetimes) as an independent task to one process pool that persists
across all points of a sweep (and across sweeps within the process), so
the pool stays saturated end to end.

Four guarantees:

* **Determinism** — run ``i`` of every point uses the seed
  ``stable_hash64(base_seed, "mc-run", i)``, and results are folded into
  the aggregates *in run-index order* (a small reorder buffer holds
  out-of-order completions).  A serial run executes the same task list
  in-process, in order, through the same fold, so the parallel
  aggregates are bit-identical to it.
* **Streaming aggregation** — per-run :class:`RecoveryStats` are reduced
  into a :class:`StatsAggregate` (counts, window sum/max, Welford moments)
  as they arrive; a sweep retains no stats object per run, and every
  count a table prints is read from the aggregate.
* **A dead worker breaks only its own sweep** — a worker process that
  dies breaks the pool and every pending task.  The runner then shuts
  that pool down and resubmits the tasks not yet folded to a fresh one,
  once; seeds fix every result, so the aggregates stay bit-identical.
  If the fresh pool breaks too, the call raises, and the next call
  still starts on a working pool.
* **Perf summary** — each :meth:`SweepRunner.run_points` call leaves
  wall time, events fired, runs/s and per-point timings on
  :attr:`SweepRunner.last_record`, in memory only; the runner writes no
  performance file (``python3 -m bench`` is the repository's benchmark).

Wall-clock reads here measure *host* performance only — simulated time
never touches them — and go through a module-level injectable alias so
tests can substitute a fake clock.
"""

from __future__ import annotations

import asyncio
import os
import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, wait
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

from ..config import SystemConfig
from ..sim.rng import stable_hash64
from ..telemetry.export import append_jsonl, default_telemetry_path
from ..telemetry.handle import Telemetry, TelemetryConfig
from ..telemetry.metrics import empty_snapshot, merge_into
from .simulation import RecoveryStats, ReliabilitySimulation
from .stats import Proportion, empty_proportion, wilson_interval

#: Injectable host-performance clock (never simulated time; RPR004 keeps
#: direct wall-clock *calls* out of simulation logic, and this alias is
#: the one sanctioned, swappable measurement point).
_WALL_CLOCK: Callable[[], float] = time.perf_counter


def seed_schedule(base_seed: int, n_runs: int) -> list[int]:
    """The per-run seed schedule every point of every sweep uses."""
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

    def fold(self, stats: RecoveryStats, events_fired: int = 0,
             run_seconds: float = 0.0) -> None:
        """Reduce one lifetime's stats into the aggregate."""
        self.n_runs += 1
        self.losses += 1 if stats.any_loss else 0
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


@dataclass
class MonteCarloResult:
    """One sweep point's lifetimes, reduced to what a P(loss) table prints.

    Every count lives on :attr:`aggregate`; :attr:`p_loss` and
    :attr:`zero_hit` are read from it.
    """

    label: str
    config: SystemConfig
    n_runs: int
    aggregate: StatsAggregate = field(repr=False,
                                      default_factory=StatsAggregate)
    #: Runs that raised and were dropped (``on_error="skip"``); the
    #: estimate's trial count is ``n_runs - runs_failed``.
    runs_failed: int = 0
    #: Host seconds from sweep start until this point's last run folded.
    completed_at_s: float = 0.0
    #: Merged telemetry snapshot over the point's completed runs, folded
    #: in run-index order (``None`` when telemetry is disabled).
    telemetry: dict | None = field(repr=False, default=None)
    #: the lifetime engine the point ran on ("des" or "bulk").
    engine: str = "des"

    @property
    def p_loss(self) -> Proportion:
        """The 95 % Wilson interval of P(data loss) over the completed
        runs.  With ``on_error="skip"`` no run may have completed, where
        the uninformative [0, 1] stands in.
        """
        agg = self.aggregate
        if agg.n_runs == 0:
            return empty_proportion()
        return wilson_interval(agg.losses, agg.n_runs)

    @property
    def zero_hit(self) -> bool:
        """True when no completed run observed a loss (see Proportion)."""
        return self.p_loss.zero_hit


# --------------------------------------------------------------------- #
# Worker tasks (module-level for pickling)
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class _Task:
    """A contiguous run of one point's lifetimes, shipped as one task.

    A DES task holds one seed, which keeps the pool's load balanced.  On
    the figure-5 grid at 2 PB a bulk lifetime costs, in CPU time inside
    a pool worker, about 0.25 ms under FARM with 10 or 50 GB groups,
    0.4 ms under traditional recovery with 50 GB groups and 0.8-0.9 ms
    with 10 GB groups, and 0.2-0.35 ms at 100 TB (2-vCPU Xeon host), so
    per-run dispatch would be dominated by pool overhead; a bulk task holds
    :data:`_BULK_CHUNK` seeds, and the per-run seeds keep every lifetime
    independent of how the chunk boundaries fall.
    """

    point: int
    #: run index of ``seeds[0]``.
    start: int
    config: SystemConfig
    seeds: tuple[int, ...]
    #: lifetime engine ("des" or "bulk").
    engine: str = "des"
    #: telemetry config; ``None`` runs the lifetimes unobserved.
    telemetry: TelemetryConfig | None = None


#: Runs per bulk task (see :class:`_Task`).  At 0.25-0.9 ms a run at
#: 2 PB (8-29 ms a task), 32 runs keep the workers 87-91 %
#: busy under submission/pickle overhead (bulk-fig5's traced
#: ``reliability.runner.busy_frac``) while still feeding even a wide
#: pool promptly.
_BULK_CHUNK = 32

#: One run's result: ``(stats, events fired, host seconds, telemetry
#: snapshot or None)``.  The snapshot is a plain dict, so it pickles
#: across the pool boundary.
_RunResult = tuple[RecoveryStats, int, float, dict | None]


def _run_task(task: _Task) -> list[_RunResult]:
    """Execute one task; returns one :data:`_RunResult` per seed."""
    if task.engine == "bulk":
        t0 = _WALL_CLOCK()
        from .bulk import run_bulk_batch
        stats = run_bulk_batch(task.config, list(task.seeds))
        per_run = (_WALL_CLOCK() - t0) / len(stats)
        return [(s, 0, per_run, None) for s in stats]
    runs: list[_RunResult] = []
    for seed in task.seeds:
        t0 = _WALL_CLOCK()
        telemetry = (Telemetry(task.telemetry)
                     if task.telemetry is not None else None)
        sim = ReliabilitySimulation(task.config, seed=seed,
                                    telemetry=telemetry)
        stats = sim.run()
        snapshot = telemetry.snapshot() if telemetry is not None else None
        runs.append((stats, sim.sim.events_fired, _WALL_CLOCK() - t0,
                     snapshot))
    return runs


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


def _drain(workers: int, jobs: Sequence[tuple[Callable, Any]],
           on_done: Callable[[int, Callable[[], Any]], None]) -> None:
    """Run every ``(fn, arg)`` job; call ``on_done(index, result)`` once
    per job, where ``result()`` returns the job's value or raises its
    exception.

    With one worker the jobs run in-process, in order, and ``result`` is
    ``partial(fn, arg)``.  Otherwise they run on the shared pool, in
    completion order, and ``result`` is the future's ``result``.  A dead
    worker breaks the pool and fails every pending future with
    :class:`BrokenProcessPool`.  The broken pool is then shut down and
    the jobs not yet handed to ``on_done`` go to a fresh pool, once; a
    second break shuts that pool down too and raises.  If ``on_done``
    raises, the pending futures are cancelled.
    """
    if workers <= 1:
        for k, (fn, arg) in enumerate(jobs):
            on_done(k, partial(fn, arg))
        return
    left = set(range(len(jobs)))
    for attempt in range(2):
        pool = shared_pool(workers)
        futures: dict[Future, int] = {}
        try:
            for k in sorted(left):
                fn, arg = jobs[k]
                futures[pool.submit(fn, arg)] = k
            while futures:
                done, _ = wait(futures, return_when=FIRST_COMPLETED)
                for fut in done:
                    exc = fut.exception()
                    if isinstance(exc, BrokenProcessPool):
                        raise exc
                    k = futures.pop(fut)
                    left.discard(k)
                    on_done(k, fut.result)
            return
        except BrokenProcessPool:
            shutdown_pool()
            if attempt:
                raise
        finally:
            for fut in futures:
                fut.cancel()


# --------------------------------------------------------------------- #
# The runner
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class PointSpec:
    """One labelled sweep point."""

    label: str
    config: SystemConfig
    #: lifetime engine for this point ("des" or "bulk").
    engine: str = "des"


class SweepRunner:
    """Executes labelled sweep points over a persistent process pool.

    Parameters
    ----------
    n_jobs:
        ``None``/1 runs serially in-process; 0 uses all cores; ``k`` uses
        ``k`` worker processes.  Aggregates are bit-identical either way.
    bench_path:
        Must be ``None`` (any other value raises ``TypeError``): the
        runner writes no performance file.
    telemetry:
        A :class:`~repro.telemetry.handle.TelemetryConfig` (or ``True``
        for the defaults) enables in-sim telemetry on every lifetime;
        per-point snapshots are merged in run-index order onto
        :attr:`MonteCarloResult.telemetry`, bit-identical however many
        workers executed the runs.
    telemetry_path:
        Append one ``repro.telemetry.v1`` JSONL record per point after
        each :meth:`run_points` invocation (implies ``telemetry=True``
        when no config was given).  Defaults to ``REPRO_TELEMETRY_PATH``
        when that is set (the CLI's ``--telemetry`` flag); pass ``""``
        to disable explicitly.
    """

    def __init__(self, n_jobs: int | None = None,
                 bench_path: None = None,
                 telemetry: TelemetryConfig | bool | None = None,
                 telemetry_path: str | Path | None = None) -> None:
        # Kept only for bench/sims.py and bench/service_mix.py, which
        # pass bench_path=None.
        if bench_path is not None:
            raise TypeError(f"bench_path must be None, got {bench_path!r}: "
                            f"the sweep runner writes no performance file")
        self.n_jobs = n_jobs
        self.workers = resolve_workers(n_jobs)
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
        # but last_record and the telemetry writer are not.
        self._run_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    def run_points(self, points: Sequence[PointSpec], n_runs: int,
                   base_seed: int = 0, sweep_name: str = "sweep",
                   on_error: str = "raise") -> list[MonteCarloResult]:
        """Run ``n_runs`` lifetimes for every point; aggregate streamingly.

        Every point uses the same ``base_seed`` (hence the same per-run
        seed schedule), exactly like back-to-back ``estimate_p_loss``
        calls; results come back in point order.

        ``on_error="skip"`` drops a task that raises (its runs counted on
        :attr:`MonteCarloResult.runs_failed`) instead of propagating; the
        surviving runs still fold in run-index order, so the aggregate
        stays order-stable.  For a bulk point the drop is chunk-granular:
        every run of the chunk containing the failing lifetime is
        skipped.  A dead worker process fails no run: its pool's
        unfolded tasks rerun on a fresh pool, once.
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
            if p.engine == "bulk" and self.telemetry is not None:
                raise ValueError(
                    f"point {p.label!r}: the bulk engine is event-free "
                    f"and cannot drive telemetry probes; disable "
                    f"telemetry or use engine='des'")
        t0 = _WALL_CLOCK()
        seeds = seed_schedule(base_seed, n_runs)
        results = [MonteCarloResult(label=p.label, config=p.config,
                                    n_runs=n_runs, engine=p.engine)
                   for p in points]
        tasks: list[_Task] = []
        for k, p in enumerate(points):
            step = _BULK_CHUNK if p.engine == "bulk" else 1
            tasks += [_Task(k, lo, p.config, tuple(seeds[lo:lo + step]),
                            p.engine, self.telemetry)
                      for lo in range(0, n_runs, step)]
        # Per-point reorder buffers: fold strictly in run-index order so
        # float reductions (and telemetry merges) are bit-identical
        # however many workers ran the tasks.  ``None`` marks a run
        # skipped because its task raised.
        buffers: list[dict[int, _RunResult | None]] = [{} for _ in points]
        next_index = [0] * len(points)

        def fold(k: int, result: Callable[[], list[_RunResult]]) -> None:
            task = tasks[k]
            try:
                runs: list[_RunResult | None] = result()
            except Exception:
                if on_error != "skip":
                    raise
                runs = [None] * len(task.seeds)
            p = task.point
            out, buffer = results[p], buffers[p]
            buffer.update(enumerate(runs, task.start))
            while next_index[p] in buffer:
                run = buffer.pop(next_index[p])
                next_index[p] += 1
                if run is None:
                    out.runs_failed += 1
                    continue
                stats, events, secs, snapshot = run
                out.aggregate.fold(stats, events, secs)
                if snapshot is not None:
                    if out.telemetry is None:
                        out.telemetry = empty_snapshot()
                    merge_into(out.telemetry, snapshot)
            if next_index[p] == n_runs:
                out.completed_at_s = _WALL_CLOCK() - t0

        _drain(self.workers, [(_run_task, task) for task in tasks], fold)
        wall = _WALL_CLOCK() - t0
        self.last_record = self._record(sweep_name, results, n_runs, wall)
        self._write_telemetry(sweep_name, results)
        return results

    async def run_points_async(self, points: Sequence[PointSpec],
                               n_runs: int, base_seed: int = 0,
                               sweep_name: str = "sweep",
                               on_error: str = "raise"
                               ) -> list[MonteCarloResult]:
        """:meth:`run_points` off the event loop.

        The forecast service (:mod:`repro.service`) answers HTTP requests
        from an asyncio loop but live estimation is CPU-bound blocking
        work; this awaitable runs it on a worker thread (the process pool
        underneath is thread-safe) so the loop keeps serving while
        lifetimes execute.  Concurrent invocations on one runner are
        serialized by an internal lock — the math is per-call, but
        ``last_record`` and the telemetry sink are not — and the determinism
        guarantee is untouched: same points, seed, and schedule as the
        synchronous path, bit for bit.
        """
        def _locked() -> list[MonteCarloResult]:
            with self._run_lock:
                return self.run_points(points, n_runs, base_seed=base_seed,
                                       sweep_name=sweep_name,
                                       on_error=on_error)
        return await asyncio.to_thread(_locked)

    def map_tasks(self, fn: Callable[[Any], Any],
                  items: Iterable[Any]) -> list[Any]:
        """Ordered map over picklable items, on the shared pool when
        parallel (used by scenario-style experiment drivers)."""
        items = list(items)
        results: list[Any] = [None] * len(items)

        def keep(k: int, result: Callable[[], Any]) -> None:
            results[k] = result()

        _drain(self.workers, [(fn, item) for item in items], keep)
        return results

    # ------------------------------------------------------------------ #
    def _record(self, sweep_name: str, outcomes: list[MonteCarloResult],
                n_runs: int, wall: float) -> dict[str, Any]:
        total_runs = n_runs * len(outcomes)
        events = sum(o.aggregate.events_fired for o in outcomes)
        return {
            "sweep": sweep_name,
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
                    "engine": o.engine,
                    "losses": o.aggregate.losses,
                    "events_fired": o.aggregate.events_fired,
                    "run_seconds_total": o.aggregate.run_seconds_total,
                    "completed_at_s": o.completed_at_s,
                }
                for o in outcomes
            ],
        }

    def _write_telemetry(self, sweep_name: str,
                         outcomes: list[MonteCarloResult]) -> None:
        if self.telemetry_path is None:
            return
        for o in outcomes:
            if o.telemetry is None:
                continue
            append_jsonl(self.telemetry_path, o.telemetry,
                         sweep=sweep_name, point=o.label,
                         n_runs=o.aggregate.n_runs,
                         runs_failed=o.runs_failed)
