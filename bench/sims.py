"""The sweep workloads: ``des-fig3a``, ``des-lazy`` and ``bulk-fig5``.

Each pass runs every grid point once, as its own
``SweepRunner.run_points`` call timed from outside and followed by one
reference-kernel sample (:mod:`bench.reference`) that scales it, so one
slow moment on a shared host spoils one point of one pass rather than a
whole pass.  A point's time is the median over passes, and throughput
is a pass's work over the sum of those medians.  Work is counted in DES
events (lifetimes differ in cost from seed to seed by more than any
bound worth enforcing, their events by the same share) and in bulk
lifetimes.  Every pass of a seed must reproduce the same per-point
counters exactly, so for one seed events per second and lifetimes per
second move together.
"""

from __future__ import annotations

import pickle
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

from repro.config import SystemConfig
from repro.experiments import figure5
from repro.experiments.availability_sweep import (REPAIR_FRACTIONS,
                                                  THRESHOLDS, grid_config)
from repro.experiments.base import SCALES
from repro.redundancy.schemes import PAPER_SCHEMES
from repro.reliability import bulk as bulk_module
from repro.reliability import runner as runner_module
from repro.reliability.runner import (PointSpec, SweepRunner, seed_schedule,
                                      shutdown_pool)
from repro.reliability.simulation import ReliabilitySimulation
from repro.sim.engine import Simulator
from repro.units import GB

from . import reference
from .stats import nearest_rank
from .trace import EventClock, Tracer, root_wall, self_times

#: DES event names reported as per-layer metrics.
EVENT_NAMES = ("disk-failure", "detect", "rebuild", "redirect",
               "rebuild-retry")

#: ``StatsAggregate`` counters reported as per-layer invariants.
COUNTERS = ("target_redirections", "rebuilds_deferred", "retries",
            "rebuilds_held", "unavail_spans")

#: Runs per bulk pool task; the bulk replay times ``run_bulk_batch`` on
#: exactly the chunks the runner submits.
BULK_CHUNK = runner_module._BULK_CHUNK


@dataclass(frozen=True)
class SweepSpec:
    points: tuple[PointSpec, ...]
    #: lifetimes per point per pass
    runs: int
    #: ``SweepRunner(n_jobs=...)``
    jobs: int | None


def fig3a_spec(quick: bool) -> SweepSpec:
    """Figure 3(a): six schemes x FARM/traditional, 10 GB groups, zero
    detection latency, 100 TB (20 TB quick)."""
    base = SCALES["smoke"].size_config(SystemConfig(
        group_user_bytes=10 * GB, detection_latency=0.0))
    if quick:
        base = base.with_(total_user_bytes=base.total_user_bytes / 5)
    points = tuple(
        PointSpec(f"{s.name}|{'FARM' if farm else 'w/o'}",
                  base.with_(scheme=s, use_farm=farm))
        for s in PAPER_SCHEMES for farm in (True, False))
    return SweepSpec(points, runs=1 if quick else 4, jobs=None)


def lazy_spec(quick: bool) -> SweepSpec:
    """The availability grid: 4-of-6, constant hazard, recovery threshold
    x repair-lane fraction, 50 TB (10 TB quick)."""
    scale = SCALES["smoke" if quick else "small"]
    points = tuple(PointSpec(f"r={r} bw={f:g}", grid_config(scale, r, f))
                   for r in THRESHOLDS for f in REPAIR_FRACTIONS)
    return SweepSpec(points, runs=1 if quick else 4, jobs=None)


def bulk_spec(quick: bool) -> SweepSpec:
    """The figure-5 grid on the bulk engine, 2 PB (100 TB quick)."""
    grid = figure5.grid(SCALES["smoke" if quick else "paper"])
    points = tuple(PointSpec(label, cfg, engine="bulk")
                   for label, cfg in grid.items())
    return SweepSpec(points, runs=BULK_CHUNK if quick else 256, jobs=2)


SPECS = {"des-fig3a": fig3a_spec, "des-lazy": lazy_spec,
         "bulk-fig5": bulk_spec}


def signature(outcome) -> list[int]:
    """The per-point invariant pinned for seed 0."""
    a = outcome.aggregate
    return [a.events_fired, a.losses, a.groups_lost, a.rebuilds_completed]


@contextmanager
def patched(module, name: str, value):
    old = getattr(module, name)
    setattr(module, name, value)
    try:
        yield
    finally:
        setattr(module, name, old)


def traced_simulation(tracer: Tracer, clock: EventClock) -> type:
    """A ``ReliabilitySimulation`` that records build/run spans and runs
    on a fresh public ``Simulator(trace=clock.tick)``."""

    class TracedSimulator(Simulator):
        def run(self, until=None, max_events=None) -> None:
            with tracer.span("sim.engine.run") as span:
                try:
                    super().run(until, max_events)
                finally:
                    span.covered = clock.stop()

    class TracedReliabilitySimulation(ReliabilitySimulation):
        def __init__(self, *args, **kwargs) -> None:
            with tracer.span("reliability.simulation.build"):
                super().__init__(*args, **kwargs)
            if any(True for _ in self.sim.pending()):
                raise RuntimeError("construction scheduled events that a "
                                   "swapped-in Simulator would lose")
            self.sim = TracedSimulator(trace=clock.tick)

        def run(self):
            with tracer.span("reliability.simulation.run"):
                return super().run()

    return TracedReliabilitySimulation


class SweepWorkload:
    def __init__(self, name: str, seed: int, seconds: float, quick: bool,
                 pins: dict | None) -> None:
        self.name = name
        self.spec = SPECS[name](quick)
        self.seed = seed
        self.seconds = seconds
        self.pins = pins
        self.runner: SweepRunner | None = None
        #: the latest reference-kernel sample (see :meth:`_scale`)
        self._kernel_s = 0.0

    @property
    def counts_events(self) -> bool:
        """DES work is counted in events, bulk work in lifetimes."""
        return self.spec.points[0].engine == "des"

    @property
    def lifetimes_per_pass(self) -> int:
        return self.spec.runs * len(self.spec.points)

    def setup(self) -> None:
        self.runner = SweepRunner(n_jobs=self.spec.jobs, bench_path=None,
                                  telemetry_path="")
        if self.spec.jobs:
            # Boot the pool and warm its workers: one chunk per point.
            self.runner.run_points(self.spec.points, BULK_CHUNK,
                                   base_seed=self.point_seed(0))
        else:
            ReliabilitySimulation(self.spec.points[0].config,
                                  seed=self.point_seed(0))
        self._kernel_s = reference.kernel_seconds()

    def close(self) -> None:
        if self.spec.jobs:
            shutdown_pool()

    def point_seed(self, k: int) -> int:
        """Base seed of point ``k``: each point draws its own lifetimes,
        so a pass holds as many independent lifetimes as it runs and
        its work varies little from seed to seed."""
        return self.seed * len(self.spec.points) + k

    def _call(self, k: int) -> tuple[float, object, dict]:
        t0 = time.perf_counter()
        [outcome] = self.runner.run_points(
            [self.spec.points[k]], self.spec.runs,
            base_seed=self.point_seed(k), sweep_name=self.name)
        return time.perf_counter() - t0, outcome, self.runner.last_record

    def _scale(self, wall: float) -> float:
        """``wall`` in reference-host seconds, judged by kernel samples
        taken just before and just after it."""
        after = reference.kernel_seconds()
        scaled = wall * reference.scale([self._kernel_s, after])
        self._kernel_s = after
        return scaled

    # ------------------------------------------------------------------ #
    def measure(self) -> dict:
        points = self.spec.points
        raw: dict[str, list[float]] = {p.label: [] for p in points}
        scaled: dict[str, list[float]] = {p.label: [] for p in points}
        sigs: dict[str, list] = {}
        agree = True
        attempted = failed = calls = 0
        t0 = time.perf_counter()
        while calls < len(points) or time.perf_counter() - t0 < self.seconds:
            k = calls % len(points)
            calls += 1
            wall, outcome, _ = self._call(k)
            label = points[k].label
            raw[label].append(wall)
            scaled[label].append(self._scale(wall))
            sig = signature(outcome)
            agree &= sigs.setdefault(label, sig) == sig
            attempted += self.spec.runs
            failed += outcome.runs_failed
        checks = {"passes reproduce per-point counters exactly": agree}
        checks.update(self._pin_checks(sigs))
        work = {label: sig[0] if self.counts_events else self.spec.runs
                for label, sig in sigs.items()}
        n = min(map(len, raw.values()))
        rate, median_ms, slowest_ms = summarize(scaled, work)
        raw_rate, raw_median_ms, _ = summarize(raw, work)
        unit = "event" if self.counts_events else "lifetime"
        return {
            "attempted": attempted, "failed": failed, "checks": checks,
            "metrics": {
                "throughput_per_s": {"value": rate, "raw": raw_rate, "n": n},
                "latency_ms": {"value": median_ms, "raw": raw_median_ms,
                               "n": n}},
            "detail": {"passes": calls / len(points), "work_unit": unit,
                       f"slowest point, ms per {unit}": slowest_ms,
                       "lifetimes_per_s": rate * self.lifetimes_per_pass
                       / sum(work.values()),
                       "signatures": sigs},
        }

    def _pin_checks(self, sigs: dict[str, list]) -> dict[str, bool]:
        if self.pins is None:
            return {}
        return {f"seed-0 pins: {self.pins['events']} events and "
                f"{self.pins['losses']} losses per pass, per-point (events, "
                f"losses, groups_lost, rebuilds_completed)":
                sigs == self.pins["points"]}

    # ------------------------------------------------------------------ #
    def trace(self) -> dict:
        """One untraced and one traced call per point, alternating which
        goes first, plus (bulk) an in-process replay of the chunks."""
        tracer = Tracer()
        clock = EventClock()
        traced_cls = traced_simulation(tracer, clock)
        traced_s = lifetime_s = 0.0
        # Per point: reference-scaled seconds untraced and traced.
        scaled: list[dict[bool, float]] = []
        same = True
        losses = 0
        counters = dict.fromkeys(COUNTERS, 0)
        events_fired = 0
        for k in range(len(self.spec.points)):
            results = {}
            scaled.append({})
            for traced in ((False, True) if k % 2 == 0 else (True, False)):
                if traced:
                    with patched(runner_module, "ReliabilitySimulation",
                                 traced_cls), \
                            tracer.span("reliability.runner.run_points"):
                        wall, results[traced], record = self._call(k)
                    traced_s += wall
                    lifetime_s += record["points"][0]["run_seconds_total"]
                else:
                    wall, results[traced], _ = self._call(k)
                scaled[k][traced] = self._scale(wall)
            outcome = results[True]
            same &= signature(outcome) == signature(results[False])
            losses += outcome.aggregate.losses
            events_fired += outcome.aggregate.events_fired
            for name in COUNTERS:
                counters[name] += getattr(outcome.aggregate, name)

        workers = self.runner.workers
        events = sum(c for c, _ in clock.buckets.values())
        event_s = sum(s for _, s in clock.buckets.values())
        layers = {
            "sim.engine.events": events,
            "sim.engine.us_per_event": 1e6 * event_s / events
            if events else 0.0,
            "reliability.runner.lifetime_s": lifetime_s,
            "reliability.runner.overhead_s": traced_s - lifetime_s / workers,
            "reliability.runner.busy_frac": lifetime_s / (traced_s * workers),
            "reliability.runner.losses": losses,
        }
        for name in EVENT_NAMES:
            count, secs = clock.buckets.get(name, (0, 0.0))
            layers[f"sim.engine.events.{name}"] = count
            layers[f"sim.engine.self_s.{name}"] = secs
        for name in COUNTERS:
            layers[f"reliability.simulation.{name}"] = counters[name]
        checks = {"traced calls reproduce untraced counters exactly": same,
                  "trace hook saw every fired event": events == events_fired}

        if self.spec.jobs:
            layers.update(self._tasks())
            replay_losses, batch_s = self._bulk_replay(tracer)
            layers.update(bulk_layers(batch_s, self.lifetimes_per_pass))
            checks["in-process bulk replay reproduces pool losses"] = \
                replay_losses == losses
        else:
            layers["reliability.runner.tasks"] = self.lifetimes_per_pass

        rows = self_times(tracer.spans, {f"sim.engine.{name}": bucket
                                         for name, bucket in
                                         clock.buckets.items()})
        for layer in ("build", "run"):
            row = rows.get(f"reliability.simulation.{layer}")
            layers[f"reliability.simulation.{layer}_s"] = \
                row["total_s"] if row else 0.0
        # The median point's slowdown: a shared host's slow spells spoil
        # a few points, not the estimate.
        layers["trace.overhead_frac"] = statistics.median(
            s[True] / s[False] for s in scaled) - 1.0
        lifetimes = self.lifetimes_per_pass
        return {
            "attempted": 2 * lifetimes, "failed": 0, "checks": checks,
            "layers": layers, "rows": rows, "wall_s": root_wall(tracer.spans),
            "spans": tracer.to_list(),
            "detail": {"untraced_lifetimes_per_s":
                       lifetimes / sum(s[False] for s in scaled),
                       "traced_lifetimes_per_s":
                       lifetimes / sum(s[True] for s in scaled)},
        }

    def _chunks(self):
        """``(config, seeds)`` of every pool task of a pass, in order."""
        for k, point in enumerate(self.spec.points):
            seeds = seed_schedule(self.point_seed(k), self.spec.runs)
            for lo in range(0, len(seeds), BULK_CHUNK):
                yield point.config, seeds[lo:lo + BULK_CHUNK]

    def _tasks(self) -> dict:
        """Pool tasks per pass and their computed pickled bytes."""
        chunks = [pickle.dumps((cfg, tuple(seeds)))
                  for cfg, seeds in self._chunks()]
        return {"reliability.runner.tasks": len(chunks),
                "reliability.runner.task_bytes": sum(map(len, chunks))}

    def _bulk_replay(self, tracer: Tracer) -> tuple[int, list[float]]:
        """``run_bulk_batch`` in-process on the runner's exact chunks;
        returns the losses and each batch's seconds."""
        batch_s = []
        losses = 0
        with tracer.span("reliability.bulk.replay"):
            for cfg, seeds in self._chunks():
                with tracer.span("reliability.bulk.run_bulk_batch") as span:
                    stats = bulk_module.run_bulk_batch(cfg, seeds)
                batch_s.append(span.duration)
                losses += sum(1 for st in stats if st.any_loss)
        return losses, batch_s


def summarize(samples: dict[str, list[float]], work: dict[str, int]
              ) -> tuple[float, float, float]:
    """Throughput (work per second), and the median and largest time per
    unit of work over points (ms), from each point's median over passes.
    """
    medians = {label: statistics.median(v) for label, v in samples.items()}
    per_unit = [medians[label] / work[label] for label in medians]
    return (sum(work.values()) / sum(medians.values()),
            1e3 * statistics.median(per_unit), 1e3 * max(per_unit))


def bulk_layers(batch_s: list[float], lifetimes: int) -> dict:
    """``reliability.bulk.*`` metrics from timed ``run_bulk_batch`` calls."""
    if not batch_s:
        return {}
    ordered = sorted(batch_s)
    return {"reliability.bulk.batch_ms.p50": 1e3 * nearest_rank(ordered, 50),
            "reliability.bulk.batch_ms.p90": 1e3 * nearest_rank(ordered, 90),
            "reliability.bulk.us_per_lifetime": 1e6 * sum(batch_s)
            / lifetimes}
