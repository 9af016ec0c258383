"""Tests for the persistent-pool sweep runner (repro.reliability.runner)."""

import dataclasses
import os
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

from repro.__main__ import result_mismatches
from repro.config import SystemConfig
from repro.reliability import (MonteCarloResult, PointSpec,
                               ReliabilitySimulation, RunningMoments,
                               StatsAggregate, SweepRunner, estimate_p_loss,
                               seed_schedule, shutdown_pool, sweep)
from repro.reliability import runner as runner_mod
from repro.sim.rng import stable_hash64
from repro.units import GB, TB


def tiny():
    return SystemConfig(total_user_bytes=10 * TB, group_user_bytes=10 * GB)


def points():
    return [PointSpec("farm", tiny()),
            PointSpec("trad", tiny().with_(use_farm=False)),
            PointSpec("slow", tiny().with_(detection_latency=600.0))]


@pytest.fixture(autouse=True)
def _pool_cleanup():
    yield
    shutdown_pool()


class TestSeedSchedule:
    def test_matches_historical_schedule(self):
        """The parallel runner must use the exact per-run seeds the serial
        Monte-Carlo loop always used, or results silently change."""
        assert seed_schedule(7, 3) == [
            stable_hash64(7, "mc-run", i) % (2 ** 62) for i in range(3)]

    def test_same_for_every_point(self):
        a = seed_schedule(0, 4)
        assert a == seed_schedule(0, 4)
        assert a != seed_schedule(1, 4)


class TestRunningMoments:
    def test_matches_two_pass_statistics(self):
        xs = [3.0, 1.5, 4.25, 0.0, 2.5, 2.5]
        m = RunningMoments()
        for x in xs:
            m.add(x)
        mean = sum(xs) / len(xs)
        var = sum((x - mean) ** 2 for x in xs) / len(xs)
        assert m.count == len(xs)
        assert m.mean == pytest.approx(mean)
        assert m.variance == pytest.approx(var)
        assert m.std == pytest.approx(var ** 0.5)

    def test_degenerate_counts(self):
        m = RunningMoments()
        assert m.variance == 0.0
        m.add(5.0)
        assert m.mean == 5.0 and m.variance == 0.0


def reference(config, n_runs, base_seed=0):
    """``n_runs`` lifetimes run one by one, outside the runner, on the
    runner's seed schedule, and folded into one result."""
    agg = StatsAggregate()
    for seed in seed_schedule(base_seed, n_runs):
        sim = ReliabilitySimulation(config, seed=seed)
        agg.fold(sim.run(), sim.sim.events_fired)
    return MonteCarloResult("reference", config, n_runs, aggregate=agg)


class TestBitIdentity:
    """The tentpole guarantee: parallel == serial, bit for bit."""

    def test_parallel_aggregates_bit_identical(self):
        serial = SweepRunner(n_jobs=None).run_points(points(), n_runs=5,
                                                     base_seed=2)
        parallel = SweepRunner(n_jobs=2).run_points(points(), n_runs=5,
                                                    base_seed=2)
        for s, p in zip(serial, parallel):
            # float fields: exact equality, not approx — the reorder
            # buffer folds in run-index order
            assert s.label == p.label
            assert result_mismatches(s.label, s, p) == []

    def test_sweep_entrypoint_bit_identical(self):
        cfgs = {p.label: p.config for p in points()}
        serial = sweep(cfgs, n_runs=4, base_seed=1, n_jobs=None)
        parallel = sweep(cfgs, n_runs=4, base_seed=1, n_jobs=2)
        for label in cfgs:
            s, p = serial[label], parallel[label]
            assert result_mismatches(label, s, p) == []
            assert s.p_loss == p.p_loss

    def test_matches_per_point_estimates(self):
        """One sweep == independent estimate_p_loss calls per point."""
        cfgs = {p.label: p.config for p in points()}
        swept = sweep(cfgs, n_runs=3, base_seed=5)
        for label, cfg in cfgs.items():
            solo = estimate_p_loss(cfg, n_runs=3, base_seed=5)
            assert result_mismatches(label, swept[label], solo) == []


class TestStreamingAggregation:
    def test_aggregate_matches_independent_runs(self):
        [out] = SweepRunner().run_points([points()[0]], n_runs=5)
        ref = reference(points()[0].config, 5)
        assert result_mismatches(out.label, out, ref) == []
        assert out.aggregate.window_moments.count == 5

    def test_parallel_aggregate_matches_independent_runs(self):
        """Parallel runs fold in run-index order: the Welford moments,
        which depend on that order, match one-by-one runs exactly."""
        [par] = SweepRunner(n_jobs=2).run_points([points()[1]], n_runs=4,
                                                 base_seed=3)
        ref = reference(points()[1].config, 4, base_seed=3)
        assert result_mismatches(par.label, par, ref) == []

    def test_mean_window_property(self):
        [out] = SweepRunner().run_points([points()[0]], n_runs=3)
        agg = out.aggregate
        if agg.rebuilds_completed:
            assert agg.mean_window == \
                agg.window_total / agg.rebuilds_completed


class TestBenchRecord:
    """``last_record`` is a sweep's perf summary, kept in memory only."""

    def test_record_schema(self):
        runner = SweepRunner(n_jobs=None)
        runner.run_points(points(), n_runs=2, sweep_name="unit-test")
        record = runner.last_record
        assert record["sweep"] == "unit-test"
        assert record["engines"] == ["des"]
        assert record["n_points"] == 3
        assert record["n_runs_per_point"] == 2
        assert record["total_runs"] == 6
        assert record["wall_time_s"] > 0
        assert record["runs_per_s"] > 0
        assert len(record["points"]) == 3
        assert record["events_fired"] == sum(
            pt["events_fired"] for pt in record["points"])
        for pt in record["points"]:
            assert set(pt) == {"label", "n_runs", "runs_failed", "engine",
                               "losses", "events_fired",
                               "run_seconds_total", "completed_at_s"}
            assert pt["n_runs"] == 2
            assert pt["events_fired"] > 0
            assert pt["run_seconds_total"] > 0
            assert pt["completed_at_s"] > 0
        assert not {"schema", "timestamp", "run_id"} & set(record)

    def test_bench_path_must_be_none(self):
        for path in ("perf.json", Path("perf.json"), ""):
            with pytest.raises(TypeError, match="bench_path must be None"):
                SweepRunner(bench_path=path)


class TestPoolSharing:
    def test_pool_persists_across_sweeps(self):
        r = SweepRunner(n_jobs=2)
        r.run_points(points()[:1], n_runs=2)
        first = runner_mod._POOL
        assert first is not None
        r.run_points(points()[:2], n_runs=2)
        assert runner_mod._POOL is first    # same executor, no rebuild

    def test_pool_rebuilt_on_size_change(self):
        SweepRunner(n_jobs=2).run_points(points()[:1], n_runs=2)
        first = runner_mod._POOL
        SweepRunner(n_jobs=3).run_points(points()[:1], n_runs=2)
        assert runner_mod._POOL is not first
        assert runner_mod._POOL_WORKERS == 3

    def test_shutdown_pool(self):
        SweepRunner(n_jobs=2).run_points(points()[:1], n_runs=2)
        shutdown_pool()
        assert runner_mod._POOL is None


class TestMapTasks:
    def test_order_preserved(self):
        r = SweepRunner(n_jobs=2)
        assert r.map_tasks(_double, [3, 1, 2]) == [6, 2, 4]

    def test_serial_fallback(self):
        r = SweepRunner(n_jobs=None)
        assert r.map_tasks(_double, [5]) == [10]


def _double(x):
    return 2 * x


#: ``flag`` is the file that marks the worker-killing wrappers below as
#: having killed once; ``None`` makes them kill every time.  Forked
#: workers see the value it had when the pool started.
_KILL = {"flag": None}
_run_task = runner_mod._run_task


def _kill_worker(point, first_run):
    """Exit the calling worker process at point 1's first task."""
    if (point, first_run) != (1, 0):
        return
    flag = _KILL["flag"]
    if flag is not None:
        if flag.exists():
            return
        flag.touch()
    os._exit(1)


def _killing_task(task):
    _kill_worker(task.point, task.start)
    return _run_task(task)


def _exit_on_one(x):
    if x == 1:
        os._exit(1)
    return 2 * x


class TestDeadWorker:
    """A worker that dies breaks only the sweep it was running."""

    @pytest.fixture
    def kill(self, monkeypatch):
        """Make point 1's first pool task kill its worker (fresh pool)."""
        shutdown_pool()

        def arm(flag):
            monkeypatch.setitem(_KILL, "flag", flag)
            monkeypatch.setattr(runner_mod, "_run_task", _killing_task)
        return arm

    @pytest.mark.parametrize("engine,n_runs", [("des", 5), ("bulk", 70)])
    def test_killed_once_mid_sweep_bit_identical(self, kill, tmp_path,
                                                 engine, n_runs):
        pts = [dataclasses.replace(p, engine=engine) for p in points()]
        serial = SweepRunner(n_jobs=None).run_points(pts, n_runs,
                                                     base_seed=2)
        kill(tmp_path / "died")
        parallel = SweepRunner(n_jobs=2).run_points(pts, n_runs,
                                                    base_seed=2,
                                                    on_error="skip")
        assert (tmp_path / "died").exists()         # a worker did die
        for s, p in zip(serial, parallel):
            assert s.label == p.label
            assert result_mismatches(s.label, s, p) == []
            assert p.runs_failed == 0

    def test_task_killing_every_worker_raises_once(self, kill,
                                                   monkeypatch):
        runner = SweepRunner(n_jobs=2)
        with pytest.raises(BrokenProcessPool):
            runner.map_tasks(_exit_on_one, [0, 1, 2])
        kill(None)
        with pytest.raises(BrokenProcessPool):
            runner.run_points(points(), n_runs=2, on_error="skip")
        monkeypatch.undo()
        # The next calls get a working pool.
        bulk = dataclasses.replace(points()[0], engine="bulk")
        for point in (bulk, points()[0]):
            [out] = runner.run_points([point], n_runs=3)
            assert out.aggregate.n_runs == 3 and out.runs_failed == 0


class TestValidation:
    def test_rejects_zero_runs(self):
        with pytest.raises(ValueError):
            SweepRunner().run_points(points(), n_runs=0)

    def test_rejects_empty_points(self):
        with pytest.raises(ValueError):
            SweepRunner().run_points([], n_runs=1)

    def test_rejects_negative_jobs(self):
        with pytest.raises(ValueError):
            SweepRunner(n_jobs=-2)

    def test_estimate_returns_result_type(self):
        r = estimate_p_loss(tiny(), n_runs=2)
        assert isinstance(r, MonteCarloResult)
        assert r.aggregate is not None
