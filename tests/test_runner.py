"""Tests for the persistent-pool sweep runner (repro.reliability.runner)."""

import json
from pathlib import Path

import pytest

from repro.config import SystemConfig
from repro.reliability import (MonteCarloResult, PointSpec, RunningMoments,
                               SweepRunner, estimate_p_loss, seed_schedule,
                               shutdown_pool, sweep)
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


class TestBitIdentity:
    """The tentpole guarantee: parallel == serial, bit for bit."""

    def test_parallel_aggregates_bit_identical(self):
        serial = SweepRunner(n_jobs=None).run_points(points(), n_runs=5,
                                                     base_seed=2)
        parallel = SweepRunner(n_jobs=2).run_points(points(), n_runs=5,
                                                    base_seed=2)
        for s, p in zip(serial, parallel):
            assert s.label == p.label
            sa, pa = s.aggregate, p.aggregate
            assert sa.losses == pa.losses
            assert sa.disk_failures == pa.disk_failures
            assert sa.groups_lost == pa.groups_lost
            # float fields: exact equality, not approx — the reorder
            # buffer folds in run-index order
            assert sa.window_total == pa.window_total
            assert sa.window_max == pa.window_max
            assert sa.bytes_lost == pa.bytes_lost
            assert sa.window_moments.mean == pa.window_moments.mean
            assert sa.window_moments.m2 == pa.window_moments.m2
            assert sa.failure_moments.m2 == pa.failure_moments.m2
            assert sa.events_fired == pa.events_fired

    def test_sweep_entrypoint_bit_identical(self):
        cfgs = {p.label: p.config for p in points()}
        serial = sweep(cfgs, n_runs=4, base_seed=1, n_jobs=None,
                       bench_path=None)
        parallel = sweep(cfgs, n_runs=4, base_seed=1, n_jobs=2,
                         bench_path=None)
        for label in cfgs:
            s, p = serial[label], parallel[label]
            assert s.losses == p.losses
            assert s.p_loss == p.p_loss
            assert s.mean_window == p.mean_window
            assert s.max_window == p.max_window
            assert s.disk_failures_total == p.disk_failures_total
            assert s.redirections_total == p.redirections_total

    def test_matches_per_point_estimates(self):
        """One sweep == independent estimate_p_loss calls per point."""
        cfgs = {p.label: p.config for p in points()}
        swept = sweep(cfgs, n_runs=3, base_seed=5, bench_path=None)
        for label, cfg in cfgs.items():
            solo = estimate_p_loss(cfg, n_runs=3, base_seed=5)
            assert swept[label].losses == solo.losses
            assert swept[label].mean_window == solo.mean_window
            assert swept[label].disk_failures_total == \
                solo.disk_failures_total


class TestStreamingAggregation:
    def test_run_stats_not_retained_by_default(self):
        [out] = SweepRunner().run_points([points()[0]], n_runs=4)
        assert out.run_stats == []
        assert out.aggregate.n_runs == 4

    def test_keep_run_stats_matches_aggregate(self):
        [out] = SweepRunner().run_points([points()[0]], n_runs=5,
                                         keep_run_stats=True)
        stats = out.run_stats
        assert len(stats) == 5
        agg = out.aggregate
        assert agg.losses == sum(1 for s in stats if s.any_loss)
        assert agg.disk_failures == sum(s.disk_failures for s in stats)
        assert agg.window_total == pytest.approx(
            sum(s.window_total for s in stats))
        assert agg.window_max == max(s.window_max for s in stats)
        assert agg.window_moments.count == 5

    def test_keep_run_stats_order_parallel(self):
        """Kept stats come back in run-index order even when parallel."""
        [ser] = SweepRunner(n_jobs=None).run_points(
            [points()[0]], n_runs=4, keep_run_stats=True)
        [par] = SweepRunner(n_jobs=2).run_points(
            [points()[0]], n_runs=4, keep_run_stats=True)
        assert [s.disk_failures for s in ser.run_stats] == \
            [s.disk_failures for s in par.run_stats]

    def test_mean_window_property(self):
        [out] = SweepRunner().run_points([points()[0]], n_runs=3)
        agg = out.aggregate
        if agg.rebuilds_completed:
            assert agg.mean_window == \
                agg.window_total / agg.rebuilds_completed


class TestBenchRecord:
    def test_record_schema(self, tmp_path):
        path = tmp_path / "BENCH_sweep.json"
        runner = SweepRunner(n_jobs=None, bench_path=path)
        runner.run_points(points(), n_runs=2, sweep_name="unit-test")
        [record] = runner_mod.read_bench_records(path)
        assert record["schema"] == runner_mod.BENCH_SCHEMA
        assert record["sweep"] == "unit-test"
        assert record["n_points"] == 3
        assert record["n_runs_per_point"] == 2
        assert record["total_runs"] == 6
        assert record["wall_time_s"] > 0
        assert record["events_fired"] > 0
        assert record["runs_per_s"] > 0
        assert len(record["points"]) == 3
        for pt in record["points"]:
            assert pt["n_runs"] == 2
            assert pt["events_fired"] > 0
            assert pt["run_seconds_total"] > 0
            assert pt["completed_at_s"] > 0

    def test_no_record_without_path(self):
        runner = SweepRunner(n_jobs=None, bench_path=None)
        runner.run_points(points()[:1], n_runs=2)
        assert runner.last_record is not None    # kept in memory regardless
        assert runner.bench_path is None

    def test_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_PATH", str(tmp_path / "b.json"))
        assert runner_mod.default_bench_path() == tmp_path / "b.json"
        monkeypatch.setenv("REPRO_BENCH_PATH", "")
        assert runner_mod.default_bench_path() is None
        monkeypatch.delenv("REPRO_BENCH_PATH")
        assert runner_mod.default_bench_path() == \
            runner_mod.DEFAULT_BENCH_PATH


class TestBenchHistory:
    """The BENCH file is an append-only bounded history, not a single
    record: every sweep adds to it and regression guards diff against
    older entries, so overwriting would erase the baseline."""

    def test_appends_across_sweeps(self, tmp_path):
        path = tmp_path / "BENCH_sweep.json"
        runner = SweepRunner(n_jobs=None, bench_path=path)
        runner.run_points(points()[:1], n_runs=2, sweep_name="first")
        runner.run_points(points()[:1], n_runs=2, sweep_name="second")
        records = runner_mod.read_bench_records(path)
        assert [r["sweep"] for r in records] == ["first", "second"]

    def test_history_is_bounded(self, tmp_path):
        path = tmp_path / "b.json"
        for i in range(runner_mod.BENCH_HISTORY_LIMIT + 5):
            runner_mod.append_bench_record(
                path, {"schema": runner_mod.BENCH_SCHEMA, "i": i})
        records = runner_mod.read_bench_records(path)
        assert len(records) == runner_mod.BENCH_HISTORY_LIMIT
        assert records[-1]["i"] == runner_mod.BENCH_HISTORY_LIMIT + 4
        assert records[0]["i"] == 5            # oldest dropped first

    def test_history_retained_per_series(self, tmp_path):
        """Past the limit the largest series gives up its oldest record;
        the sparse series the guard compares are never evicted."""
        path = tmp_path / "b.json"
        sparse = ("bulk-sweep", "service-bench", "availability")
        records = [{"schema": runner_mod.BENCH_SCHEMA, "sweep": "figure3a",
                    "i": i} for i in range(197)]
        records[50:50] = [{"schema": runner_mod.BENCH_SCHEMA, "sweep": s}
                          for s in sparse]
        path.write_text(json.dumps({"schema": runner_mod.BENCH_LOG_SCHEMA,
                                    "records": records}))
        assert len(records) == runner_mod.BENCH_HISTORY_LIMIT
        for i in range(197, 197 + 60):
            runner_mod.append_bench_record(
                path, {"schema": runner_mod.BENCH_SCHEMA,
                       "sweep": "figure3a", "i": i})
        kept = runner_mod.read_bench_records(path)
        assert len(kept) == runner_mod.BENCH_HISTORY_LIMIT
        assert [r["sweep"] for r in kept if r["sweep"] in sparse] == \
            list(sparse)
        figure3a = [r["i"] for r in kept if r["sweep"] == "figure3a"]
        assert figure3a == list(range(60, 257))    # oldest dropped first

    def test_absorbs_legacy_bare_record(self, tmp_path):
        """A pre-history file holding one bare v1 record becomes the
        first entry of the container instead of being clobbered."""
        path = tmp_path / "b.json"
        legacy = {"schema": runner_mod.BENCH_SCHEMA, "sweep": "old"}
        path.write_text(json.dumps(legacy))
        runner_mod.append_bench_record(
            path, {"schema": runner_mod.BENCH_SCHEMA, "sweep": "new"})
        records = runner_mod.read_bench_records(path)
        assert [r["sweep"] for r in records] == ["old", "new"]
        data = json.loads(path.read_text())
        assert data["schema"] == runner_mod.BENCH_LOG_SCHEMA

    def test_malformed_file_reads_empty(self, tmp_path):
        path = tmp_path / "b.json"
        path.write_text("{not json")
        assert runner_mod.read_bench_records(path) == []

    def test_latest_record_filters_by_sweep(self, tmp_path):
        path = tmp_path / "b.json"
        for name in ("a", "b", "a"):
            runner_mod.append_bench_record(
                path, {"schema": runner_mod.BENCH_SCHEMA, "sweep": name})
        latest = runner_mod.latest_bench_record(path, sweep="b")
        assert latest is not None and latest["sweep"] == "b"
        assert runner_mod.latest_bench_record(path)["sweep"] == "a"
        assert runner_mod.latest_bench_record(path, sweep="zzz") is None

    def test_run_id_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_ID", "build-42")
        assert runner_mod.bench_run_id() == "build-42"
        monkeypatch.setenv("REPRO_BENCH_TIMESTAMP", "1234.5")
        assert runner_mod.bench_timestamp() == 1234.5

    def test_unreadable_git_gives_a_signal_run_id(self, tmp_path,
                                                  monkeypatch):
        (tmp_path / ".git").mkdir()
        (tmp_path / ".git" / "HEAD").write_text("ref: refs/heads/main\n")

        def unreadable(self, *args, **kwargs):
            raise PermissionError(f"cannot read {self}")

        monkeypatch.setattr(Path, "read_text", unreadable)
        monkeypatch.delenv("REPRO_BENCH_ID", raising=False)
        monkeypatch.chdir(tmp_path)
        assert runner_mod._git_head_sha(tmp_path) == \
            runner_mod.GIT_UNREADABLE
        assert runner_mod.bench_run_id() == runner_mod.GIT_UNREADABLE

    def test_records_carry_identity_and_engines(self, tmp_path):
        path = tmp_path / "BENCH_sweep.json"
        runner = SweepRunner(n_jobs=None, bench_path=path)
        runner.run_points(points()[:1], n_runs=2, sweep_name="ids")
        [record] = runner_mod.read_bench_records(path)
        assert "timestamp" in record and "run_id" in record
        assert record["engines"] == ["des"]


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
