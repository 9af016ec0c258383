"""Tests for the telemetry subsystem (repro.telemetry).

Covers the metric primitives and snapshot merging, span tracking, the
exporters, probe gauges, and — most importantly — the acceptance
invariants the ISSUE pins:

* on the base (2 PB, 10 GB groups) FARM scenario, the sampled per-disk
  recovery bandwidth never exceeds the configured cap in any probe
  sample (equality allowed: the serial disk model rebuilds at the cap);
* span-derived window aggregates equal ``RecoveryStats`` window
  aggregates to float equality on both engines;
* serial and parallel sweeps merge to byte-identical snapshots;
* enabling telemetry does not change simulation results (probes are
  read-only).
"""

import copy
import io
import json
import math
import time
import timeit

import pytest

from repro.config import SystemConfig
from repro.faults import LatentSectorErrors, Scrubber, TransientOutages
from repro.reliability import ReliabilitySimulation, Scenario, sweep
from repro.reliability.runner import shutdown_pool
from repro.telemetry import (TELEMETRY_SCHEMA, ClusterProbes, Counter,
                             Gauge, Histogram, MetricRegistry, ProbeSample,
                             SpanTracker, Telemetry, TelemetryConfig,
                             append_jsonl, canonical_json,
                             default_telemetry_path, empty_snapshot,
                             log_bounds, merge_into, merge_snapshots,
                             read_jsonl, render_summary, snapshot_record,
                             to_prometheus, write_csv)
from repro.units import DAY, GB, HOUR, TB, YEAR


def tiny():
    return SystemConfig(total_user_bytes=10 * TB, group_user_bytes=10 * GB)


# --------------------------------------------------------------------- #
# Metric primitives
# --------------------------------------------------------------------- #
class TestLogBounds:
    def test_per_decade_density(self):
        bounds = log_bounds(1.0, 1000.0, per_decade=1)
        assert bounds == (1.0, 10.0, 100.0, 1000.0)

    def test_covers_hi(self):
        bounds = log_bounds(1.0, 50.0, per_decade=2)
        assert bounds[-1] >= 50.0
        assert bounds[0] == 1.0

    def test_pure_function(self):
        assert log_bounds(0.5, 200.0) == log_bounds(0.5, 200.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            log_bounds(0.0, 10.0)
        with pytest.raises(ValueError):
            log_bounds(10.0, 10.0)
        with pytest.raises(ValueError):
            log_bounds(1.0, 10.0, per_decade=0)


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        c = Counter("x_total")
        assert c.value == 0
        c.inc()
        c.inc(5)
        assert c.value == 6

    def test_int_increments_stay_int(self):
        c = Counter("x_total")
        c.inc(2)
        assert isinstance(c.value, int)

    def test_float_increments_allowed(self):
        c = Counter("x_seconds_total")
        c.inc(1.5)
        assert c.value == 1.5

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Counter("x_total").inc(-1)


class TestGauge:
    def test_sample_statistics(self):
        g = Gauge("x")
        for v in (3.0, 1.0, 2.0):
            g.set(v)
        assert g.last == 2.0
        assert g.vmin == 1.0 and g.vmax == 3.0
        assert g.total == 6.0 and g.samples == 3
        assert g.mean == 2.0

    def test_unset_gauge(self):
        g = Gauge("x")
        assert g.vmin is None and g.vmax is None
        assert g.mean == 0.0


class TestHistogram:
    def test_bucket_placement_le_semantics(self):
        h = Histogram("x", bounds=(1.0, 10.0, 100.0))
        for v in (0.5, 1.0, 5.0, 100.0, 101.0):
            h.observe(v)
        # counts[i] counts v <= bounds[i]; counts[-1] is +inf overflow.
        assert h.counts == [2, 1, 1, 1]
        assert h.count == 5
        assert h.total == pytest.approx(207.5)
        assert h.vmin == 0.5 and h.vmax == 101.0

    def test_mean(self):
        h = Histogram("x", bounds=(10.0,))
        h.observe(2.0)
        h.observe(4.0)
        assert h.mean == 3.0

    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            Histogram("x", bounds=())
        with pytest.raises(ValueError):
            Histogram("x", bounds=(10.0, 1.0))


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricRegistry()
        assert reg.counter("a_total") is reg.counter("a_total")
        assert len(reg) == 1

    def test_labels_distinguish_instruments(self):
        reg = MetricRegistry()
        a = reg.gauge("disks", labels={"state": "online"})
        b = reg.gauge("disks", labels={"state": "failed"})
        assert a is not b and len(reg) == 2

    def test_kind_conflict_raises(self):
        reg = MetricRegistry()
        reg.counter("a")
        with pytest.raises(TypeError):
            reg.gauge("a")

    def test_histogram_bounds_conflict_raises(self):
        reg = MetricRegistry()
        reg.histogram("h", bounds=(1.0, 2.0))
        with pytest.raises(ValueError):
            reg.histogram("h", bounds=(1.0, 3.0))

    def test_snapshot_keys_sorted(self):
        reg = MetricRegistry()
        reg.counter("z_total")
        reg.counter("a_total")
        snap = reg.snapshot()
        assert snap["schema"] == TELEMETRY_SCHEMA
        assert list(snap["metrics"]) == sorted(snap["metrics"])


# --------------------------------------------------------------------- #
# Snapshot merging
# --------------------------------------------------------------------- #
def _sample_registry(scale: int) -> MetricRegistry:
    reg = MetricRegistry()
    reg.counter("events_total").inc(scale)
    g = reg.gauge("depth")
    g.set(float(scale))
    g.set(float(scale * 2))
    h = reg.histogram("lat", bounds=(1.0, 10.0))
    h.observe(0.5 * scale)
    return reg


class TestMerge:
    def test_empty_is_neutral(self):
        snap = _sample_registry(3).snapshot()
        merged = merge_into(empty_snapshot(), copy.deepcopy(snap))
        assert canonical_json(merged) == canonical_json(snap)

    def test_counter_sums(self):
        merged = merge_snapshots([_sample_registry(1).snapshot(),
                                  _sample_registry(2).snapshot()])
        assert merged["metrics"]["events_total"]["value"] == 3

    def test_gauge_fields(self):
        merged = merge_snapshots([_sample_registry(1).snapshot(),
                                  _sample_registry(3).snapshot()])
        g = merged["metrics"]["depth"]
        assert g["last"] == 6.0         # last-folded run wins
        assert g["min"] == 1.0 and g["max"] == 6.0
        assert g["samples"] == 4 and g["sum"] == 12.0

    def test_histogram_elementwise(self):
        merged = merge_snapshots([_sample_registry(1).snapshot(),
                                  _sample_registry(30).snapshot()])
        h = merged["metrics"]["lat"]
        assert h["counts"] == [1, 0, 1]
        assert h["count"] == 2
        assert h["min"] == 0.5 and h["max"] == 15.0

    def test_associative_byte_identical(self):
        snaps = [_sample_registry(n).snapshot() for n in (1, 2, 3)]
        left = merge_into(merge_into(empty_snapshot(),
                                     copy.deepcopy(snaps[0])),
                          merge_snapshots(copy.deepcopy(snaps[1:])))
        right = merge_snapshots(copy.deepcopy(snaps))
        assert canonical_json(left) == canonical_json(right)

    def test_merge_does_not_alias_input(self):
        snap = _sample_registry(1).snapshot()
        acc = merge_into(empty_snapshot(), snap)
        acc["metrics"]["lat"]["counts"][0] += 99
        assert snap["metrics"]["lat"]["counts"][0] == 1

    def test_schema_mismatch_raises(self):
        with pytest.raises(ValueError):
            merge_into(empty_snapshot(), {"schema": "bogus", "metrics": {}})

    def test_kind_mismatch_raises(self):
        a = empty_snapshot()
        a["metrics"]["x"] = {"kind": "counter", "value": 1}
        b = empty_snapshot()
        b["metrics"]["x"] = {"kind": "gauge", "last": 1.0, "min": 1.0,
                             "max": 1.0, "sum": 1.0, "samples": 1}
        with pytest.raises(ValueError):
            merge_into(a, b)

    def test_histogram_bounds_mismatch_raises(self):
        def snap(bounds):
            reg = MetricRegistry()
            reg.histogram("h", bounds=bounds).observe(1.0)
            return reg.snapshot()
        with pytest.raises(ValueError):
            merge_snapshots([snap((1.0, 2.0)), snap((1.0, 3.0))])


# --------------------------------------------------------------------- #
# Span tracking
# --------------------------------------------------------------------- #
class TestSpans:
    def make(self):
        reg = MetricRegistry()
        return reg, SpanTracker(reg, "w", bounds=(10.0, 100.0))

    def test_begin_end_duration(self):
        _, spans = self.make()
        spans.begin((1, 0), 5.0, group_size=3)
        assert spans.open_count == 1
        assert spans.end((1, 0), 12.5) == 7.5
        assert spans.open_count == 0
        assert spans.started.value == 1
        assert spans.completed.value == 1
        assert spans.duration_sum.value == 7.5

    def test_duplicate_begin_keeps_original(self):
        _, spans = self.make()
        spans.begin((1, 0), 5.0, group_size=3)
        spans.begin((1, 0), 9.0, group_size=3)
        assert spans.started.value == 1
        assert spans.end((1, 0), 10.0) == 5.0

    def test_end_unopened_returns_none(self):
        _, spans = self.make()
        assert spans.end((7, 7), 1.0) is None
        assert spans.completed.value == 0

    def test_histograms_bucketed_by_group_size(self):
        reg, spans = self.make()
        spans.begin((1, 0), 0.0, group_size=3)
        spans.begin((2, 0), 0.0, group_size=5)
        spans.end((1, 0), 4.0)
        spans.end((2, 0), 40.0)
        snap = reg.snapshot()
        assert snap["metrics"]['w{n="3"}']["count"] == 1
        assert snap["metrics"]['w{n="5"}']["count"] == 1

    def test_abort_group_only_touches_that_group(self):
        _, spans = self.make()
        spans.begin((1, 0), 0.0, group_size=3)
        spans.begin((1, 1), 0.0, group_size=3)
        spans.begin((2, 0), 0.0, group_size=3)
        spans.abort_group(1)
        assert spans.aborted.value == 2
        assert spans.open_count == 1
        assert spans.end((2, 0), 1.0) == 1.0

    def test_open_gauge_synced_on_demand(self):
        _, spans = self.make()
        spans.begin((1, 0), 0.0, group_size=3)
        spans.sync_open_gauge()
        assert spans.open_gauge.last == 1.0


# --------------------------------------------------------------------- #
# Exporters
# --------------------------------------------------------------------- #
class TestExport:
    def snap(self):
        return _sample_registry(2).snapshot()

    def test_snapshot_record_requires_schema(self):
        with pytest.raises(ValueError):
            snapshot_record({"metrics": {}})

    def test_jsonl_roundtrip(self, tmp_path):
        path = tmp_path / "tele.jsonl"
        append_jsonl(path, self.snap(), sweep="s", point="a", n_runs=2)
        append_jsonl(path, self.snap(), sweep="s", point="b", n_runs=2)
        records = read_jsonl(path)
        assert [r["point"] for r in records] == ["a", "b"]
        assert records[0]["metrics"]["events_total"]["value"] == 2

    def test_read_rejects_foreign_schema(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"schema": "other", "metrics": {}}) + "\n")
        with pytest.raises(ValueError):
            read_jsonl(path)

    def test_canonical_json_rejects_nan(self):
        with pytest.raises(ValueError):
            canonical_json({"x": float("nan")})

    def test_csv_layout(self):
        buf = io.StringIO()
        rows = write_csv(self.snap(), buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "name,labels,kind,field,value"
        assert len(lines) == rows + 1
        assert any(line.startswith("events_total,,counter,value,2")
                   for line in lines)

    def test_prometheus_format(self):
        text = to_prometheus(self.snap())
        assert "# TYPE events_total counter" in text
        assert "events_total 2" in text
        assert "# TYPE depth gauge" in text
        assert "depth 4.0" in text
        # Histogram buckets are cumulative and end at +Inf.
        assert 'lat_bucket{le="1.0"} 1' in text
        assert 'lat_bucket{le="+Inf"} 1' in text
        assert "lat_count 1" in text

    def test_render_summary_empty(self):
        assert render_summary([]) == "no telemetry records"

    def test_default_path_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_TELEMETRY_PATH", raising=False)
        assert default_telemetry_path() is None
        monkeypatch.setenv("REPRO_TELEMETRY_PATH", "")
        assert default_telemetry_path() is None
        monkeypatch.setenv("REPRO_TELEMETRY_PATH", "/tmp/t.jsonl")
        assert default_telemetry_path() is not None


# --------------------------------------------------------------------- #
# Probes
# --------------------------------------------------------------------- #
class TestProbes:
    def test_record_folds_sample_into_gauges(self):
        tele = Telemetry()
        probes: ClusterProbes = tele.probes
        probes.record(ProbeSample(
            bandwidth_in_use_bps=32e6, disk_bandwidth_max_bps=16e6,
            bandwidth_cap_bps=16e6,
            disks_by_state={"online": 10, "failed": 2},
            degraded_groups=3, deferred_rebuilds=1,
            rebuild_load_max=4.0, rebuild_load_mean=2.0))
        snap = tele.snapshot()["metrics"]
        assert snap["repro_probe_samples_total"]["value"] == 1
        assert snap["repro_recovery_bandwidth_in_use_bps"]["last"] == 32e6
        assert snap["repro_recovery_disk_bandwidth_bps"]["last"] == 16e6
        assert snap["repro_rebuild_load_imbalance"]["last"] == 2.0
        assert snap['repro_disks{state="failed"}']["last"] == 2.0
        assert snap['repro_disks{state="online"}']["last"] == 10.0

    def test_idle_cluster_imbalance_is_even(self):
        tele = Telemetry()
        tele.probes.record(ProbeSample(
            bandwidth_in_use_bps=0.0, disk_bandwidth_max_bps=0.0,
            bandwidth_cap_bps=16e6))
        snap = tele.snapshot()["metrics"]
        assert snap["repro_rebuild_load_imbalance"]["last"] == 1.0


# --------------------------------------------------------------------- #
# Engine integration
# --------------------------------------------------------------------- #
class TestFastEngineIntegration:
    def run_one(self, config, seed=0):
        tele = Telemetry(TelemetryConfig())
        stats = ReliabilitySimulation(config, seed=seed,
                                      telemetry=tele).run()
        return stats, tele.snapshot()["metrics"]

    @pytest.mark.parametrize("seed", [0, 7])
    def test_counters_match_stats(self, seed):
        stats, m = self.run_one(tiny(), seed)
        assert m["repro_disk_failures_total"]["value"] == stats.disk_failures
        assert m["repro_rebuilds_started_total"]["value"] == \
            stats.rebuilds_started
        assert m["repro_rebuilds_completed_total"]["value"] == \
            stats.rebuilds_completed
        assert m["repro_groups_lost_total"]["value"] == stats.groups_lost
        assert m["repro_target_redirections_total"]["value"] == \
            stats.target_redirections

    def test_span_window_float_equality(self):
        stats, m = self.run_one(tiny(), seed=3)
        span_sum = \
            m["repro_window_of_vulnerability_seconds_sum_total"]["value"]
        completed = m[
            "repro_window_of_vulnerability_seconds_spans_completed_total"][
            "value"]
        assert span_sum == stats.window_total          # exact, not approx
        assert completed == stats.rebuilds_completed
        if completed:
            assert span_sum / completed == stats.mean_window

    def test_probe_cadence(self):
        cfg = tiny().with_(duration=2 * YEAR)
        stats, m = self.run_one(cfg)
        expected = math.floor(cfg.duration / DAY)
        assert m["repro_probe_samples_total"]["value"] == expected
        assert m["repro_recovery_disk_bandwidth_bps"]["samples"] == expected

    def test_probes_are_read_only(self):
        baseline = ReliabilitySimulation(tiny(), seed=11).run()
        observed, _ = self.run_one(tiny(), seed=11)
        assert observed.disk_failures == baseline.disk_failures
        assert observed.rebuilds_completed == baseline.rebuilds_completed
        assert observed.window_total == baseline.window_total
        assert observed.groups_lost == baseline.groups_lost

    def test_base_scenario_bandwidth_never_exceeds_cap(self):
        """Acceptance: base 2 PB / 10 GB FARM scenario — the sampled
        per-disk recovery bandwidth stays within the configured cap in
        every probe sample (equality allowed: a busy disk rebuilds at
        exactly the cap)."""
        cfg = SystemConfig()            # the paper's base FARM scenario
        assert cfg.total_user_bytes == 2e15 and cfg.use_farm
        stats, m = self.run_one(cfg)
        bw = m["repro_recovery_disk_bandwidth_bps"]
        cap = m["repro_recovery_bandwidth_cap_bps"]
        assert bw["samples"] == math.floor(cfg.duration / DAY)
        assert cap["last"] == cfg.recovery_bandwidth
        # max over ALL samples: the invariant held at every probe instant.
        assert bw["max"] <= cap["last"]
        assert stats.disk_failures > 0  # the run actually exercised it


class TestScenarioIntegration:
    """The fault hooks report through the same counters."""

    def scenario(self, telemetry=None):
        return (Scenario(tiny(), seed=2, telemetry=telemetry)
                .fail_batch([0, 1], at=DAY)
                .inject_faults(LatentSectorErrors(1.0 / (4 * DAY)),
                               TransientOutages(1.0 / (10 * DAY), HOUR),
                               Scrubber(2 * DAY))
                .run(horizon=60 * DAY))

    def test_counters_and_spans_match_stats(self):
        tele = Telemetry(TelemetryConfig())
        out = self.scenario(tele)
        stats, m = out.stats, tele.snapshot()["metrics"]
        assert m["repro_disk_failures_total"]["value"] == stats.disk_failures
        assert m["repro_rebuilds_completed_total"]["value"] == \
            stats.rebuilds_completed
        assert m["repro_transient_outages_total"]["value"] == \
            stats.transient_outages > 0
        assert m["repro_latent_discovered_total"]["value"] == \
            stats.latent_errors_discovered > 0
        assert m["repro_latent_injected_total"]["value"] == \
            out.fault_stats.latent_injected
        span_sum = \
            m["repro_window_of_vulnerability_seconds_sum_total"]["value"]
        assert span_sum == stats.window_total          # exact, not approx
        assert m["repro_probe_samples_total"]["value"] == 60

    def test_probes_are_read_only(self):
        baseline = self.scenario().stats
        observed = self.scenario(Telemetry()).stats
        assert observed == baseline

    def test_traditional_engine_instrumented(self):
        tele = Telemetry()
        stats = ReliabilitySimulation(tiny().with_(use_farm=False), seed=1,
                                      telemetry=tele).run()
        m = tele.snapshot()["metrics"]
        assert m["repro_disk_failures_total"]["value"] == \
            stats.disk_failures
        assert m["repro_rebuilds_completed_total"]["value"] == \
            stats.rebuilds_completed
        assert m["repro_spares_provisioned_total"]["value"] > 0


class TestParallelIdentity:
    def test_serial_and_parallel_snapshots_byte_identical(self):
        kwargs = dict(n_runs=4, base_seed=0, telemetry=True,
                      telemetry_path="")
        configs = {"farm": tiny(), "trad": tiny().with_(use_farm=False)}
        serial = sweep(configs, n_jobs=1, **kwargs)
        try:
            parallel = sweep(configs, n_jobs=2, **kwargs)
        finally:
            shutdown_pool()
        for label in configs:
            assert canonical_json(serial[label].telemetry) == \
                canonical_json(parallel[label].telemetry), label
            assert serial[label].telemetry["metrics"][
                "repro_disk_failures_total"]["value"] > 0

    def test_sweep_writes_jsonl_records(self, tmp_path):
        path = tmp_path / "tele.jsonl"
        sweep({"farm": tiny()}, n_runs=2, n_jobs=1, telemetry_path=path,
              sweep_name="t")
        records = read_jsonl(path)
        assert len(records) == 1
        assert records[0]["sweep"] == "t" and records[0]["point"] == "farm"
        assert records[0]["n_runs"] == 2
        assert "snapshot" not in render_summary(records)


# --------------------------------------------------------------------- #
# Cost of the disabled path
# --------------------------------------------------------------------- #
#: Generous upper bound on telemetry guard evaluations per fired event:
#: a disk-failure event walks failure bookkeeping, rebuild scheduling,
#: and completion paths, each with a handful of `is not None` tests.
GUARDS_PER_EVENT = 8

#: The disabled path may spend at most this fraction of a lifetime's
#: runtime on telemetry guards.
MAX_DISABLED_OVERHEAD = 0.03

#: Each timing is the minimum over SAMPLES rounds.  A round times one
#: lifetime, then GUARD_LOOP iterations of an empty loop and of a
#: guarded one, so the three minima come from the same stretch of host
#: load; timed one after another, load drift swung the ratio by half.
GUARD_LOOP = 1_000_000
SAMPLES = 15


def test_disabled_guard_overhead_within_3pct():
    """The nullable-handle checks cost <= 3% of a telemetry-off run.

    The guard's per-evaluation cost is timed in isolation and scaled by a
    conservative per-event site count for a real lifetime."""

    class Engine:
        telemetry = None

    cfg = tiny()
    r = range(GUARD_LOOP)
    empty = timeit.Timer("for _ in r:\n    pass", globals={"r": r})
    guarded = timeit.Timer(
        "for _ in r:\n    if obj.telemetry is not None:\n        pass",
        globals={"r": r, "obj": Engine()})
    runs, loops, guards = [], [], []
    for _ in range(SAMPLES):
        runs.append(_timed(lambda: ReliabilitySimulation(cfg, seed=0).run()))
        loops.append(empty.timeit(1))
        guards.append(guarded.timeit(1))
    guard_s = max(min(guards) - min(loops), 0.0) / GUARD_LOOP
    runtime = min(runs)
    engine = ReliabilitySimulation(cfg, seed=0)
    engine.run()
    events = engine.sim.events_fired
    overhead = events * GUARDS_PER_EVENT * guard_s / runtime
    assert overhead <= MAX_DISABLED_OVERHEAD, (
        f"disabled-path guards cost {overhead:.1%} of runtime "
        f"({events} events, {runtime * 1e3:.1f} ms run)")


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0
