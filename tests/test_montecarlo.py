"""Tests for the Monte-Carlo harness (repro.reliability.montecarlo)."""

import pytest

from repro.availability.luby import InfeasibleConfig
from repro.config import SystemConfig
from repro.reliability import estimate_p_loss, loss_probability_series, sweep
from repro.reliability.runner import shutdown_pool
from repro.units import GB, TB
from tests.test_availability import infeasible_cfg


def tiny():
    return SystemConfig(total_user_bytes=10 * TB, group_user_bytes=10 * GB)


def unrunnable():
    """A config the engine rejects (a repair lane too narrow for its own
    failure inflow) — every lifetime raises ``InfeasibleConfig``, so
    ``on_error="skip"`` completes zero runs."""
    return infeasible_cfg()


class TestEstimate:
    def test_reproducible_across_calls(self):
        a = estimate_p_loss(tiny(), n_runs=5, base_seed=1)
        b = estimate_p_loss(tiny(), n_runs=5, base_seed=1)
        assert a.losses == b.losses
        assert a.disk_failures_total == b.disk_failures_total

    def test_seed_changes_results(self):
        a = estimate_p_loss(tiny(), n_runs=5, base_seed=1)
        b = estimate_p_loss(tiny(), n_runs=5, base_seed=2)
        assert a.disk_failures_total != b.disk_failures_total

    def test_runs_are_independent(self):
        """Each run has its own seed: per-run failure counts vary."""
        r = estimate_p_loss(tiny(), n_runs=6, base_seed=0,
                            keep_run_stats=True)
        counts = {s.disk_failures for s in r.run_stats}
        assert len(counts) > 1

    def test_run_stats_dropped_by_default(self):
        r = estimate_p_loss(tiny(), n_runs=3, base_seed=0)
        assert r.run_stats == []
        assert r.aggregate is not None and r.aggregate.n_runs == 3

    def test_aggregates_consistent(self):
        r = estimate_p_loss(tiny(), n_runs=5, base_seed=0,
                            keep_run_stats=True)
        assert r.n_runs == 5 and len(r.run_stats) == 5
        assert r.losses == sum(1 for s in r.run_stats if s.any_loss)
        assert r.p_loss.trials == 5
        assert r.groups_lost_total == sum(s.groups_lost
                                          for s in r.run_stats)
        assert r.events_fired_total > 0

    def test_parallel_matches_serial(self):
        serial = estimate_p_loss(tiny(), n_runs=4, base_seed=3, n_jobs=1)
        parallel = estimate_p_loss(tiny(), n_runs=4, base_seed=3, n_jobs=2)
        assert serial.losses == parallel.losses
        assert serial.disk_failures_total == parallel.disk_failures_total

    def test_invalid_runs(self):
        with pytest.raises(ValueError):
            estimate_p_loss(tiny(), n_runs=0)


class TestZeroCompletedRuns:
    """Regression: a point whose runs all failed used to crash in
    ``wilson_interval(0, 0)``; it now reports the uninformative [0, 1]
    interval with ``trials == 0`` and counts the drops."""

    def test_raise_is_the_default(self):
        with pytest.raises(InfeasibleConfig):
            estimate_p_loss(unrunnable(), n_runs=2)

    def test_skip_yields_empty_proportion_serial(self):
        r = estimate_p_loss(unrunnable(), n_runs=4, on_error="skip")
        assert r.runs_failed == 4
        assert r.n_runs == 4
        assert r.aggregate.n_runs == 0
        assert r.p_loss.trials == 0 and r.p_loss.successes == 0
        assert (r.p_loss.lo, r.p_loss.hi) == (0.0, 1.0)

    def test_skip_yields_empty_proportion_parallel(self):
        try:
            r = estimate_p_loss(unrunnable(), n_runs=4, n_jobs=2,
                                on_error="skip")
        finally:
            shutdown_pool()
        assert r.runs_failed == 4
        assert r.p_loss.trials == 0
        assert (r.p_loss.lo, r.p_loss.hi) == (0.0, 1.0)

    def test_mixed_sweep_only_bad_point_degrades(self):
        res = sweep({"ok": tiny(), "bad": unrunnable()}, n_runs=3,
                    on_error="skip")
        assert res["ok"].runs_failed == 0
        assert res["ok"].p_loss.trials == 3
        assert res["bad"].runs_failed == 3
        assert res["bad"].p_loss.trials == 0


class TestSweeps:
    def test_sweep_labels_preserved(self):
        res = sweep({"farm": tiny(), "raid": tiny().with_(use_farm=False)},
                    n_runs=3)
        assert set(res) == {"farm", "raid"}

    def test_series_in_order(self):
        out = loss_probability_series(
            tiny(), "detection_latency", [0.0, 600.0], n_runs=3)
        assert [v for v, _ in out] == [0.0, 600.0]
        assert all(r.n_runs == 3 for _, r in out)
