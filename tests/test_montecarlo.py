"""Tests for the Monte-Carlo harness (repro.reliability.montecarlo)."""

import pytest

from repro.availability.luby import InfeasibleConfig
from repro.config import SystemConfig
from repro.redundancy import MIRROR_3
from repro.reliability import (ReliabilitySimulation, estimate_p_loss,
                               seed_schedule, sweep)
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
        a = estimate_p_loss(tiny(), n_runs=5, base_seed=1).aggregate
        b = estimate_p_loss(tiny(), n_runs=5, base_seed=1).aggregate
        assert a.losses == b.losses
        assert a.disk_failures == b.disk_failures

    def test_seed_changes_results(self):
        a = estimate_p_loss(tiny(), n_runs=5, base_seed=1).aggregate
        b = estimate_p_loss(tiny(), n_runs=5, base_seed=2).aggregate
        assert a.disk_failures != b.disk_failures

    def test_runs_are_independent(self):
        """Each run has its own seed: per-run failure counts vary."""
        r = estimate_p_loss(tiny(), n_runs=6, base_seed=0)
        assert r.aggregate.failure_moments.count == 6
        assert r.aggregate.failure_moments.variance > 0

    def test_aggregates_consistent(self):
        """The aggregate equals a fold of independently run lifetimes."""
        r = estimate_p_loss(tiny(), n_runs=5, base_seed=0)
        runs = [ReliabilitySimulation(tiny(), seed=s).run()
                for s in seed_schedule(0, 5)]
        agg = r.aggregate
        assert r.n_runs == 5 and agg.n_runs == 5
        assert agg.losses == sum(1 for s in runs if s.any_loss)
        assert r.p_loss.trials == 5
        assert agg.groups_lost == sum(s.groups_lost for s in runs)
        assert agg.disk_failures == sum(s.disk_failures for s in runs)
        assert agg.events_fired > 0

    def test_parallel_matches_serial(self):
        serial = estimate_p_loss(tiny(), n_runs=4, base_seed=3,
                                 n_jobs=1).aggregate
        parallel = estimate_p_loss(tiny(), n_runs=4, base_seed=3,
                                   n_jobs=2).aggregate
        assert serial.losses == parallel.losses
        assert serial.disk_failures == parallel.disk_failures

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

    @pytest.mark.parametrize("n_jobs", [None, 2])
    def test_refused_bulk_point_skips_every_chunk(self, n_jobs):
        """``BulkLifetime`` refuses lazy recovery inside the worker, so
        each of the refused point's two chunks raises and is skipped
        whole, serially and in parallel alike; the runnable point beside
        it keeps every trial."""
        refused = tiny().with_(scheme=MIRROR_3, recovery_threshold=2)
        try:
            res = sweep({"ok": tiny(), "refused": refused}, n_runs=40,
                        n_jobs=n_jobs, on_error="skip", engine="bulk")
        finally:
            shutdown_pool()
        assert res["refused"].runs_failed == 40
        assert res["refused"].p_loss.trials == 0
        assert res["ok"].runs_failed == 0
        assert res["ok"].p_loss.trials == 40


class TestSweeps:
    def test_sweep_labels_preserved(self):
        res = sweep({"farm": tiny(), "raid": tiny().with_(use_farm=False)},
                    n_runs=3)
        assert set(res) == {"farm", "raid"}
