"""Statistical conformance for the bulk-lifetime engine.

Four kinds of guarantee, matching docs/BULK_ENGINE.md:

* **Exact component laws** (fast): the vectorized loss predicate agrees
  with an independent sweep-line oracle on every input Hypothesis can
  construct; the sparse multinomial-tally placement sampler reproduces
  the dense membership sampler's count law to within Monte-Carlo error;
  the hypergeometric PMF matches scipy digit-for-digit.
* **Determinism and fold invariance** (fast): bulk runs are bit-exact
  functions of (config, seed); any batch split of ``bulk_aggregate``
  folds to the identical aggregate; the serial and process-pool runner
  paths agree bit-for-bit.
* **Model gating** (fast): every config feature the window-overlap
  model cannot express is rejected at construction, never approximated.
* **Cross-engine conformance** (FARM fast; traditional slow, run from
  scripts/check.sh): 95% Wilson intervals from the bulk engine and the
  DES overlap on the golden scenario.
  The engines share the loss *law*, not trajectories — bulk draws from
  its own pinned ``bulk-*`` streams (see tests/test_golden_regression).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SystemConfig
from repro.redundancy.composite import MirroredParity
from repro.reliability import shutdown_pool, sweep
from repro.reliability.bulk import (BulkLifetime, bulk_aggregate,
                                    distinct_uniform, group_loss_times,
                                    hypergeom_pmf, rack_tables,
                                    run_bulk_lifetime,
                                    sample_failed_block_sections,
                                    sample_members_capped,
                                    sample_members_flat,
                                    validate_bulk_config)
from repro.reliability.montecarlo import estimate_p_loss
from repro.reliability.stats import wilson_interval
from repro.sim.rng import RandomStreams
from repro.units import DAY, GB, TB


def gold_cfg(**kw):
    """The golden-pin scenario, with a rare-but-visible loss rate."""
    defaults = dict(total_user_bytes=20 * TB, group_user_bytes=10 * GB,
                    detection_latency=2 * DAY)
    defaults.update(kw)
    return SystemConfig(**defaults)


def overlap(a, b):
    return a.lo <= b.hi and b.lo <= a.hi


# --------------------------------------------------------------------- #
# The loss predicate vs an independent sweep-line oracle
# --------------------------------------------------------------------- #
def sweep_line_loss(fail, repair, tolerance):
    """Reference predicate: explicit event sweep, one group at a time.

    Half-open ``[fail, repair)`` intervals: at equal times a repair
    closes *before* a new failure is counted, and the loss check runs
    after each failure event — deliberately a different algorithm from
    the engine's per-left-endpoint count.
    """
    events = []
    for f, r in zip(fail, repair):
        if np.isfinite(f):
            events.append((f, 1))
        if np.isfinite(r):
            events.append((r, 0))
    # Sort by time; repairs (kind 0) ahead of failures (kind 1) at ties.
    events.sort()
    open_count = 0
    for t, kind in events:
        open_count += 1 if kind else -1
        if kind and open_count > tolerance:
            return True, t
    return False, np.inf


@st.composite
def interval_groups(draw):
    """A ``(groups, n)`` or ``(a, b, n)`` batch of integer-valued
    fail/repair intervals, ``n`` up to 10.

    Integer times on a small grid force the tie cases (simultaneous
    failures, a failure landing exactly on a repair) that distinguish
    open/closed interval conventions.
    """
    n = draw(st.integers(1, 10))
    if draw(st.booleans()):
        lead = (draw(st.integers(1, 6)),)
    else:
        lead = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    fail, repair = [], []
    for _ in range(int(np.prod(lead)) * n):
        if draw(st.booleans()):
            f = draw(st.integers(0, 10))
            fail.append(float(f))
            repair.append(float(f + draw(st.integers(1, 6))))
        else:                                  # never fails
            fail.append(np.inf)
            repair.append(np.inf)
    shape = lead + (n,)
    return (np.array(fail).reshape(shape), np.array(repair).reshape(shape),
            draw(st.integers(0, n - 1)))


class TestGroupLossTimes:
    @settings(max_examples=200, deadline=None)
    @given(interval_groups())
    def test_matches_sweep_line_oracle(self, case):
        fail, repair, tol = case
        lost, when = group_loss_times(fail, repair, tol)
        assert lost.shape == when.shape == fail.shape[:-1]
        for g in np.ndindex(fail.shape[:-1]):
            exp_lost, exp_when = sweep_line_loss(fail[g], repair[g], tol)
            assert bool(lost[g]) == exp_lost
            assert float(when[g]) == exp_when

    def test_ties_and_never_failed_blocks_in_a_wide_group(self):
        # n = 10 over leading axes (2, 1): three blocks fail together at
        # t = 4 while a fourth is repaired exactly then; the rest never
        # fail.  Tolerance 2 is exceeded at t = 4, tolerance 3 is not.
        fail = np.full((2, 1, 10), np.inf)
        repair = np.full((2, 1, 10), np.inf)
        fail[0, 0, :4] = [1.0, 4.0, 4.0, 4.0]
        repair[0, 0, :4] = [4.0, 9.0, 6.0, 5.0]
        fail[1, 0, :2] = [2.0, 2.0]
        repair[1, 0, :2] = [3.0, 3.0]
        for tol in (2, 3):
            lost, when = group_loss_times(fail, repair, tol)
            for g in np.ndindex(2, 1):
                exp_lost, exp_when = sweep_line_loss(fail[g], repair[g],
                                                     tol)
                assert bool(lost[g]) == exp_lost
                assert float(when[g]) == exp_when
        lost, when = group_loss_times(fail, repair, 2)
        assert lost.tolist() == [[True], [False]]
        assert when[0, 0] == 4.0

    def test_simultaneous_failures_are_concurrent(self):
        # Two blocks failing at the same instant: overlap of 2 at t=1.
        fail = np.array([[1.0, 1.0]])
        repair = np.array([[3.0, 4.0]])
        lost, when = group_loss_times(fail, repair, 1)
        assert lost[0] and when[0] == 1.0

    def test_failure_at_exact_repair_does_not_overlap(self):
        # Half-open windows: a failure at the other block's repair
        # instant is sequential, not concurrent.
        fail = np.array([[1.0, 3.0]])
        repair = np.array([[3.0, 5.0]])
        lost, _ = group_loss_times(fail, repair, 1)
        assert not lost[0]

    def test_never_failed_blocks_are_inert(self):
        fail = np.array([[np.inf, 2.0, np.inf]])
        repair = np.array([[np.inf, 6.0, np.inf]])
        lost, when = group_loss_times(fail, repair, 0)
        assert lost[0] and when[0] == 2.0
        lost, when = group_loss_times(fail, repair, 1)
        assert not lost[0] and when[0] == np.inf


# --------------------------------------------------------------------- #
# The placement samplers
# --------------------------------------------------------------------- #
class TestDistinctUniform:
    def test_rows_distinct_and_in_range(self):
        m = distinct_uniform(np.random.default_rng(0), 5000, 3, 40)
        assert m.shape == (5000, 3)
        assert m.min() >= 0 and m.max() < 40
        assert all(len(set(row)) == 3 for row in m.tolist())

    def test_cramped_pool_falls_back_to_subset_draw(self):
        # n_vals <= 4k triggers the argpartition path; rows must still
        # be distinct even when the pool barely covers a row.
        m = distinct_uniform(np.random.default_rng(1), 2000, 4, 4)
        assert sorted(set(m.ravel().tolist())) == [0, 1, 2, 3]
        assert all(len(set(row)) == 4 for row in m.tolist())

    def test_overdrawn_pool_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            distinct_uniform(np.random.default_rng(0), 10, 5, 4)

    def test_single_column_fast_path(self):
        m = distinct_uniform(np.random.default_rng(2), 10_000, 1, 7)
        assert m.shape == (10_000, 1)
        assert sorted(set(m.ravel().tolist())) == list(range(7))


class TestHypergeomPmf:
    def test_matches_scipy(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        for n, k_failed, n_disks in [(2, 5, 100), (3, 8, 41), (6, 6, 12)]:
            pmf = hypergeom_pmf(n, k_failed, n_disks)
            expected = scipy_stats.hypergeom.pmf(
                np.arange(n + 1), n_disks, k_failed, n)
            assert pmf == pytest.approx(expected, abs=1e-12)

    def test_sums_to_one(self):
        assert hypergeom_pmf(4, 9, 250).sum() == pytest.approx(1.0)

    def test_degenerate_all_failed(self):
        pmf = hypergeom_pmf(2, 10, 10)
        assert pmf[2] == 1.0 and pmf[:2].sum() == 0.0


class TestSparseSampler:
    """The hot-path shortcut vs the dense oracle it replaced."""

    G, N, N_FAILED, K = 4000, 100, 8, 3

    def test_sections_shapes_and_entries(self):
        sections = sample_failed_block_sections(
            np.random.default_rng(3), self.G, self.K, self.N_FAILED, self.N)
        assert len(sections) == self.K
        for k, m in enumerate(sections, start=1):
            assert m.shape[1] == k
            if m.size:
                assert m.min() >= 0 and m.max() < self.N_FAILED
                assert all(len(set(row)) == k for row in m.tolist())

    def test_count_law_matches_dense_oracle(self):
        """Empirical failed-count PMFs of both samplers sit within
        Monte-Carlo error of the exact hypergeometric law."""
        pmf = hypergeom_pmf(self.K, self.N_FAILED, self.N)

        sections = sample_failed_block_sections(
            np.random.default_rng(4), self.G, self.K, self.N_FAILED, self.N)
        sparse_counts = np.array(
            [self.G - sum(m.shape[0] for m in sections)]
            + [m.shape[0] for m in sections]) / self.G

        members = sample_members_flat(
            np.random.default_rng(5), self.G, self.K, self.N)
        dense_counts = np.bincount(
            (members < self.N_FAILED).sum(axis=1),
            minlength=self.K + 1) / self.G

        se = np.sqrt(pmf * (1 - pmf) / self.G)
        assert (np.abs(sparse_counts - pmf) <= 4 * se + 1e-12).all()
        assert (np.abs(dense_counts - pmf) <= 4 * se + 1e-12).all()

    def test_dense_sampler_rows_distinct(self):
        members = sample_members_flat(np.random.default_rng(6), 2000, 3, 50)
        assert members.shape == (2000, 3)
        assert all(len(set(row)) == 3 for row in members.tolist())


class TestCappedSampler:
    def test_cap_and_distinctness_hold_by_construction(self):
        rack_of_disk = np.repeat(np.arange(4), 4)        # 4 racks x 4 disks
        members = sample_members_capped(
            np.random.default_rng(7), 3000, 2, rack_tables(rack_of_disk),
            cap=1)
        assert all(len(set(row)) == 2 for row in members.tolist())
        racks = rack_of_disk[members]
        assert (racks[:, 0] != racks[:, 1]).all()        # cap=1: all distinct

    def test_capped_config_runs_end_to_end(self):
        cfg = SystemConfig(total_user_bytes=2 * TB, group_user_bytes=10 * GB,
                           racks=4, machines_per_rack=1,
                           max_chunks_per_domain=1)
        stats = run_bulk_lifetime(cfg, seed=11)
        assert stats.disk_failures >= 0
        assert stats.rebuilds_completed <= stats.rebuilds_started


# --------------------------------------------------------------------- #
# Determinism, fold invariance, runner integration
# --------------------------------------------------------------------- #
class TestDeterminism:
    def test_same_seed_is_bit_identical(self):
        a = run_bulk_lifetime(gold_cfg(), seed=42)
        b = BulkLifetime(gold_cfg(), seed=42).run()
        assert (a.disk_failures, a.rebuilds_started, a.rebuilds_completed,
                a.groups_lost, a.window_total, a.window_max) == \
               (b.disk_failures, b.rebuilds_started, b.rebuilds_completed,
                b.groups_lost, b.window_total, b.window_max)

    def test_different_seeds_differ(self):
        runs = {run_bulk_lifetime(gold_cfg(), seed=s).disk_failures
                for s in range(8)}
        assert len(runs) > 1

    def test_batch_size_invariance(self):
        """Any batch split folds to the identical aggregate — the
        property that makes chunked pool dispatch safe."""
        cfg = gold_cfg()
        aggs = [bulk_aggregate(cfg, 40, base_seed=5, batch_size=b)
                for b in (1, 7, 64)]
        ref = aggs[0]
        for agg in aggs[1:]:
            assert agg.losses == ref.losses
            assert agg.n_runs == ref.n_runs
            assert agg.disk_failures == ref.disk_failures
            assert agg.window_total == ref.window_total
            assert agg.window_max == ref.window_max
            assert agg.window_moments.m2 == ref.window_moments.m2

    def test_aggregate_input_validation(self):
        with pytest.raises(ValueError):
            bulk_aggregate(gold_cfg(), 0)
        with pytest.raises(ValueError):
            bulk_aggregate(gold_cfg(), 4, batch_size=0)


class TestModelGating:
    def test_accepts_the_golden_scenario(self):
        validate_bulk_config(gold_cfg())
        validate_bulk_config(gold_cfg(use_farm=False))

    @pytest.mark.parametrize("kw, fragment", [
        (dict(scheme=MirroredParity(2)), "set-based"),
        (dict(replacement_threshold=4), "replacement"),
        (dict(use_smart=True), "SMART"),
        (dict(workload_peak_load=0.5), "workload"),
        (dict(placement="rush"), "placement"),
    ])
    def test_rejects_inexpressible_features(self, kw, fragment):
        with pytest.raises(ValueError, match=fragment):
            validate_bulk_config(gold_cfg(**kw))

    def test_runner_rejects_bulk_tilt(self):
        with pytest.raises(ValueError, match="tilt"):
            estimate_p_loss(gold_cfg(), n_runs=2, engine="bulk", tilt=0.5)

    def test_runner_rejects_bulk_telemetry(self):
        with pytest.raises(ValueError, match="telemetry"):
            estimate_p_loss(gold_cfg(), n_runs=2, engine="bulk",
                            telemetry=True)

    def test_runner_rejects_unknown_engine(self):
        with pytest.raises(ValueError, match="engine"):
            estimate_p_loss(gold_cfg(), n_runs=2, engine="warp")


class TestRunnerIntegration:
    def test_estimate_p_loss_bulk(self):
        result = estimate_p_loss(gold_cfg(), n_runs=20, engine="bulk")
        assert result.engine == "bulk"
        assert result.n_runs == 20
        assert 0.0 <= result.p_loss.estimate <= 1.0
        assert result.disk_failures_total > 0

    def test_serial_matches_parallel_bit_for_bit(self):
        cfgs = {"farm": gold_cfg(), "trad": gold_cfg(use_farm=False)}
        serial = sweep(cfgs, n_runs=24, base_seed=9, n_jobs=None,
                       engine="bulk")
        try:
            parallel = sweep(cfgs, n_runs=24, base_seed=9, n_jobs=2,
                             engine="bulk")
        finally:
            shutdown_pool()
        for label in cfgs:
            s, p = serial[label], parallel[label]
            assert p.losses == s.losses
            assert p.disk_failures_total == s.disk_failures_total
            assert p.mean_window == s.mean_window
            assert p.max_window == s.max_window
            assert p.aggregate.window_moments.m2 == \
                s.aggregate.window_moments.m2


# --------------------------------------------------------------------- #
# Cross-engine statistical conformance
# --------------------------------------------------------------------- #
DES_RUNS = 150
BULK_RUNS = 600                      # cheap: buy a tighter interval


class TestEngineConformance:
    def test_farm_ci_overlaps_des(self):
        """The acceptance gate: on the golden FARM scenario the bulk
        95% interval overlaps the DES engine's."""
        cfg = gold_cfg()
        des = estimate_p_loss(cfg, n_runs=DES_RUNS, base_seed=7)
        agg = bulk_aggregate(cfg, BULK_RUNS, base_seed=7)
        bulk_ci = wilson_interval(agg.losses, agg.n_runs, 0.95)
        assert agg.losses > 0          # the scenario does exercise loss
        assert overlap(des.p_loss, bulk_ci), (
            f"bulk [{bulk_ci.lo:.4f}, {bulk_ci.hi:.4f}] does not overlap "
            f"DES [{des.p_loss.lo:.4f}, {des.p_loss.hi:.4f}]")

    @pytest.mark.slow
    def test_traditional_ci_overlaps_des(self):
        cfg = gold_cfg(use_farm=False)
        des = estimate_p_loss(cfg, n_runs=DES_RUNS, base_seed=7)
        agg = bulk_aggregate(cfg, BULK_RUNS, base_seed=7)
        bulk_ci = wilson_interval(agg.losses, agg.n_runs, 0.95)
        assert agg.losses > 0
        assert overlap(des.p_loss, bulk_ci), (
            f"bulk [{bulk_ci.lo:.4f}, {bulk_ci.hi:.4f}] does not overlap "
            f"DES [{des.p_loss.lo:.4f}, {des.p_loss.hi:.4f}]")

    def test_farm_and_traditional_share_failure_draws(self):
        """Recovery mode must not perturb the failure process: the same
        seed sees the same disks fail either way."""
        farm = run_bulk_lifetime(gold_cfg(), seed=21)
        trad = run_bulk_lifetime(gold_cfg(use_farm=False), seed=21)
        assert farm.disk_failures == trad.disk_failures

    def test_windows_stream_untouched_by_farm_runs(self):
        """FARM never consumes bulk-windows: its first uniform is intact
        after a FARM lifetime with the same seed (stream independence)."""
        run_bulk_lifetime(gold_cfg(), seed=123)
        assert float(RandomStreams(123).bulk("windows").random()) == \
            0.16538516375736811
