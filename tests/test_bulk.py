"""Statistical conformance for the bulk-lifetime engine.

Four kinds of guarantee, matching docs/BULK_ENGINE.md:

* **Exact component laws** (fast): the vectorized loss predicate, and
  its closed form for groups holding one failed block more than the
  tolerance, agree with an independent sweep-line oracle on every input
  Hypothesis can construct; the sparse multinomial-tally placement
  sampler reproduces the dense membership sampler's count law to within
  Monte-Carlo error; the hypergeometric PMF matches scipy
  digit-for-digit; FARM and traditional lifetimes match, field for
  field, a lifetime that draws every section and masks every block of
  the lossy ones.
* **Determinism and fold invariance** (fast): bulk runs are bit-exact
  functions of (config, seed); any batch split of ``run_bulk_batch``
  folds to the identical aggregate; the serial and process-pool runner
  paths agree bit-for-bit; a lifetime run on work buffers that earlier
  lifetimes sized equals a fresh instance's, and a warm 2 PB
  traditional lifetime allocates under two copies of its one-block
  section.
* **Model gating** (fast): every config feature the window-overlap
  model cannot express is rejected at construction, never approximated.
* **Cross-engine conformance** (FARM fast; traditional slow, run from
  scripts/check.sh): 95% Wilson intervals from the bulk engine and the
  DES overlap on the golden scenario.
  The engines share the loss *law*, not trajectories — bulk draws from
  its own pinned ``bulk-*`` streams (see tests/test_golden_regression).
"""

import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.__main__ import result_mismatches
from repro.config import SystemConfig
from repro.experiments import figure5
from repro.experiments.base import SCALES
from repro.redundancy import ECC_4_6, ECC_8_10, MIRROR_2, RedundancyScheme
from repro.redundancy.composite import MirroredParity
from repro.reliability import (MonteCarloResult, StatsAggregate,
                               seed_schedule, shutdown_pool, sweep)
from repro.reliability.bulk import (BulkLifetime, all_open_loss_times,
                                    distinct_uniform, group_loss_times,
                                    hypergeom_pmf, rack_tables,
                                    run_bulk_batch, sample_group_tallies,
                                    sample_members_capped,
                                    sample_members_flat, sample_section)
from repro.reliability.montecarlo import estimate_p_loss
from repro.reliability.simulation import RecoveryStats
from repro.sim.rng import RandomStreams
from repro.units import DAY, GB, TB
from tests.test_bulk_pins import BASE, LIFETIMES, flat_vintage


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


@st.composite
def all_failed_groups(draw):
    """A ``(groups, k)`` batch of integer-valued fail/repair intervals in
    which every block fails, ``k`` from 1 to 10: the sections the engine
    resolves in closed form, at tolerance ``k - 1``.  The small grid
    forces ties between failures, and between a failure and a repair."""
    k = draw(st.integers(1, 10))
    rows = draw(st.integers(1, 6))
    fail = np.array(draw(st.lists(st.integers(0, 10), min_size=rows * k,
                                  max_size=rows * k)), dtype=float)
    window = np.array(draw(st.lists(st.integers(1, 6), min_size=rows * k,
                                    max_size=rows * k)), dtype=float)
    return fail.reshape(rows, k), (fail + window).reshape(rows, k)


class TestGroupLossTimes:
    @settings(max_examples=300, deadline=None)
    @given(all_failed_groups())
    def test_closed_form_matches_both_oracles(self, case):
        fail, repair = case
        tol = fail.shape[1] - 1
        lost, when = all_open_loss_times(fail, repair)
        ref_lost, ref_when = group_loss_times(fail, repair, tol)
        assert lost.tolist() == ref_lost.tolist()
        assert when.tolist() == ref_when.tolist()
        for g in range(fail.shape[0]):
            exp_lost, exp_when = sweep_line_loss(fail[g], repair[g], tol)
            assert bool(lost[g]) == exp_lost
            assert float(when[g]) == exp_when

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
        rng = np.random.default_rng(3)
        tallies = sample_group_tallies(rng, self.G, self.K, self.N_FAILED,
                                       self.N)
        assert tallies.shape == (self.K + 1,)
        assert tallies.sum() == self.G
        for k in range(1, self.K + 1):
            m = sample_section(rng, int(tallies[k]), k, self.N_FAILED)
            assert m.shape == (tallies[k], k)
            if m.size:
                assert m.min() >= 0 and m.max() < self.N_FAILED
                assert all(len(set(row)) == k for row in m.tolist())

    def test_empty_section_draws_nothing(self):
        rng = np.random.default_rng(8)
        # k > n_failed: no group can hold that many failed blocks.
        assert sample_section(rng, 0, 3, 2).shape == (0, 3)
        assert rng.random() == np.random.default_rng(8).random()

    def test_count_law_matches_dense_oracle(self):
        """Empirical failed-count PMFs of both samplers sit within
        Monte-Carlo error of the exact hypergeometric law."""
        pmf = hypergeom_pmf(self.K, self.N_FAILED, self.N)

        sparse_counts = sample_group_tallies(
            np.random.default_rng(4), self.G, self.K, self.N_FAILED,
            self.N) / self.G

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

    @pytest.mark.parametrize("rows", [0, 1, 39_000])
    def test_advancing_past_a_one_block_section(self, rows):
        """A one-block section takes exactly one 64-bit word per group,
        so advancing the stream by its size leaves it where drawing the
        section would: the engine relies on this to skip the section."""
        def after(consume):
            rng = RandomStreams(5).bulk("placement")
            sample_group_tallies(rng, 200_000, 2, 1_100, 22_000)
            consume(rng)
            return rng.random(8)

        advanced = after(lambda rng: rng.bit_generator.advance(rows))
        assert (after(lambda rng: rng.random((rows, 1))) == advanced).all()
        assert (after(lambda rng: sample_section(rng, rows, 1, 1_100))
                == advanced).all()


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
        stats = BulkLifetime(cfg, seed=11).run()
        assert stats.disk_failures >= 0
        assert stats.rebuilds_completed <= stats.rebuilds_started


# --------------------------------------------------------------------- #
# Lifetimes that skip sections and masks vs drawing and masking everything
# --------------------------------------------------------------------- #
class EverySection(BulkLifetime):
    """A lifetime that draws every section and tests every block.

    The reference for the engine's shortcuts (the skipped one-block
    section, the tallied rebuilds, the closed form and the exception
    rows): flat placement is built from the public samplers; every block's
    rebuild is tested against the horizon, whatever its section; and
    every section that can lose data goes through ``group_loss_times``
    with a started and a completed mask over all its blocks.
    Traditional windows are drawn section by section, in count order,
    and the completed ones summed per section in block order, so
    ``window_total`` keeps the engine's bits.  The rack-capped draw goes
    through the engine's own regrouping, which draws every section
    either way.  ``lost_rows`` and ``late_rows`` count the groups in
    those sections that are lost, and that hold a repair past the
    horizon: the rows the engine masks.
    """

    lost_rows = late_rows = 0

    def run(self, seed=None):
        cfg = self.cfg
        duration, latency = cfg.duration, cfg.detection_latency
        rebuild = cfg.rebuild_seconds_per_block
        streams = RandomStreams(self.seed if seed is None else seed)
        failed_ids, fail_at = self.model.sample_failed_within(
            streams.bulk("failures"), self.N, duration)
        n_failed = failed_ids.size
        stats = RecoveryStats(disk_failures=n_failed)
        if n_failed == 0:
            return stats
        rng = streams.bulk("placement")
        if self._rack_tables is None:
            tallies = sample_group_tallies(rng, self.G, self.n, n_failed,
                                           self.N)
            sections = [sample_section(rng, int(rows), k, n_failed)
                        for k, rows in enumerate(tallies[1:], start=1)]
        else:
            _, sections = self._failed_block_sections(rng, failed_ids,
                                                      skip_single=False)
        if not any(m.size for m in sections):
            return stats
        if cfg.use_farm:
            windows = [np.full(m.shape, latency + rebuild)
                       for m in sections]
        else:
            # A queue position per failed block, uniform over its disk's
            # failed blocks, drawn section by section.
            queue = sum(np.bincount(m.ravel(), minlength=n_failed)
                        for m in sections)
            rng = streams.bulk("windows")
            windows = [(np.floor(rng.random(m.shape) * queue[m]) + 1.0)
                       * rebuild + latency for m in sections]
        first_loss = np.inf
        window_total = 0.0
        for k, (m, win) in enumerate(zip(sections, windows), start=1):
            if m.size == 0:
                continue
            fail_k = fail_at[m]
            repair_k = fail_k + win
            loss_of = np.inf
            if k > self.tol:
                lost, when = group_loss_times(fail_k, repair_k, self.tol)
                if lost.any():
                    stats.groups_lost += int(lost.sum())
                    first_loss = min(first_loss, float(when[lost].min()))
                    loss_of = np.where(lost, when, np.inf)[:, None]
                self.lost_rows += int(lost.sum())
                self.late_rows += int((repair_k > duration).any(axis=1)
                                      .sum())
            detect_k = fail_k + latency
            started = (detect_k <= duration) & (detect_k < loss_of)
            completed = (started & (repair_k < loss_of)
                         & (repair_k <= duration))
            stats.rebuilds_started += int(started.sum())
            done = win[completed]
            stats.rebuilds_completed += done.size
            if done.size:
                window_total += float(done.sum())
                stats.window_max = max(stats.window_max, float(done.max()))
        if cfg.use_farm:
            # One constant window: the engine multiplies instead of adding.
            window_total = (latency + rebuild) * stats.rebuilds_completed
        stats.window_total = window_total
        stats.bytes_lost = stats.groups_lost * cfg.group_user_bytes
        if stats.groups_lost:
            stats.first_loss_time = first_loss
        return stats


def rebuilds_end_in_horizon(cfg, seed):
    """Whether every failed disk of the lifetime detects and rebuilds its
    blocks in-horizon: the FARM lifetimes whose one-block section is
    skipped."""
    _, fail_at = cfg.vintage.failure_model.sample_failed_within(
        RandomStreams(seed).bulk("failures"), cfg.n_disks, cfg.duration)
    window = cfg.detection_latency + cfg.rebuild_seconds_per_block
    return bool((fail_at + cfg.detection_latency <= cfg.duration).all()
                and (fail_at + window <= cfg.duration).all())


#: name -> config; each runs 50 seeds.  FARM 1/2, 4/6 and 8/10 with 10
#: and 50 GB groups at 100 TB skip the one-block section on almost every
#: lifetime.  The configs of the pinned lifetimes add traditional
#: recovery and the capped draw; their 30-day horizons put some failed
#: disks within a window of the end and some lossy groups' repairs past
#: it, and the loss configs lose data after a skipped section, so a
#: stream left out of step changes their losses.
REFERENCE_CASES = {
    **{f"farm-{s.name}-{size / GB:g}GB": BASE.with_(scheme=s,
                                                     group_user_bytes=size)
       for s in (MIRROR_2, ECC_4_6, ECC_8_10) for size in (10 * GB, 50 * GB)},
    **{name: cfg for name, (cfg, _) in LIFETIMES.items()},
}


class TestSkippedSection:
    def test_matches_a_lifetime_that_draws_every_section(self):
        """Every field of every lifetime equals the reference's, 50 seeds
        a config: the skipped one-block section, the tallied rebuilds and
        the closed-form sections with masks on exception rows only."""
        branches = {True: 0, False: 0}
        skipped_losses = lost_rows = late_rows = 0
        for name, cfg in REFERENCE_CASES.items():
            engine, reference = BulkLifetime(cfg), EverySection(cfg)
            for seed in seed_schedule(0, 50):
                stats = engine.run(seed=seed)
                assert asdict(stats) == asdict(reference.run(seed=seed)), (
                    name, seed)
                if cfg.use_farm:
                    skipped = rebuilds_end_in_horizon(cfg, seed)
                    branches[skipped] += 1
                    skipped_losses += skipped and stats.groups_lost > 0
            lost_rows += reference.lost_rows
            late_rows += reference.late_rows
        assert branches[True] and branches[False], branches
        assert skipped_losses, "no skipped lifetime lost data"
        assert lost_rows and late_rows, (lost_rows, late_rows)


# --------------------------------------------------------------------- #
# Work buffers shared by the lifetimes of a batch
# --------------------------------------------------------------------- #
FIG5 = figure5.grid(SCALES["paper"])

#: name -> config whose one ``BulkLifetime`` reruns seeds in an order that
#: grows, shrinks and repeats its one-block section.  The 2 PB figure-5
#: traditional 10 GB points hold ~39,000 blocks in that section; at
#: 8 MB/s a quarter of their lifetimes filter safe windows by completion.
#: Under 1/1 the one-block section is the lossy one, and the FARM pin
#: draws it on the lifetimes whose rebuilds cross the horizon.  At a
#: 6 %/1000 h hazard nearly every disk fails, so most 4/6 groups lose
#: several blocks and some lifetimes have no one-block section at all.
BUFFER_CASES = {
    "fig5-trad-10GB-8MB": FIG5["False|10|8"],
    "fig5-trad-10GB-40MB": FIG5["False|10|40"],
    "trad-1/1": BASE.with_(scheme=RedundancyScheme(1, 1), use_farm=False),
    "trad-4/6-most-disks-fail": BASE.with_(
        scheme=ECC_4_6, use_farm=False, vintage=flat_vintage(6.0)),
    "farm-rebuild-crosses-horizon":
        LIFETIMES["farm-rebuild-crosses-horizon"][0],
}


def one_block_section(cfg, seed):
    """``(rows, filtered)``: the lifetime's one-block section size, and
    whether a traditional lifetime tests its safe windows against the
    horizon (some failed disk holding a block of a group that cannot be
    lost finishes its queue past the end)."""
    streams = RandomStreams(seed)
    _, fail_at = cfg.vintage.failure_model.sample_failed_within(
        streams.bulk("failures"), cfg.n_disks, cfg.duration)
    rng = streams.bulk("placement")
    tallies = sample_group_tallies(rng, cfg.n_groups, cfg.scheme.n,
                                   fail_at.size, cfg.n_disks)
    per_section = [np.bincount(sample_section(rng, int(rows), k,
                                              fail_at.size).ravel(),
                               minlength=fail_at.size)
                   for k, rows in enumerate(tallies[1:], start=1)]
    tail = (fail_at + cfg.detection_latency
            + sum(per_section) * cfg.rebuild_seconds_per_block)
    safe = sum(per_section[:cfg.scheme.tolerance], np.zeros(fail_at.size))
    return int(tallies[1]), bool(safe[tail > cfg.duration].any())


class TestWorkBuffers:
    @pytest.mark.parametrize("name", BUFFER_CASES)
    def test_reused_buffers_match_fresh_lifetimes(self, name):
        """A lifetime run on buffers that earlier lifetimes sized equals
        a fresh instance's, field for field."""
        cfg = BUFFER_CASES[name]
        seeds = seed_schedule(0, 8)
        sections = {s: one_block_section(cfg, s) for s in seeds}
        rising = sorted(seeds, key=lambda s: sections[s][0])
        engine = BulkLifetime(cfg)
        for seed in rising + rising[::-1] + rising[:2]:
            assert (asdict(engine.run(seed=seed))
                    == asdict(BulkLifetime(cfg).run(seed=seed))), (name,
                                                                   seed)
        if name == "fig5-trad-10GB-8MB":
            assert any(filtered for _, filtered in sections.values())
        if name == "trad-4/6-most-disks-fail":
            assert min(rows for rows, _ in sections.values()) == 0
        if cfg.use_farm:
            assert not all(rebuilds_end_in_horizon(cfg, s) for s in seeds)

    def test_warm_traditional_lifetime_allocates_under_two_sections(self):
        """Rerun on a warm instance, a 2 PB traditional lifetime's traced
        peak stays under two float64 copies of its one-block section:
        the section's draws, gathers and windows live in the buffers.
        (Drawing them as fresh arrays peaked at ~3.3 sections.)"""
        cfg = BUFFER_CASES["fig5-trad-10GB-8MB"]
        engine = BulkLifetime(cfg)
        for seed in seed_schedule(0, 10):
            engine.run(seed=seed)
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                engine.run(seed=seed)
                peak = tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()
            rows, _ = one_block_section(cfg, seed)
            assert peak < 2 * rows * 8, (seed, peak, rows)


# --------------------------------------------------------------------- #
# Determinism, fold invariance, runner integration
# --------------------------------------------------------------------- #
class TestDeterminism:
    def test_same_seed_is_bit_identical(self):
        a = BulkLifetime(gold_cfg(), seed=42).run()
        b = BulkLifetime(gold_cfg()).run(seed=42)
        assert (a.disk_failures, a.rebuilds_started, a.rebuilds_completed,
                a.groups_lost, a.window_total, a.window_max) == \
               (b.disk_failures, b.rebuilds_started, b.rebuilds_completed,
                b.groups_lost, b.window_total, b.window_max)

    def test_different_seeds_differ(self):
        runs = {BulkLifetime(gold_cfg(), seed=s).run().disk_failures
                for s in range(8)}
        assert len(runs) > 1

    def test_batch_size_invariance(self):
        """Any batch split folds to the identical aggregate — the
        property that makes chunked pool dispatch safe — and so do the
        runner's 32-run chunks, serially and over the pool."""
        cfg = gold_cfg()
        seeds = seed_schedule(5, 40)

        def folded(batch_size):
            agg = StatsAggregate()
            for lo in range(0, len(seeds), batch_size):
                for stats in run_bulk_batch(cfg, seeds[lo:lo + batch_size]):
                    agg.fold(stats)
            return MonteCarloResult("gold", cfg, len(seeds), aggregate=agg,
                                    engine="bulk")

        ref = folded(1)
        assert ref.aggregate.n_runs == 40
        try:
            others = [folded(7), folded(64)] + [
                estimate_p_loss(cfg, n_runs=40, base_seed=5, engine="bulk",
                                n_jobs=jobs) for jobs in (None, 2)]
        finally:
            shutdown_pool()
        for other in others:
            assert result_mismatches("gold", ref, other) == []


class TestModelGating:
    def test_accepts_the_golden_scenario(self):
        BulkLifetime(gold_cfg())
        BulkLifetime(gold_cfg(use_farm=False))

    @pytest.mark.parametrize("kw, fragment", [
        (dict(scheme=MirroredParity(2)), "set-based"),
        (dict(replacement_threshold=0.05), "replacement"),
        (dict(use_smart=True), "SMART"),
        (dict(workload_peak_load=0.5), "workload"),
        (dict(placement="rush"), "placement"),
    ])
    def test_rejects_inexpressible_features(self, kw, fragment):
        with pytest.raises(ValueError, match=fragment):
            BulkLifetime(gold_cfg(**kw))

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
        assert result.aggregate.disk_failures > 0

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
            assert result_mismatches(label, serial[label],
                                     parallel[label]) == []


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
        bulk = estimate_p_loss(cfg, n_runs=BULK_RUNS, base_seed=7,
                               engine="bulk")
        bulk_ci = bulk.p_loss
        assert bulk.aggregate.losses > 0   # the scenario does exercise loss
        assert overlap(des.p_loss, bulk_ci), (
            f"bulk [{bulk_ci.lo:.4f}, {bulk_ci.hi:.4f}] does not overlap "
            f"DES [{des.p_loss.lo:.4f}, {des.p_loss.hi:.4f}]")

    @pytest.mark.slow
    def test_traditional_ci_overlaps_des(self):
        cfg = gold_cfg(use_farm=False)
        des = estimate_p_loss(cfg, n_runs=DES_RUNS, base_seed=7)
        bulk = estimate_p_loss(cfg, n_runs=BULK_RUNS, base_seed=7,
                               engine="bulk")
        bulk_ci = bulk.p_loss
        assert bulk.aggregate.losses > 0
        assert overlap(des.p_loss, bulk_ci), (
            f"bulk [{bulk_ci.lo:.4f}, {bulk_ci.hi:.4f}] does not overlap "
            f"DES [{des.p_loss.lo:.4f}, {des.p_loss.hi:.4f}]")

    def test_farm_and_traditional_share_failure_draws(self):
        """Recovery mode must not perturb the failure process: the same
        seed sees the same disks fail either way."""
        farm = BulkLifetime(gold_cfg(), seed=21).run()
        trad = BulkLifetime(gold_cfg(use_farm=False), seed=21).run()
        assert farm.disk_failures == trad.disk_failures

    def test_windows_stream_untouched_by_farm_runs(self):
        """FARM never consumes bulk-windows: its first uniform is intact
        after a FARM lifetime with the same seed (stream independence)."""
        BulkLifetime(gold_cfg(), seed=123).run()
        assert float(RandomStreams(123).bulk("windows").random()) == \
            0.16538516375736811
