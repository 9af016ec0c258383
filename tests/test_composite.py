"""Tests for mixed redundancy schemes (repro.redundancy.composite)."""

import itertools

import pytest

from repro.config import SystemConfig
from repro.redundancy import MIRROR_2, MIRROR_3, is_threshold_scheme
from repro.redundancy.composite import (MirroredParity, exhaustive_tolerance,
                                        pattern_is_lost, survival_fraction)
from repro.units import GB, TB


@pytest.fixture
def mp():
    return MirroredParity(4)


class TestAlgebra:
    def test_geometry(self, mp):
        assert mp.n == 10
        assert mp.storage_efficiency == pytest.approx(0.4)
        assert mp.stretch == pytest.approx(2.5)
        assert mp.block_bytes(10 * GB) == 2.5 * GB

    def test_position_mapping(self, mp):
        assert mp.position_of(0) == (0, 0)
        assert mp.position_of(4) == (0, 4)      # copy 0 parity
        assert mp.position_of(7) == (1, 2)
        with pytest.raises(ValueError):
            mp.position_of(10)

    def test_validation(self):
        with pytest.raises(ValueError):
            MirroredParity(0)

    def test_not_threshold(self, mp):
        assert not is_threshold_scheme(mp)
        assert is_threshold_scheme(MIRROR_2)


class TestSurvivalPredicate:
    def test_any_three_losses_survive(self, mp):
        for pattern in itertools.combinations(range(10), 3):
            assert not mp.is_lost(set(pattern)), pattern

    def test_paired_four_losses_fatal(self, mp):
        # both copies of stripe indexes 1 and 3
        assert mp.is_lost({1, 6, 3, 8})

    def test_unpaired_four_losses_survive(self, mp):
        # one whole mirror copy minus one block: all indexes single-dead
        assert not mp.is_lost({0, 1, 2, 3})

    def test_whole_copy_lost_survives(self, mp):
        """An entire mirror (5 blocks) dying leaves the other copy intact."""
        assert not mp.is_lost({0, 1, 2, 3, 4})

    def test_exhaustive_tolerance_matches_declared(self, mp):
        assert exhaustive_tolerance(mp) == mp.tolerance == 3

    def test_exhaustive_tolerance_threshold_schemes(self):
        assert exhaustive_tolerance(MIRROR_2) == 1
        assert exhaustive_tolerance(MIRROR_3) == 2

    def test_survival_fractions(self, mp):
        assert survival_fraction(mp, 3) == 1.0
        # fatal 4-patterns = choose 2 of the 5 stripe indexes fully dead
        assert survival_fraction(mp, 4) == pytest.approx(200 / 210)
        assert survival_fraction(mp, 11) == 0.0
        assert survival_fraction(MIRROR_2, 2) == 0.0

    def test_survival_fraction_validation(self, mp):
        with pytest.raises(ValueError):
            survival_fraction(mp, -1)

    def test_pattern_is_lost_threshold_path(self):
        assert pattern_is_lost(MIRROR_2, {0, 1})
        assert not pattern_is_lost(MIRROR_2, {1})


class TestGroupIntegration:
    def test_group_uses_set_based_predicate(self, mp):
        from repro.reliability import ReliabilitySimulation, ScriptedFailures
        cfg = SystemConfig(total_user_bytes=10 * TB,
                           group_user_bytes=10 * GB, scheme=mp)
        engine = ReliabilitySimulation(cfg, seed=0,
                                       failure_draw=ScriptedFailures())
        disks = engine.group_disks[0].tolist()
        sim = engine.sim

        def fail_rep(rep, t):
            sim.schedule_at(t, engine.on_disk_failure, disks[rep])
            sim.run(until=t)

        # three failures, including a fully-dead stripe index: not lost
        fail_rep(2, 1.0)
        fail_rep(7, 2.0)      # both copies of index 2
        fail_rep(0, 3.0)
        assert not engine.lost[0]
        # second fully-dead index -> lost
        fail_rep(5, 4.0)      # pairs with block 0 (index 0)
        assert engine.lost[0] and engine.stats.first_loss_time == 4.0

    def test_des_lifetime_runs(self, mp):
        from repro.reliability import ReliabilitySimulation
        cfg = SystemConfig(total_user_bytes=10 * TB,
                           group_user_bytes=10 * GB, scheme=mp)
        stats = ReliabilitySimulation(cfg, seed=1).run()
        assert stats.rebuilds_completed >= 0   # runs to completion


class TestPropertyBased:
    """Hypothesis checks of the survival predicate's structure."""

    from hypothesis import given, settings, strategies as st

    @given(st.integers(1, 6), st.data())
    @settings(max_examples=40, deadline=None)
    def test_is_lost_monotone_in_failures(self, m, data):
        """Adding a failure can never resurrect a lost group."""
        from hypothesis import strategies as st
        mp = MirroredParity(m)
        failed = data.draw(st.sets(st.integers(0, mp.n - 1),
                                   max_size=mp.n))
        if mp.is_lost(failed):
            extra = data.draw(st.integers(0, mp.n - 1))
            assert mp.is_lost(failed | {extra})

    @given(st.integers(1, 6), st.data())
    @settings(max_examples=40, deadline=None)
    def test_is_lost_matches_bruteforce(self, m, data):
        """Cross-check against an independent statement of the rule:
        lost iff at least two stripe indexes have both copies failed."""
        from hypothesis import strategies as st
        mp = MirroredParity(m)
        failed = data.draw(st.sets(st.integers(0, mp.n - 1),
                                   max_size=mp.n))
        # index idx is dead iff both its reps (idx and idx+m+1) failed
        dead_indexes = sum(
            1 for idx in range(m + 1)
            if idx in failed and (idx + m + 1) in failed)
        assert mp.is_lost(failed) == (dead_indexes >= 2)

    @given(st.integers(1, 5))
    @settings(max_examples=10, deadline=None)
    def test_whole_mirror_always_survivable(self, m):
        """Losing one entire copy (m+1 blocks) never loses data."""
        mp = MirroredParity(m)
        assert not mp.is_lost(set(range(m + 1)))
        assert not mp.is_lost(set(range(m + 1, 2 * (m + 1))))
