"""Tests for RUSH-style placement (repro.placement.rush)."""

import numpy as np
import pytest

from repro.placement import (PlacementError, RushPlacement, analyze,
                             disk_loads)


@pytest.fixture
def rush():
    return RushPlacement(initial_disks=200, seed=42)


class TestDeterminism:
    def test_same_seed_same_map(self):
        a = RushPlacement(100, seed=1).place_many(np.arange(1000), 3)
        b = RushPlacement(100, seed=1).place_many(np.arange(1000), 3)
        assert np.array_equal(a, b)

    def test_different_seed_different_map(self):
        a = RushPlacement(100, seed=1).place_many(np.arange(1000), 3)
        b = RushPlacement(100, seed=2).place_many(np.arange(1000), 3)
        assert not np.array_equal(a, b)

    def test_scalar_matches_vector(self, rush):
        vec = rush.place_many(np.arange(50), 4)
        for g in range(50):
            assert rush.place_group(g, 4) == vec[g].tolist()


class TestCandidateLists:
    def test_candidates_distinct(self, rush):
        c = rush.candidates(5, 50)
        assert len(c) == 50 and len(set(c)) == 50

    def test_prefix_stability(self, rush):
        """candidates(g, k) must be a prefix of candidates(g, k+j) — FARM
        recovery targets extend the original placement."""
        short = rush.candidates(9, 4)
        long = rush.candidates(9, 20)
        assert long[:4] == short

    def test_candidates_in_range(self, rush):
        assert all(0 <= d < rush.n_disks for d in rush.candidates(3, 30))

    def test_too_many_candidates_rejected(self):
        rp = RushPlacement(5, seed=0)
        with pytest.raises(PlacementError):
            rp.candidates(0, 6)

    def test_full_coverage_possible(self):
        rp = RushPlacement(8, seed=3)
        assert sorted(rp.candidates(1, 8)) == list(range(8))


class TestBalance:
    def test_load_close_to_binomial(self, rush):
        pl = rush.place_many(np.arange(40_000), 2)
        report = analyze(disk_loads(pl, rush.n_disks))
        # 80k blocks over 200 disks: mean 400, binomial std ~20 (cv ~0.05)
        assert report.mean == pytest.approx(400.0)
        assert report.cv < 0.10
        assert report.max_over_mean < 1.35

    def test_weighted_clusters_get_proportional_load(self):
        rp = RushPlacement(100, weight=1.0, seed=9)
        rp.add_cluster(100, weight=3.0)    # same size, 3x weight
        pl = rp.place_many(np.arange(100_000), 1).ravel()
        old_share = (pl < 100).mean()
        assert old_share == pytest.approx(0.25, abs=0.02)


class TestGrowth:
    def test_migration_fraction_equals_share(self):
        rp = RushPlacement(1000, seed=5)
        before = rp.place_many(np.arange(30_000), 2)
        rp.add_cluster(111)
        after = rp.place_many(np.arange(30_000), 2)
        moved = (before != after).mean()
        assert moved == pytest.approx(111 / 1111, abs=0.02)

    def test_moved_blocks_land_on_new_cluster(self):
        rp = RushPlacement(1000, seed=5)
        before = rp.place_many(np.arange(30_000), 2)
        rp.add_cluster(100)
        after = rp.place_many(np.arange(30_000), 2)
        landed = after[before != after]
        assert (landed >= 1000).mean() > 0.98

    def test_growth_in_steps_keeps_balance(self):
        rp = RushPlacement(300, seed=8)
        rp.add_cluster(150)
        rp.add_cluster(150)
        pl = rp.place_many(np.arange(60_000), 2)
        assert pl.shape == (60_000, 2)
        report = analyze(disk_loads(pl, rp.n_disks))
        assert report.cv < 0.12

    def test_disk_ids_contiguous_across_clusters(self):
        rp = RushPlacement(10, seed=0)
        sc = rp.add_cluster(5)
        assert sc.start == 10 and rp.n_disks == 15

    def test_invalid_cluster(self):
        rp = RushPlacement(10, seed=0)
        with pytest.raises(ValueError):
            rp.add_cluster(0)
        with pytest.raises(ValueError):
            rp.add_cluster(5, weight=0.0)


class TestDistinctness:
    def test_place_many_rows_distinct(self, rush):
        pl = rush.place_many(np.arange(20_000), 8)
        srt = np.sort(pl, axis=1)
        assert not (srt[:, 1:] == srt[:, :-1]).any()

    def test_place_more_than_disks_rejected(self):
        rp = RushPlacement(4, seed=0)
        with pytest.raises(PlacementError):
            rp.place_many(np.arange(5), 5)

    def test_small_system_dedup_fixup(self):
        """With n comparable to n_disks, the duplicate-fix path engages."""
        rp = RushPlacement(6, seed=1)
        pl = rp.place_many(np.arange(500), 5)
        srt = np.sort(pl, axis=1)
        assert not (srt[:, 1:] == srt[:, :-1]).any()
