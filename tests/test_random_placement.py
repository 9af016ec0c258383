"""Tests for vectorized random placement
(repro.placement.random_placement)."""

import numpy as np
import pytest

from repro.placement import PlacementError, RandomPlacement


class TestDeterminism:
    def test_pure_function_of_seed_and_group(self):
        a = RandomPlacement(500, seed=3).place_many(np.arange(10_000), 2)
        b = RandomPlacement(500, seed=3).place_many(np.arange(10_000), 2)
        assert np.array_equal(a, b)

    def test_scalar_candidates_match_prefix_property(self):
        rp = RandomPlacement(100, seed=1)
        assert rp.candidates(7, 3) == rp.candidates(7, 10)[:3]

    def test_seed_changes_map(self):
        a = RandomPlacement(500, seed=3).place_many(np.arange(1000), 2)
        b = RandomPlacement(500, seed=4).place_many(np.arange(1000), 2)
        assert not np.array_equal(a, b)


class TestDistinctness:
    @pytest.mark.parametrize("n", [2, 3, 6, 10])
    def test_no_duplicate_disks_within_group(self, n):
        rp = RandomPlacement(1000, seed=0)
        pl = rp.place_many(np.arange(50_000), n)
        assert pl.shape == (50_000, n)
        srt = np.sort(pl, axis=1)
        assert not (srt[:, 1:] == srt[:, :-1]).any()

    def test_tight_system_still_distinct(self):
        rp = RandomPlacement(12, seed=2)
        pl = rp.place_many(np.arange(2000), 10)
        srt = np.sort(pl, axis=1)
        assert not (srt[:, 1:] == srt[:, :-1]).any()

    def test_impossible_request_rejected(self):
        rp = RandomPlacement(3, seed=0)
        with pytest.raises(PlacementError):
            rp.place_many(np.arange(5), 4)
        with pytest.raises(PlacementError):
            rp.candidates(0, 4)


class TestBalance:
    def test_uniform_load(self):
        rp = RandomPlacement(250, seed=9)
        pl = rp.place_many(np.arange(50_000), 2)
        loads = np.bincount(pl.ravel(), minlength=250)
        assert loads.mean() == pytest.approx(400.0)
        assert loads.std() / loads.mean() < 0.10


class TestGrowth:
    def test_add_disks_extends_range(self):
        rp = RandomPlacement(100, seed=0)
        rp.add_disks(50)
        assert rp.n_disks == 150
        pl = rp.place_many(np.arange(30_000), 1).ravel()
        assert pl.max() >= 100      # new disks get load

    def test_add_disks_validation(self):
        with pytest.raises(ValueError):
            RandomPlacement(10, seed=0).add_disks(0)
