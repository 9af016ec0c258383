"""Tests for the flat-array reliability engine
(repro.reliability.simulation)."""

import dataclasses

import numpy as np
import pytest

from repro.config import SystemConfig
from repro.redundancy import ECC_4_6, MIRROR_3
from repro.reliability import ReliabilitySimulation
from repro.units import GB, TB, YEAR


def cfg(**kw):
    defaults = dict(total_user_bytes=40 * TB, group_user_bytes=10 * GB)
    defaults.update(kw)
    return SystemConfig(**defaults)


class TestConstruction:
    def test_geometry_arrays(self):
        sim = ReliabilitySimulation(cfg(), seed=0)
        assert sim.group_disks.shape == (4000, 2)
        assert np.asarray(sim.alive)[:sim.N0].all()
        assert np.asarray(sim.used_blocks)[:sim.N0].sum() == 8000

    def test_group_disks_distinct(self):
        sim = ReliabilitySimulation(cfg(scheme=ECC_4_6), seed=0)
        srt = np.sort(sim.group_disks, axis=1)
        assert not (srt[:, 1:] == srt[:, :-1]).any()

    def test_block_index_covers_all_blocks(self):
        sim = ReliabilitySimulation(cfg(), seed=1)
        total = sum(len(sim.blocks_on(d)) for d in range(sim.N0))
        assert total == sim.group_disks.size

    def test_rush_placement_option(self):
        sim = ReliabilitySimulation(cfg(placement="rush"), seed=0)
        assert type(sim.placement).__name__ == "RushPlacement"


class TestRunOutcomes:
    def test_every_failure_produces_rebuilds(self):
        sim = ReliabilitySimulation(cfg(), seed=2)
        stats = sim.run()
        assert stats.disk_failures > 0
        assert stats.rebuilds_completed > 0
        # every non-lost group ends fully populated
        live = ~sim.lost
        assert (sim.failed_count[live] == 0).all()
        assert (sim.group_disks[live] >= 0).all()

    def test_farm_windows_short(self):
        c = cfg()
        stats = ReliabilitySimulation(c, seed=3).run()
        expected = c.detection_latency + c.rebuild_seconds_per_block
        assert stats.mean_window == pytest.approx(expected, rel=0.25)

    def test_traditional_windows_long(self):
        c = cfg(use_farm=False)
        stats = ReliabilitySimulation(c, seed=3).run()
        assert stats.mean_window > 5 * (
            c.detection_latency + c.rebuild_seconds_per_block)

    def test_deterministic_per_seed(self):
        a = ReliabilitySimulation(cfg(), seed=9).run()
        b = ReliabilitySimulation(cfg(), seed=9).run()
        assert a == b

    def test_different_seeds_differ(self):
        a = ReliabilitySimulation(cfg(), seed=1).run()
        b = ReliabilitySimulation(cfg(), seed=2).run()
        assert a != b

    def test_lost_groups_stay_lost(self):
        """Run many small, failure-heavy systems; lost groups must never
        be resurrected by a late rebuild completion."""
        c = cfg(total_user_bytes=10 * TB,
                vintage=cfg().vintage.with_rate_multiplier(20.0))
        sim = ReliabilitySimulation(c, seed=5)
        stats = sim.run()
        assert stats.groups_lost == sim.lost.sum()
        assert stats.groups_lost == len(sim.groups_lost_ids)
        for g in sim.groups_lost_ids:
            assert sim.lost[g]

    def test_no_buddy_colocation_ever(self):
        """Invariant: live blocks of a group stay on distinct disks, even
        under heavy failure/rebuild churn."""
        c = cfg(scheme=ECC_4_6,
                vintage=cfg().vintage.with_rate_multiplier(10.0))
        sim = ReliabilitySimulation(c, seed=7)
        sim.run()
        gd = sim.group_disks[~sim.lost]
        filler = -np.arange(gd.size).reshape(gd.shape) - 1
        placed = np.where(gd >= 0, gd, filler)
        srt = np.sort(placed, axis=1)
        assert not ((srt[:, 1:] == srt[:, :-1]) & (srt[:, 1:] >= 0)).any()

    def test_used_blocks_conserved(self):
        sim = ReliabilitySimulation(cfg(), seed=4)
        sim.run()
        live_blocks = (sim.group_disks >= 0).sum()
        alive_mask = np.asarray(sim.alive)[:sim.total_disks]
        counted = np.asarray(sim.used_blocks)[:sim.total_disks][
            alive_mask].sum()
        # used_blocks on dead disks is stale by design; live counts match
        expected = sum(
            1 for d in range(sim.total_disks) if alive_mask[d]
            for _ in sim.blocks_on(d))
        assert counted >= expected      # allocation never under-counts


class TestSchemes:
    def test_three_way_mirroring_rarely_loses(self):
        c = cfg(scheme=MIRROR_3)
        losses = sum(ReliabilitySimulation(c, seed=s).run().groups_lost
                     for s in range(3))
        assert losses == 0

    def test_ecc_run_completes(self):
        stats = ReliabilitySimulation(cfg(scheme=ECC_4_6), seed=0).run()
        assert stats.rebuilds_completed > 0


class TestReplacement:
    def test_batches_trigger_at_threshold(self):
        c = cfg(total_user_bytes=100 * TB, replacement_threshold=0.02)
        sim = ReliabilitySimulation(c, seed=1)
        stats = sim.run()
        if stats.disk_failures >= 0.02 * sim.N0:
            assert stats.replacement_batches >= 1
            assert stats.blocks_migrated > 0
            assert sim.total_disks > sim.N0

    def test_migration_preserves_distinctness(self):
        c = cfg(total_user_bytes=100 * TB, scheme=ECC_4_6,
                replacement_threshold=0.02)
        sim = ReliabilitySimulation(c, seed=2)
        sim.run()
        gd = sim.group_disks[~sim.lost]
        mask = gd >= 0
        for row, m in zip(gd, mask):
            live = row[m]
            assert len(set(live.tolist())) == live.size


class TestMigrationCapacity:
    """Regression: ``_migrate`` used to move blocks onto replacement
    drives without checking ``used_blocks < capacity_blocks``."""

    @staticmethod
    def small_disk_cfg(**kw):
        """Drives holding at most two 10 GB blocks, so capacity pressure
        on a replacement batch is real."""
        vintage = dataclasses.replace(cfg().vintage,
                                      capacity_bytes=25 * GB)
        defaults = dict(total_user_bytes=1 * TB, target_utilization=0.35,
                        vintage=vintage)
        defaults.update(kw)
        return cfg(**defaults)

    def test_full_targets_receive_nothing(self):
        c = self.small_disk_cfg()
        sim = ReliabilitySimulation(c, seed=0)
        assert sim.capacity_blocks == 2
        new_ids = sim._new_disks(40, now=0.0)
        # Saturate the batch (as in-flight rebuild reservations would).
        for d in new_ids:
            sim.used_blocks[d] = sim.capacity_blocks
        sim._migrate(new_ids, 0.0)
        assert sim.stats.blocks_migrated == 0
        assert (np.asarray(sim.used_blocks)[new_ids]
                == sim.capacity_blocks).all()

    def test_partial_room_is_respected(self):
        c = self.small_disk_cfg()
        sim = ReliabilitySimulation(c, seed=1)
        new_ids = sim._new_disks(60, now=0.0)
        for d in new_ids:
            sim.used_blocks[d] = sim.capacity_blocks - 1
        sim._migrate(new_ids, 0.0)
        assert sim.stats.blocks_migrated > 0
        # Each target had room for exactly one more block.  (Original
        # disks are excluded: the random *initial* placement ignores
        # per-disk capacity, which only matters in this shrunken
        # geometry.)
        assert (np.asarray(sim.used_blocks)[new_ids]
                <= sim.capacity_blocks).all()

    def test_lifetime_with_batches_never_overfills(self):
        c = self.small_disk_cfg(
            replacement_threshold=0.02,
            vintage=dataclasses.replace(
                cfg().vintage,
                capacity_bytes=25 * GB).with_rate_multiplier(10.0))
        sim = ReliabilitySimulation(c, seed=3)
        stats = sim.run()
        assert stats.replacement_batches > 0
        # Every drive added after t=0 (spares and batches) gained blocks
        # only through capacity-checked paths: rebuild targeting and
        # migration.  None may exceed the physical capacity.
        assert (np.asarray(sim.used_blocks)[sim.N0:sim.total_disks]
                <= sim.capacity_blocks).all()


class TestWorkload:
    def test_diurnal_load_stretches_windows(self):
        base = ReliabilitySimulation(cfg(), seed=6).run()
        loaded = ReliabilitySimulation(
            cfg(workload_peak_load=0.8), seed=6).run()
        assert loaded.mean_window > base.mean_window


class TestGrowth:
    def test_disk_array_growth_beyond_headroom(self):
        """Force enough spares to exceed the preallocated capacity."""
        c = cfg(total_user_bytes=10 * TB, use_farm=False,
                vintage=cfg().vintage.with_rate_multiplier(30.0))
        sim = ReliabilitySimulation(c, seed=0)
        stats = sim.run()
        assert sim.total_disks > sim.N0
        assert stats.rebuilds_completed > 0
