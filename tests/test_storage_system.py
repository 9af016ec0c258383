"""Tests for the DES engine's system state: construction, disk failure,
spares and replacement batches, migration, SMART, and the disk -> blocks
index (:class:`~repro.reliability.simulation.ReliabilitySimulation`)."""

import numpy as np
import pytest

from repro.config import SystemConfig
from repro.redundancy import ECC_4_6
from repro.reliability import ReliabilitySimulation, ScriptedFailures
from repro.units import GB, TB


def small_config(**kw):
    defaults = dict(total_user_bytes=20 * TB, group_user_bytes=10 * GB)
    defaults.update(kw)
    return SystemConfig(**defaults)


def build(seed=0, **kw):
    return ReliabilitySimulation(small_config(**kw), seed=seed)


def fail_now(engine, disk, now):
    engine.sim.schedule_at(now, engine.on_disk_failure, disk)
    engine.sim.run(until=now)


def utilization_bytes(engine):
    """Per-disk used bytes (0 for failed disks, matching Figure 6)."""
    used = np.array(engine.used_blocks[:engine.total_disks], dtype=float)
    alive = np.array(engine.alive[:engine.total_disks])
    return np.where(alive, used * engine.block_bytes, 0.0)


@pytest.fixture
def system():
    return build()


class TestConstruction:
    def test_geometry(self, system):
        cfg = system.cfg
        assert system.total_disks == cfg.n_disks == system.N0
        assert system.group_disks.shape == (cfg.n_groups, cfg.scheme.n)

    def test_groups_on_distinct_disks(self, system):
        for row in system.group_disks[:200]:
            assert len(set(row.tolist())) == system.n

    def test_utilization_near_target(self, system):
        util = utilization_bytes(system)
        mean_frac = util.mean() / system.cfg.vintage.capacity_bytes
        assert mean_frac == pytest.approx(
            system.cfg.target_utilization, rel=0.15)

    def test_used_bytes_consistent_with_block_count(self, system):
        assert system.used_blocks[0] == len(system.blocks_on(0))

    def test_failure_times_sampled_for_all(self, system):
        assert (system.fail_time[:system.N0] > 0).all()
        assert np.isfinite(system.fail_time[:system.N0]).all()

    def test_deterministic_for_seed(self):
        a, b = build(seed=5), build(seed=5)
        assert np.array_equal(a.fail_time, b.fail_time)
        assert np.array_equal(a.group_disks[17], b.group_disks[17])

    def test_rush_placement_option(self):
        sys_rush = build(placement="rush")
        assert type(sys_rush.placement).__name__ == "RushPlacement"


class TestFailure:
    def test_fail_disk_returns_affected_reps(self, system):
        before = system.blocks_on(3)
        fail_now(system, 3, 100.0)
        assert not system.alive[3]
        for g, rep in before:
            assert system.group_disks[g, rep] == -1
            assert system.failed_count[g] >= 1

    def test_groups_on_disk_excludes_failed_blocks(self, system):
        before = len(system.blocks_on(3))
        fail_now(system, 3, 1.0)
        assert len(system.blocks_on(3)) == 0
        assert before > 0

    def test_double_failure_rejected(self, system):
        fail_now(system, 3, 1.0)
        fail_now(system, 3, 2.0)        # a second death is ignored
        assert system.stats.disk_failures == 1

    def test_utilization_zero_for_failed_disk(self, system):
        fail_now(system, 3, 1.0)
        assert utilization_bytes(system)[3] == 0.0

    def test_mirror_group_lost_on_both_disks_failing(self):
        system = ReliabilitySimulation(small_config(), seed=2,
                                       failure_draw=ScriptedFailures())
        d0, d1 = system.group_disks[0].tolist()
        fail_now(system, d0, 1.0)
        fail_now(system, d1, 2.0)
        assert system.lost[0] and system.stats.first_loss_time == 2.0


class TestSparesAndBatches:
    def test_add_spare_outside_placement(self, system):
        n = system.placement.n_disks
        [spare] = system._new_disks(1, now=10.0, slot=0)
        assert spare == n                       # next id
        assert system.placement.n_disks == n    # placement unchanged
        assert system.deploy_time[spare] == 10.0

    def test_add_batch_grows_placement(self, system):
        n = system.total_disks
        ids = system._new_disks(10, now=5.0)
        assert ids.tolist() == list(range(n, n + 10))
        assert system.total_disks == n + 10

    def test_batch_disks_get_failure_times(self, system):
        ids = system._new_disks(5, now=5.0)
        assert (system.fail_time[ids] > 5.0).all()

    def test_migrate_to_batch_balances(self):
        system = build(seed=1, placement="rush")
        ids = system._new_disks(10, now=0.0)
        system._migrate(ids, now=0.0)
        assert system.stats.blocks_migrated > 0
        util = utilization_bytes(system)
        assert util[ids].mean() == pytest.approx(util.mean(), rel=0.5)

    def test_migration_preserves_distinctness(self):
        system = build(seed=3, scheme=ECC_4_6)
        ids = system._new_disks(8, now=0.0)
        system._migrate(ids, now=0.0)
        for row in system.group_disks:
            live = row[row >= 0].tolist()
            assert len(live) == len(set(live))

    def test_migration_skips_full_targets(self):
        system = build(seed=2)
        ids = system._new_disks(10, now=0.0)
        for d in ids:
            system.used_blocks[d] = system.capacity_blocks
        system._migrate(ids, now=0.0)
        assert system.stats.blocks_migrated == 0
        for d in ids:
            assert system.used_blocks[d] == system.capacity_blocks

    def test_migration_never_overfills_partial_room(self):
        """Rebalancing is placement: it fills a batch drive only up to
        the spare reserve, leaving the reserve to recovery."""
        system = build(seed=2)
        reserve = int(system.capacity_blocks
                      * system.cfg.spare_reserve_fraction)
        assert reserve > 0
        limit = system.capacity_blocks - reserve
        ids = system._new_disks(10, now=0.0)
        for d in ids:    # room for exactly one more block each
            system.used_blocks[d] = limit - 1
        system._migrate(ids, now=0.0)
        assert 0 < system.stats.blocks_migrated <= len(ids)
        for d in ids:
            assert system.used_blocks[d] <= limit


class TestSmartIntegration:
    def test_no_monitor_means_never_suspect(self, system):
        assert not system._smart_suspect(0, now=0.0)

    def test_monitor_enabled_flags_imminent_failures(self):
        system = build(seed=4, use_smart=True)
        # Ask right before each disk's known failure time: with detection
        # probability 0.4 over many disks, some must be flagged.
        flagged = sum(
            system._smart_suspect(d, now=system.fail_time[d] - 3600.0)
            for d in range(system.total_disks))
        assert flagged > 0


class TestBlockIndex:
    def test_index_matches_group_state(self):
        """After failures, rebuilds, a batch and migration, the
        disk -> blocks index lists exactly the live blocks on each disk."""
        system = ReliabilitySimulation(small_config(), seed=3,
                                       failure_draw=ScriptedFailures())
        fail_now(system, 7, 1.0)
        system.sim.run(until=3600.0)
        ids = system._new_disks(10, now=3600.0)
        system._migrate(ids, now=3600.0)
        truth = {}
        for g, row in enumerate(system.group_disks.tolist()):
            for rep, d in enumerate(row):
                if d >= 0:
                    truth.setdefault(d, set()).add((g, rep))
        for d in range(system.total_disks):
            entries = system.blocks_on(d)
            assert len(entries) == len(set(entries))
            assert set(entries) == truth.get(d, set())
