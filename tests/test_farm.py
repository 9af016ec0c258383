"""Behavioural tests for FARM recovery on the DES engine.

Each scripted test builds a system with stochastic failures off
(:class:`~repro.reliability.scenarios.ScriptedFailures`) and drives the
engine's public failure callback directly.
"""

import pytest

from repro.config import SystemConfig
from repro.redundancy import ECC_4_6
from repro.reliability import ReliabilitySimulation, ScriptedFailures
from repro.units import GB, TB, YEAR


def make(cfg_kw=None, seed=0):
    # 200 disks at 40 blocks each: big enough that FARM targets rarely
    # collide (so windows are queue-free), small enough to build fast.
    defaults = dict(total_user_bytes=40 * TB, group_user_bytes=10 * GB,
                    detection_latency=30.0)
    defaults.update(cfg_kw or {})
    cfg = SystemConfig(**defaults)
    farm = ReliabilitySimulation(cfg, seed=seed,
                                 failure_draw=ScriptedFailures())
    return cfg, farm, farm.sim


def healthy(farm, g):
    return farm.failed_count[g] == 0 and not farm.lost[g]


def utilization_bytes(farm):
    """Bytes stored on live disks (failed disks hold nothing)."""
    return sum(u for u, a in zip(farm.used_blocks, farm.alive)
               if a) * farm.block_bytes


def first_partner(farm, victim):
    """A group with a block on ``victim``, and another of its disks."""
    g, _ = farm.blocks_on(victim)[0]
    return g, next(d for d in farm.group_disks[g].tolist() if d != victim)


class TestSingleFailure:
    def test_all_blocks_rebuilt_in_parallel(self):
        cfg, farm, sim = make()
        victim = 0
        n_blocks = len(farm.blocks_on(victim))
        assert n_blocks > 0
        sim.schedule_at(100.0, farm.on_disk_failure, victim)
        sim.run(until=1 * YEAR)
        assert farm.stats.rebuilds_completed == n_blocks
        assert farm.stats.groups_lost == 0

    def test_window_is_detection_plus_one_block(self):
        """The defining FARM property: windows don't stack up."""
        cfg, farm, sim = make()
        sim.schedule_at(100.0, farm.on_disk_failure, 0)
        sim.run(until=1 * YEAR)
        expected = cfg.detection_latency + cfg.rebuild_seconds_per_block
        assert farm.stats.mean_window == pytest.approx(expected, rel=0.05)
        assert farm.stats.window_max <= expected * 3

    def test_rebuilds_wait_for_detection(self):
        cfg, farm, sim = make()
        sim.schedule_at(100.0, farm.on_disk_failure, 0)
        sim.run(until=100.0 + cfg.detection_latency - 1.0)
        assert farm.stats.rebuilds_completed == 0
        sim.run(until=1 * YEAR)
        assert farm.stats.rebuilds_completed > 0

    def test_groups_healthy_after_recovery(self):
        cfg, farm, sim = make()
        affected = [g for g, _ in farm.blocks_on(0)]
        sim.schedule_at(100.0, farm.on_disk_failure, 0)
        sim.run(until=1 * YEAR)
        for g in affected:
            assert healthy(farm, g)

    def test_rebuilt_blocks_go_to_distinct_targets_mostly(self):
        """Declustering: new replicas spread over many disks, not one
        dedicated spare (the contrast with Figure 2(c))."""
        cfg, farm, sim = make()
        failed_reps = farm.blocks_on(0)
        sim.schedule_at(100.0, farm.on_disk_failure, 0)
        sim.run(until=1 * YEAR)
        targets = [int(farm.group_disks[g, rep]) for g, rep in failed_reps]
        assert 0 not in targets
        assert len(set(targets)) > len(targets) * 0.6

    def test_utilization_accounting_after_rebuild(self):
        cfg, farm, sim = make()
        total_before = utilization_bytes(farm)
        sim.schedule_at(100.0, farm.on_disk_failure, 0)
        sim.run(until=1 * YEAR)
        total_after = utilization_bytes(farm)
        # the failed disk's bytes were re-created elsewhere
        assert total_after == pytest.approx(total_before, rel=0.01)


class TestDataLoss:
    def test_mirror_partner_failure_during_window_loses_group(self):
        cfg, farm, sim = make()
        g, partner = first_partner(farm, 0)
        sim.schedule_at(100.0, farm.on_disk_failure, 0)
        # partner dies within the detection window -> loss
        sim.schedule_at(110.0, farm.on_disk_failure, partner)
        sim.run(until=1 * YEAR)
        assert farm.lost[g]
        assert farm.stats.groups_lost >= 1
        assert farm.stats.first_loss_time == 110.0

    def test_partner_failure_after_rebuild_is_safe(self):
        cfg, farm, sim = make()
        g, partner = first_partner(farm, 0)
        sim.schedule_at(100.0, farm.on_disk_failure, 0)
        sim.schedule_at(100.0 + 10 * 24 * 3600, farm.on_disk_failure,
                        partner)
        sim.run(until=1 * YEAR)
        assert not farm.lost[g]

    def test_ecc_tolerates_overlapping_failure(self):
        cfg, farm, sim = make(dict(scheme=ECC_4_6))
        g, partner = first_partner(farm, 0)
        sim.schedule_at(100.0, farm.on_disk_failure, 0)
        sim.schedule_at(110.0, farm.on_disk_failure, partner)
        sim.run(until=1 * YEAR)
        assert not farm.lost[g]      # tolerance 2
        assert healthy(farm, g)

    def test_lost_group_rebuilds_cancelled(self):
        cfg, farm, sim = make()
        g, partner = first_partner(farm, 0)
        sim.schedule_at(100.0, farm.on_disk_failure, 0)
        sim.schedule_at(110.0, farm.on_disk_failure, partner)
        sim.run(until=1 * YEAR)
        # no rebuild may "revive" a lost group
        assert farm.lost[g] and farm.failed_count[g] == 2


class TestRedirection:
    def test_target_failure_redirects_and_completes(self):
        cfg, farm, sim = make()
        sim.schedule_at(100.0, farm.on_disk_failure, 0)
        # find the chosen target right after jobs start, then kill it
        def kill_a_target():
            jobs = [j for jobs in farm._jobs_by_target.values()
                    for j in jobs]
            if jobs:
                farm.on_disk_failure(jobs[0].target)
        sim.schedule_at(100.0 + cfg.detection_latency + 1.0, kill_a_target)
        sim.run(until=1 * YEAR)
        assert farm.stats.target_redirections >= 1
        # every group ends resolved: fully rebuilt, or lost because the
        # second failure overlapped a window — never stuck degraded
        assert ((farm.failed_count == 0) | farm.lost).all()

    def test_redirection_rare_in_normal_lifetime(self):
        """§2.3: fewer than 8% of systems see a redirection in 6 years."""
        hits = 0
        for seed in range(10):
            stats = ReliabilitySimulation(SystemConfig(
                total_user_bytes=20 * TB, group_user_bytes=10 * GB),
                seed=seed).run()
            hits += stats.target_redirections > 0
        assert hits <= 2


class TestReplacementIntegration:
    def test_batches_added_and_migration_counted(self):
        cfg = SystemConfig(total_user_bytes=20 * TB,
                           group_user_bytes=10 * GB,
                           replacement_threshold=0.02)
        farm = ReliabilitySimulation(cfg, seed=3)
        stats = farm.run()
        assert stats.replacement_batches >= 1
        assert stats.blocks_migrated > 0
        assert farm.total_disks > cfg.n_disks

    def test_run_determinism(self):
        cfg = SystemConfig(total_user_bytes=10 * TB,
                           group_user_bytes=10 * GB)
        a = ReliabilitySimulation(cfg, seed=11).run()
        b = ReliabilitySimulation(cfg, seed=11).run()
        assert a == b
