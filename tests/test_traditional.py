"""Behavioural tests for traditional RAID recovery on the DES engine."""

import pytest

from repro.config import SystemConfig
from repro.reliability import ReliabilitySimulation, ScriptedFailures
from repro.units import GB, TB, YEAR


def make(cfg_kw=None, seed=0):
    defaults = dict(total_user_bytes=40 * TB, group_user_bytes=10 * GB,
                    detection_latency=30.0, use_farm=False)
    defaults.update(cfg_kw or {})
    cfg = SystemConfig(**defaults)
    trad = ReliabilitySimulation(cfg, seed=seed,
                                 failure_draw=ScriptedFailures())
    return cfg, trad, trad.sim


def spares_provisioned(trad):
    """Spares are the only disks a traditional run adds."""
    return trad.total_disks - trad.N0


class TestSerializedRebuild:
    def test_one_spare_per_failed_disk(self):
        cfg, trad, sim = make()
        n_before = trad.total_disks
        sim.schedule_at(100.0, trad.on_disk_failure, 0)
        sim.run(until=1 * YEAR)
        assert spares_provisioned(trad) == 1
        assert trad.total_disks == n_before + 1

    def test_rebuilds_complete_serially(self):
        """Completions are spaced one block-rebuild apart: the queue."""
        cfg, trad, sim = make()
        n_blocks = len(trad.blocks_on(0))
        sim.schedule_at(100.0, trad.on_disk_failure, 0)
        sim.run(until=1 * YEAR)
        assert trad.stats.rebuilds_completed == n_blocks
        t_block = cfg.rebuild_seconds_per_block
        # k-th completion at detect + k * t_block => max window covers the
        # whole queue
        expected_max = cfg.detection_latency + n_blocks * t_block
        assert trad.stats.window_max == pytest.approx(expected_max, rel=0.01)
        expected_mean = cfg.detection_latency + (n_blocks + 1) / 2 * t_block
        assert trad.stats.mean_window == pytest.approx(expected_mean,
                                                       rel=0.01)

    def test_all_blocks_land_on_spare(self):
        cfg, trad, sim = make()
        failed_reps = trad.blocks_on(0)
        sim.schedule_at(100.0, trad.on_disk_failure, 0)
        sim.run(until=1 * YEAR)
        spare = trad.total_disks - 1
        targets = {int(trad.group_disks[g, rep]) for g, rep in failed_reps}
        assert targets == {spare}

    def test_window_much_longer_than_farm(self):
        """The paper's core contrast, at identical geometry."""
        cfg, trad, sim = make()
        sim.schedule_at(100.0, trad.on_disk_failure, 0)
        sim.run(until=1 * YEAR)

        farm = ReliabilitySimulation(cfg.with_(use_farm=True), seed=0,
                                     failure_draw=ScriptedFailures())
        farm.sim.schedule_at(100.0, farm.on_disk_failure, 0)
        farm.sim.run(until=1 * YEAR)

        assert trad.stats.mean_window > 10 * farm.stats.mean_window


class TestSpareFailure:
    def test_spare_death_redirects_pending_work(self):
        cfg, trad, sim = make()
        sim.schedule_at(100.0, trad.on_disk_failure, 0)

        def kill_spare():
            trad.on_disk_failure(trad.total_disks - 1)

        # kill the spare while most rebuilds are still queued
        sim.schedule_at(100.0 + cfg.detection_latency
                        + 2 * cfg.rebuild_seconds_per_block, kill_spare)
        sim.run(until=1 * YEAR)
        assert trad.stats.target_redirections > 0
        assert spares_provisioned(trad) >= 2
        # all groups resolved (rebuilt or counted lost)
        assert ((trad.failed_count == 0) | trad.lost).all()

    def test_second_disk_failure_gets_its_own_spare(self):
        cfg, trad, sim = make()
        sim.schedule_at(100.0, trad.on_disk_failure, 0)
        sim.schedule_at(200.0, trad.on_disk_failure, 1)
        sim.run(until=1 * YEAR)
        assert spares_provisioned(trad) == 2

    def test_loss_when_partner_fails_inside_queue_window(self):
        cfg, trad, sim = make()
        g, _ = trad.blocks_on(0)[0]
        partner = next(d for d in trad.group_disks[g].tolist() if d != 0)
        sim.schedule_at(100.0, trad.on_disk_failure, 0)
        # just after detection: (almost) the whole queue is still pending,
        # so the shared group's surviving replica is certainly unrebuilt
        sim.schedule_at(100.0 + cfg.detection_latency + 1.0,
                        trad.on_disk_failure, partner)
        sim.run(until=1 * YEAR)
        assert trad.lost[g]
        assert trad.stats.groups_lost > 0
