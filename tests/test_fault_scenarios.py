"""Scenario-level fault tests: graceful degradation under compound faults.

Covers the hardening acceptance cases: double failure during a rebuild,
the recovery target dying mid-rebuild (both recovery modes), the
deferred-rebuild retry queue draining once the world improves, and the
compound acceptance scenario — a 12-disk shelf burst plus transient
outages plus latent errors — running to completion under FARM and
traditional recovery with every deferral accounted for.
"""

import numpy as np
import pytest

from repro.config import SystemConfig
from repro.faults import (CorrelatedFailures, LatentSectorErrors, Scrubber,
                          TransientOutages)
from repro.reliability import ReliabilitySimulation, ScriptedFailures
from repro.reliability.scenarios import Scenario
from repro.units import DAY, GB, HOUR, TB

BOTH_ENGINES = pytest.mark.parametrize("use_farm", [True, False],
                                       ids=["farm", "traditional"])


def cfg(**kw):
    defaults = dict(total_user_bytes=40 * TB, group_user_bytes=10 * GB)
    defaults.update(kw)
    return SystemConfig(**defaults)


def make_manager(config, seed=0):
    engine = ReliabilitySimulation(config, seed=seed,
                                   failure_draw=ScriptedFailures())
    return engine, engine.sim


def unresolved(engine):
    """Groups stuck degraded: neither rebuilt nor lost, and with no
    rebuild in flight or scheduled (a block that failed just before the
    horizon may still be rebuilding when the run ends)."""
    in_flight = {g for g, jobs in engine._jobs_by_group.items() if jobs}
    in_flight.update(ev.args[0] for ev in engine.sim.pending()
                     if ev.name in ("detect", "redirect", "rebuild-retry"))
    degraded = np.flatnonzero((engine.failed_count > 0) & ~engine.lost)
    return np.array([g for g in degraded.tolist() if g not in in_flight])


def assert_resolved(engine):
    """Every group ends rebuilt or lost — never silently stuck — and the
    deferred queue is empty with all deferrals retried and accounted."""
    assert unresolved(engine).size == 0, unresolved(engine)
    assert len(engine._deferred) == 0
    assert engine.stats.retries >= engine.stats.rebuilds_deferred


class TestDoubleFailureDuringRebuild:
    @BOTH_ENGINES
    def test_partner_dies_inside_window(self, use_farm):
        out = (Scenario(cfg(use_farm=use_farm))
               .fail(disk=0, at=100.0)
               .fail_partners_of(0, at=130.0, count=1)
               .run(horizon=7 * DAY))
        assert not out.data_survived
        assert out.stats.first_loss_time == 130.0
        assert out.deferred_outstanding == 0
        # The loss is recorded, not silently stuck degraded.
        assert unresolved(out.system).size == 0

    @BOTH_ENGINES
    def test_unrelated_double_failure_recovers(self, use_farm):
        out = (Scenario(cfg(use_farm=use_farm))
               .fail(disk=0, at=100.0)
               .fail(disk=100, at=130.0)
               .run(horizon=7 * DAY))
        assert out.stats.disk_failures == 2
        assert out.stats.rebuilds_completed >= out.stats.rebuilds_started \
            - out.stats.rebuilds_deferred
        assert unresolved(out.system).size == 0


class TestTargetDiesMidRebuild:
    def test_farm_redirects(self):
        config = cfg()
        farm, sim = make_manager(config)
        sim.schedule_at(100.0, farm.on_disk_failure, 0)

        def kill_a_target():
            jobs = [j for jobs in farm._jobs_by_target.values()
                    for j in jobs]
            if jobs:
                farm.on_disk_failure(jobs[0].target)

        sim.schedule_at(100.0 + config.detection_latency + 1.0,
                        kill_a_target)
        sim.run(until=30 * DAY)
        assert farm.stats.target_redirections >= 1
        assert_resolved(farm)

    def test_traditional_spare_dies_mid_rebuild(self):
        config = cfg(use_farm=False)
        raid, sim = make_manager(config)
        sim.schedule_at(100.0, raid.on_disk_failure, 0)

        def kill_the_spare():
            spares = list(raid._spare_for.values())
            if spares:
                raid.on_disk_failure(spares[0])

        sim.schedule_at(2 * HOUR, kill_the_spare)
        sim.run(until=60 * DAY)
        assert raid.total_disks - raid.N0 >= 2      # spares provisioned
        assert raid.stats.target_redirections >= 1
        assert_resolved(raid)


class TestDeferredRetryQueue:
    def test_no_target_defers_and_drains_after_batch(self):
        """A 2-disk mirror system has no admissible FARM target once one
        disk dies (the survivor holds every buddy).  The rebuilds park in
        the deferred queue; the replacement batch a second failure
        triggers re-arms them, and they all run at once instead of
        waiting out their backoff."""
        config = SystemConfig(total_user_bytes=100 * GB,
                              group_user_bytes=10 * GB,
                              replacement_threshold=0.99)
        farm, sim = make_manager(config)
        assert farm.total_disks == 2
        sim.schedule_at(100.0, farm.on_disk_failure, 1)
        sim.run(until=2 * HOUR)
        n_blocks = config.n_groups
        assert farm.stats.rebuilds_deferred == n_blocks
        assert len(farm._deferred) == n_blocks
        assert farm.stats.rebuilds_completed == 0
        assert farm.stats.replacement_batches == 0

        # Fresh capacity arrives: the batch re-arms the parked rebuilds.
        retries = farm.stats.retries
        farm._maybe_replace(sim.now)
        assert farm.stats.replacement_batches == 1
        sim.run(until=sim.now + 1.0)
        assert farm.stats.retries == retries + n_blocks
        sim.run(until=sim.now + 2 * DAY)
        assert len(farm._deferred) == 0
        assert farm.stats.rebuilds_completed == n_blocks
        assert_resolved(farm)

    def test_backoff_grows_while_stuck(self):
        config = SystemConfig(total_user_bytes=100 * GB,
                              group_user_bytes=10 * GB)
        farm, sim = make_manager(config)
        sim.schedule_at(0.0, farm.on_disk_failure, 1)
        sim.run(until=12 * HOUR)
        # Retries kept firing (with capped backoff), none succeeded.
        assert farm.stats.retries > farm.stats.rebuilds_deferred
        assert len(farm._deferred) == config.n_groups

    @BOTH_ENGINES
    def test_offline_sources_defer_then_drain_on_restore(self, use_farm):
        """Fail one half of a mirror while the other half is offline: no
        readable source exists, so the rebuild parks; the restore event
        re-arms it and it completes."""
        config = cfg(use_farm=use_farm)
        engine, sim = make_manager(config)
        alive, victim = engine.group_disks[0].tolist()
        sim.schedule_at(50.0, engine.on_disk_offline, alive)
        sim.schedule_at(100.0, engine.on_disk_failure, victim)
        sim.schedule_at(4 * HOUR, engine.on_disk_online, alive)
        sim.run(until=30 * DAY)
        assert engine.stats.transient_outages == 1
        assert engine.stats.rebuilds_deferred >= 1
        assert_resolved(engine)
        assert engine.failed_count[0] == 0 and not engine.lost[0]


class TestCompoundAcceptance:
    """The issue's acceptance scenario: a correlated 12-disk shelf burst
    plus transient outages plus latent errors, on both engines, running to
    completion with zero unhandled exceptions and every deferred rebuild
    retried and accounted in RecoveryStats."""

    @BOTH_ENGINES
    def test_shelf_burst_with_outages_and_latents(self, use_farm):
        out = (Scenario(cfg(use_farm=use_farm), seed=42)
               .fail_batch(list(range(12)), at=1 * DAY)
               .inject_faults(
                   LatentSectorErrors(1.0 / (4 * DAY)),
                   TransientOutages(1.0 / (10 * DAY), 2 * HOUR),
                   Scrubber(2 * DAY))
               .run(horizon=30 * DAY))
        s = out.stats
        assert s.disk_failures == 12
        assert s.transient_outages > 0
        assert s.latent_errors_discovered > 0
        assert s.rebuilds_completed > 0
        # All deferrals retried and drained by the horizon.
        assert out.deferred_outstanding == 0
        assert s.retries >= s.rebuilds_deferred
        assert unresolved(out.system).size == 0

    @BOTH_ENGINES
    def test_stochastic_burst_runs_to_completion(self, use_farm):
        out = (Scenario(cfg(use_farm=use_farm), seed=7)
               .inject_faults(
                   CorrelatedFailures(1.0 / (15 * DAY), shelf_size=12,
                                      spread_s=60.0),
                   TransientOutages(1.0 / (10 * DAY), HOUR),
                   LatentSectorErrors(1.0 / (4 * DAY)),
                   Scrubber(2 * DAY))
               .run(horizon=45 * DAY))
        assert out.fault_stats.bursts >= 1
        assert out.deferred_outstanding == 0
        assert out.stats.retries >= out.stats.rebuilds_deferred
        assert unresolved(out.system).size == 0

    def test_compound_scenario_deterministic(self):
        def run():
            return (Scenario(cfg(), seed=9)
                    .fail_batch(list(range(12)), at=1 * DAY)
                    .inject_faults(LatentSectorErrors(1.0 / (4 * DAY)),
                                   TransientOutages(1.0 / (10 * DAY),
                                                    2 * HOUR),
                                   Scrubber(2 * DAY))
                    .run(horizon=30 * DAY))

        a, b = run(), run()
        assert a.stats == b.stats
        assert a.fault_stats == b.fault_stats
        assert a.lost_groups == b.lost_groups


class TestScriptedFaultBuilders:
    def test_scripted_outage_round_trip(self):
        out = (Scenario(cfg())
               .outage(disk=5, at=100.0, duration=HOUR)
               .run(horizon=1 * DAY))
        assert out.stats.transient_outages == 1
        assert out.system.alive[5] and not out.system.offline
        [down] = out.trace.named("injected-outage")
        [up] = out.trace.named("injected-restore")
        assert up.time - down.time == pytest.approx(HOUR)

    def test_scripted_latent_discovered_by_scrub(self):
        out = (Scenario(cfg())
               .latent(disk=3, at=100.0)
               .inject_faults(Scrubber(12 * HOUR))
               .run(horizon=2 * DAY))
        assert out.fault_stats.latent_injected == 1
        assert out.stats.latent_errors_discovered == 1
        assert out.stats.rebuilds_completed == 1
        assert out.data_survived

    def test_invalid_scripts_rejected(self):
        with pytest.raises(ValueError):
            Scenario(cfg()).outage(disk=0, at=-1.0, duration=HOUR)
        with pytest.raises(ValueError):
            Scenario(cfg()).outage(disk=0, at=0.0, duration=0.0)
        with pytest.raises(ValueError):
            Scenario(cfg()).latent(disk=0, at=-5.0)
        with pytest.raises(ValueError, match="no such disk"):
            Scenario(cfg()).outage(disk=10_000, at=1.0,
                                   duration=HOUR).run(horizon=10.0)
        with pytest.raises(ValueError, match="no such disk"):
            Scenario(cfg()).latent(disk=10_000, at=1.0).run(horizon=10.0)

    def test_rebuild_read_discovers_latent_partner(self):
        """Failing a disk forces reads of its groups' other blocks, which
        surfaces a latent error planted there — no scrubber needed."""
        out = (Scenario(cfg())
               .latent(disk=3, at=50.0)
               .fail_partners_of(3, at=200.0, count=1)
               .run(horizon=7 * DAY))
        assert out.stats.latent_errors_discovered >= 0
        # Regardless of which block was corrupted, nothing stays stuck.
        assert out.deferred_outstanding == 0
        assert unresolved(out.system).size == 0
