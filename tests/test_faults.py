"""Unit tests for the fault-injection subsystem (repro.faults) and the
engine hooks it drives."""

import pytest

from repro.config import SystemConfig
from repro.faults import (CorrelatedFailures, FaultContext, FaultStats,
                          LatentSectorErrors, Scrubber, Stragglers,
                          TransientOutages, arm_all)
from repro.reliability import ReliabilitySimulation, ScriptedFailures
from repro.sim import Simulator, TraceRecorder
from repro.units import DAY, GB, HOUR, TB

HORIZON = 30 * DAY


def small_config(**kw):
    defaults = dict(total_user_bytes=4 * TB, group_user_bytes=10 * GB)
    defaults.update(kw)
    return SystemConfig(**defaults)


def make_ctx(seed=0, horizon=HORIZON, **kw):
    engine = ReliabilitySimulation(small_config(**kw), seed=seed,
                                   failure_draw=ScriptedFailures())
    engine.sim = Simulator(trace=TraceRecorder())
    return FaultContext(engine=engine, horizon=horizon)


def at(ctx, t, fn, *args):
    """Run ``fn(*args)`` at simulated time ``t``."""
    ctx.sim.schedule_at(t, fn, *args)
    ctx.sim.run(until=t)


def latent_count(engine):
    return sum(len(errors) for errors in engine.latent.values())


class TestDiskStateMachine:
    def test_offline_and_restore(self):
        ctx = make_ctx()
        engine = ctx.engine
        at(ctx, 100.0, engine.on_disk_offline, 0)
        assert 0 in engine.offline
        assert not engine.alive[0] and not ctx.is_dead(0)
        at(ctx, 250.0, engine.on_disk_online, 0)
        assert engine.alive[0] and 0 not in engine.offline
        assert engine.stats.transient_outages == 1

    def test_fail_legal_from_offline(self):
        ctx = make_ctx()
        engine = ctx.engine
        blocks = len(engine.blocks_on(0))
        at(ctx, 10.0, engine.on_disk_offline, 0)
        at(ctx, 40.0, engine.on_disk_failure, 0)
        assert ctx.is_dead(0) and 0 not in engine.offline
        assert engine.stats.disk_failures == 1
        assert int(engine.failed_count.sum()) == blocks

    def test_offline_requires_online(self):
        ctx = make_ctx()
        engine = ctx.engine
        at(ctx, 5.0, engine.on_disk_failure, 0)
        at(ctx, 6.0, engine.on_disk_offline, 0)     # stale: a no-op
        assert ctx.is_dead(0) and 0 not in engine.offline
        assert engine.stats.transient_outages == 0

    def test_latent_bookkeeping(self):
        ctx = make_ctx()
        engine = ctx.engine
        rng = ctx.streams.get("faults-latent")
        ctx.sim.run(until=7.0)
        g, rep = engine.corrupt_block(0, rng)
        assert engine.latent[0] == {(g, rep): 7.0}
        ctx.sim.run(until=9.0)
        assert engine.discover_latent(0, g, rep)
        assert 0 not in engine.latent
        assert engine.stats.latent_window_total == pytest.approx(2.0)
        assert not engine.discover_latent(0, g, rep)


class TestSystemFaultSurface:
    def test_inject_latent_error_picks_live_block(self):
        ctx = make_ctx()
        engine = ctx.engine
        rng = ctx.streams.get("faults-latent")
        hit = engine.corrupt_block(4, rng)
        assert hit is not None
        grp_id, rep_id = hit
        assert engine.group_disks[grp_id, rep_id] == 4
        assert hit in engine.latent[4]
        assert latent_count(engine) == 1

    def test_failure_supersedes_latent_errors(self):
        ctx = make_ctx()
        engine = ctx.engine
        rng = ctx.streams.get("faults-latent")
        at(ctx, 50.0, engine.corrupt_block, 4, rng)
        at(ctx, 60.0, engine.on_disk_failure, 4)
        assert latent_count(engine) == 0
        assert engine.stats.latent_errors_discovered == 0

    def test_bring_online_stale_after_death(self):
        ctx = make_ctx()
        engine = ctx.engine
        at(ctx, 10.0, engine.on_disk_offline, 2)
        at(ctx, 20.0, engine.on_disk_failure, 2)
        at(ctx, 30.0, engine.on_disk_online, 2)
        assert ctx.is_dead(2)


class TestInjectorValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            LatentSectorErrors(0.0)
        with pytest.raises(ValueError):
            TransientOutages(0.0, HOUR)
        with pytest.raises(ValueError):
            TransientOutages(1.0 / DAY, 0.0)
        with pytest.raises(ValueError):
            CorrelatedFailures(0.0)
        with pytest.raises(ValueError):
            CorrelatedFailures(1.0 / DAY, shelf_size=0)
        with pytest.raises(ValueError):
            CorrelatedFailures(1.0 / DAY, spread_s=-1.0)
        with pytest.raises(ValueError):
            Stragglers(0.0)
        with pytest.raises(ValueError):
            Stragglers(0.5, factor_range=(0.0, 0.5))
        with pytest.raises(ValueError):
            Scrubber(0.0)


class TestLatentAndScrub:
    def test_latent_errors_arrive_and_scrub_discovers(self):
        ctx = make_ctx()
        arm_all([LatentSectorErrors(1.0 / DAY), Scrubber(2 * DAY)], ctx)
        ctx.sim.run(until=HORIZON)
        assert ctx.stats.latent_injected > 0
        assert ctx.stats.scrubs > 0
        assert ctx.stats.scrub_discoveries > 0
        s = ctx.engine.stats
        assert s.latent_errors_discovered >= ctx.stats.scrub_discoveries
        # A full scrub cycle bounds the undiscovered lifetime (plus the
        # time to the first cycle; use a generous factor).
        assert 0 < s.mean_latent_window < 3 * 2 * DAY

    def test_discovered_latent_block_is_rebuilt(self):
        ctx = make_ctx()
        arm_all([LatentSectorErrors(1.0 / DAY), Scrubber(DAY)], ctx)
        ctx.sim.run(until=HORIZON)
        s = ctx.engine.stats
        assert s.rebuilds_completed > 0
        engine = ctx.engine
        assert (engine.failed_count[~engine.lost] == 0).all()

    def test_shorter_interval_means_shorter_latency(self):
        latencies = []
        for interval in (8 * DAY, DAY):
            ctx = make_ctx()
            arm_all([LatentSectorErrors(1.0 / DAY), Scrubber(interval)],
                    ctx)
            ctx.sim.run(until=HORIZON)
            latencies.append(ctx.engine.stats.mean_latent_window)
        assert latencies[1] < latencies[0]


class TestTransientOutages:
    def test_outages_start_end_and_count(self):
        ctx = make_ctx()
        arm_all([TransientOutages(1.0 / (4 * DAY), 2 * HOUR)], ctx)
        ctx.sim.run(until=HORIZON)
        assert ctx.stats.outages_started > 0
        assert ctx.stats.outages_ended == ctx.stats.outages_started
        assert ctx.engine.stats.transient_outages == \
            ctx.stats.outages_started
        # Every outage ended: nothing stays offline, nothing is lost.
        assert not ctx.engine.offline
        assert ctx.engine.stats.groups_lost == 0

    def test_outage_is_not_a_failure(self):
        ctx = make_ctx()
        arm_all([TransientOutages(1.0 / (4 * DAY), 2 * HOUR)], ctx)
        ctx.sim.run(until=HORIZON)
        assert ctx.engine.stats.disk_failures == 0


class TestCorrelatedFailures:
    def test_burst_kills_a_shelf(self):
        ctx = make_ctx()
        arm_all([CorrelatedFailures(1.0 / (10 * DAY), shelf_size=4,
                                    spread_s=60.0)], ctx)
        ctx.sim.run(until=HORIZON)
        assert ctx.stats.bursts > 0
        assert ctx.stats.burst_failures > 0
        assert ctx.engine.stats.disk_failures == ctx.stats.burst_failures
        # Failed disks form whole shelves of consecutive ids.
        dead = [d for d in range(ctx.engine.total_disks) if ctx.is_dead(d)]
        for disk_id in dead:
            assert disk_id // 4 in {d // 4 for d in dead}


class TestStragglers:
    def test_factors_sampled_in_range(self):
        ctx = make_ctx()
        Stragglers(0.25, factor_range=(0.1, 0.5)).arm(ctx)
        factors = ctx.engine.bandwidth_factor
        degraded = [f for f in factors.values() if f < 1.0]
        assert len(degraded) == ctx.stats.stragglers == \
            round(0.25 * ctx.engine.total_disks)
        assert all(0.1 <= f <= 0.5 for f in degraded)

    def test_stragglers_slow_rebuilds(self):
        fast = make_ctx()
        fast.engine.on_disk_failure(0)
        fast.sim.run(until=DAY)

        slow = make_ctx()
        Stragglers(1.0, factor_range=(0.25, 0.25)).arm(slow)
        slow.engine.on_disk_failure(0)
        slow.sim.run(until=DAY)

        assert slow.engine.stats.rebuilds_completed > 0
        assert slow.engine.stats.mean_window > \
            fast.engine.stats.mean_window


class TestDeterminism:
    def test_same_seed_same_outcome(self):
        def run():
            ctx = make_ctx(seed=11)
            arm_all([LatentSectorErrors(1.0 / DAY),
                     TransientOutages(1.0 / (4 * DAY), HOUR),
                     CorrelatedFailures(1.0 / (15 * DAY), shelf_size=4),
                     Scrubber(2 * DAY)], ctx)
            ctx.sim.run(until=HORIZON)
            return ctx

        a, b = run(), run()
        assert a.stats == b.stats
        assert a.engine.stats == b.engine.stats
        assert a.sim.events_fired == b.sim.events_fired

    def test_fault_streams_do_not_perturb_base_run(self):
        """Arming injectors must not change the draw order of any other
        stream: a no-fault run is bit-identical with or without the
        faults module imported and its streams created."""
        plain = make_ctx(seed=3)
        plain.engine.on_disk_failure(0)
        plain.sim.run(until=DAY)

        warmed = make_ctx(seed=3)
        warmed.streams.get("faults-latent")       # create, never draw
        warmed.streams.get("faults-outages")
        warmed.engine.on_disk_failure(0)
        warmed.sim.run(until=DAY)

        assert plain.engine.stats == warmed.engine.stats


class TestFaultStats:
    def test_default_zeroed(self):
        s = FaultStats()
        assert s == FaultStats(latent_injected=0, outages_started=0,
                               outages_ended=0, bursts=0, burst_failures=0,
                               stragglers=0, scrubs=0, scrub_discoveries=0)
