"""Failure-domain fault injectors (repro.faults.domains).

Covers the acceptance scenario — a whole-machine outage defers rebuilds
and the queue drains when the machine returns, under FARM and traditional
recovery — plus injector determinism and non-perturbation of base runs.
"""

import pytest

from repro.config import SystemConfig
from repro.faults import DomainBurst, DomainOutages, DomainStragglers
from repro.faults.base import FaultContext, FaultStats
from repro.reliability import ReliabilitySimulation, ScriptedFailures
from repro.reliability.scenarios import Scenario
from repro.units import DAY, GB, HOUR, TB

BOTH_ENGINES = pytest.mark.parametrize("use_farm", [True, False],
                                       ids=["farm", "traditional"])


def cfg(**kw):
    defaults = dict(total_user_bytes=4 * TB, group_user_bytes=10 * GB,
                    racks=2, machines_per_rack=2)
    defaults.update(kw)
    return SystemConfig(**defaults)


def make_manager(config, seed=0):
    engine = ReliabilitySimulation(config, seed=seed,
                                   failure_draw=ScriptedFailures())
    return engine, engine.sim


def resolved(engine):
    """Every group rebuilt or lost — none left degraded."""
    return bool(((engine.failed_count == 0) | engine.lost).all())


class TestMachineOutageDefersAndDrains:
    """Satellite acceptance: fail a disk while the machine holding its
    rebuild sources is dark — every rebuild parks in the deferred queue
    and drains once the whole machine comes back."""

    @BOTH_ENGINES
    def test_whole_machine_outage(self, use_farm):
        config = cfg(use_farm=use_farm)
        manager, sim = make_manager(config)
        alive, victim = manager.group_disks[0].tolist()
        machine = manager.topology.machine_of(alive)
        dark = manager.topology.disks_in_machine(machine)
        assert victim not in dark

        for d in dark:
            sim.schedule_at(50.0, manager.on_disk_offline, d)
        sim.schedule_at(100.0, manager.on_disk_failure, victim)
        for d in dark:
            sim.schedule_at(6 * HOUR, manager.on_disk_online, d)
        sim.run(until=30 * DAY)

        s = manager.stats
        assert s.transient_outages == len(dark)
        assert s.rebuilds_deferred >= 1
        assert s.retries >= s.rebuilds_deferred
        assert s.rebuilds_completed >= 1
        assert len(manager._deferred) == 0
        assert resolved(manager)
        assert not manager.lost[0] and manager.failed_count[0] == 0

    @BOTH_ENGINES
    def test_injected_machine_outages_drain(self, use_farm):
        """The DomainOutages injector drives the same path end-to-end:
        machines go dark together, return together, and every deferral
        is retried and accounted."""
        out = (Scenario(cfg(use_farm=use_farm), seed=11)
               .fail(disk=0, at=5 * DAY)
               .fail(disk=7, at=12 * DAY)
               .inject_faults(DomainOutages(1.0 / (10 * DAY), 4 * HOUR,
                                            level="machine"))
               .run(horizon=40 * DAY))
        fs = out.fault_stats
        assert fs.domain_outages_started >= 1
        assert fs.domain_outages_ended == fs.domain_outages_started
        assert out.deferred_outstanding == 0
        assert out.stats.retries >= out.stats.rebuilds_deferred
        assert resolved(out.system)


class TestDomainBurst:
    def test_rack_burst_kills_whole_rack(self):
        out = (Scenario(cfg(), seed=3)
               .inject_faults(DomainBurst(8.0 / (365.25 * DAY),
                                          level="rack"))
               .run(horizon=180 * DAY))
        fs = out.fault_stats
        assert fs.domain_bursts >= 1
        # Every burst casualty is a real disk failure, and nothing else
        # failed (a scripted scenario).
        assert out.stats.disk_failures == fs.domain_burst_failures

    def test_spread_delays_individual_deaths(self):
        out = (Scenario(cfg(), seed=3)
               .inject_faults(DomainBurst(8.0 / (365.25 * DAY),
                                          level="rack", spread_s=300.0))
               .run(horizon=180 * DAY))
        assert out.fault_stats.domain_bursts >= 1
        assert out.stats.disk_failures == \
            out.fault_stats.domain_burst_failures

    def test_deterministic_in_seed(self):
        def run():
            return (Scenario(cfg(), seed=5)
                    .inject_faults(DomainBurst(8.0 / (365.25 * DAY)),
                                   DomainOutages(1.0 / (20 * DAY), HOUR))
                    .run(horizon=90 * DAY))

        a, b = run(), run()
        assert a.stats == b.stats
        assert a.fault_stats == b.fault_stats
        assert a.lost_groups == b.lost_groups

    def test_validation(self):
        with pytest.raises(ValueError):
            DomainBurst(0.0)
        with pytest.raises(ValueError):
            DomainBurst(1.0, level="shelf")
        with pytest.raises(ValueError):
            DomainBurst(1.0, spread_s=-1.0)
        with pytest.raises(ValueError):
            DomainOutages(1.0, 0.0)
        with pytest.raises(ValueError):
            DomainStragglers(0.0)
        with pytest.raises(ValueError):
            DomainStragglers(0.5, factor_range=(0.0, 0.5))
        with pytest.raises(ValueError):
            DomainStragglers(0.5, level="pod")


class TestNoBasePerturbation:
    def test_idle_injector_leaves_base_run_untouched(self):
        """An armed injector whose first arrival lands beyond the horizon
        draws only from its own faults-domain-* stream, so the base
        scenario trajectory is bit-identical with and without it."""
        config = cfg()
        base = (Scenario(config, seed=9)
                .fail(disk=0, at=1 * DAY)
                .run(horizon=30 * DAY))
        armed = (Scenario(config, seed=9)
                 .fail(disk=0, at=1 * DAY)
                 .inject_faults(DomainBurst(1e-12),
                                DomainOutages(1e-12, HOUR))
                 .run(horizon=30 * DAY))
        assert armed.fault_stats.domain_bursts == 0
        assert armed.fault_stats.domain_outages_started == 0
        assert armed.stats == base.stats
        assert armed.lost_groups == base.lost_groups


class TestDomainStragglers:
    def test_whole_domain_shares_the_bottleneck(self):
        config = cfg()
        engine, _ = make_manager(config)
        ctx = FaultContext(engine=engine, horizon=DAY, stats=FaultStats())
        DomainStragglers(0.5, factor_range=(0.2, 0.4),
                         level="machine").arm(ctx)
        assert ctx.stats.domain_stragglers == 2    # half of 4 machines
        assert engine.stats.disk_failures == 0     # stragglers never kill
        slowed = 0
        for m in range(engine.topology.n_machines):
            factors = {engine.bandwidth_factor.get(d, 1.0)
                       for d in engine.topology.disks_in_machine(m)}
            assert len(factors) == 1               # shared bottleneck
            f = factors.pop()
            if f < 1.0:
                slowed += 1
                assert 0.2 <= f <= 0.4
        assert slowed == 2
