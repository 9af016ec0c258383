"""Stateful property-based tests (hypothesis.stateful).

Redundancy-group state on the DES engine gets model-based checking:
arbitrary interleavings of scripted disk deaths, transient outages,
latent errors, scrubs and repair time must preserve the group invariants
(distinct live disks, failure counts match the failed blocks, loss iff
survivors < m, loss is permanent).

Plus whole-run properties of the engine over random configurations.
"""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, rule)

from repro.config import SystemConfig
from repro.redundancy import RedundancyScheme
from repro.reliability import ReliabilitySimulation, ScriptedFailures
from repro.units import DAY, GB, TB


class GroupStateMachine(RuleBasedStateMachine):
    """Random fault/repair interleavings against the group invariants."""

    @initialize(m=st.integers(1, 3), k=st.integers(1, 2),
                use_farm=st.booleans(), seed=st.integers(0, 1000))
    def setup(self, m, k, use_farm, seed):
        self.scheme = RedundancyScheme(m, m + k)
        cfg = SystemConfig(total_user_bytes=2 * TB, group_user_bytes=10 * GB,
                           scheme=self.scheme, use_farm=use_farm)
        self.engine = ReliabilitySimulation(cfg, seed=seed,
                                            failure_draw=ScriptedFailures())
        self.rng = np.random.default_rng(seed)
        self.was_lost = np.zeros(cfg.n_groups, dtype=bool)

    def _at_next_second(self, fn, *args):
        sim = self.engine.sim
        t = sim.now + 1.0
        sim.schedule_at(t, fn, *args)
        sim.run(until=t)

    def _disks(self, alive):
        e = self.engine
        return [d for d in range(e.N0) if e.alive[d] == alive
                and (alive or d in e.offline)]

    @rule(data=st.data())
    def fail_some_disk(self, data):
        e = self.engine
        candidates = self._disks(True) + self._disks(False)
        if candidates:
            self._at_next_second(e.on_disk_failure,
                                 data.draw(st.sampled_from(candidates)))

    @rule(data=st.data())
    def take_some_disk_offline(self, data):
        candidates = self._disks(True)
        if candidates:
            self._at_next_second(self.engine.on_disk_offline,
                                 data.draw(st.sampled_from(candidates)))

    @rule(data=st.data())
    def bring_some_disk_back(self, data):
        candidates = self._disks(False)
        if candidates:
            self._at_next_second(self.engine.on_disk_online,
                                 data.draw(st.sampled_from(candidates)))

    @rule(data=st.data())
    def corrupt_some_block(self, data):
        candidates = self._disks(True)
        if candidates:
            self._at_next_second(self.engine.corrupt_block,
                                 data.draw(st.sampled_from(candidates)),
                                 self.rng)

    @rule(data=st.data())
    def scrub_some_disk(self, data):
        e = self.engine
        if e.latent:
            disk = data.draw(st.sampled_from(sorted(e.latent)))
            for g, rep in sorted(e.latent[disk]):
                e.discover_latent(disk, g, rep)

    @rule(dt=st.sampled_from([60.0, 3600.0, DAY]))
    def let_time_pass(self, dt):
        sim = self.engine.sim
        sim.run(until=sim.now + dt)

    @invariant()
    def live_blocks_on_distinct_disks(self):
        gd = self.engine.group_disks
        for row in gd[~self.engine.lost].tolist():
            live = [d for d in row if d >= 0]
            assert len(live) == len(set(live))

    @invariant()
    def failed_count_matches_failed_blocks(self):
        e = self.engine
        live = ~e.lost
        assert np.array_equal(e.failed_count[live],
                              (e.group_disks[live] < 0).sum(axis=1))
        assert len(e._degraded_since) == \
            int(((e.failed_count > 0) & live).sum())

    @invariant()
    def loss_exactly_when_survivors_below_m(self):
        e = self.engine
        survivors = self.scheme.n - e.failed_count
        assert not (~e.lost & (survivors < self.scheme.m)).any()
        # loss is permanent
        assert not (self.was_lost & ~e.lost).any()
        self.was_lost |= e.lost


GroupStateMachine.TestCase.settings = settings(
    max_examples=20, stateful_step_count=25, deadline=None)
TestRedundancyGroupStateful = GroupStateMachine.TestCase


class TestFastEngineProperties:
    """Whole-run invariants over random configurations."""

    @given(
        m=st.sampled_from([1, 2, 4]),
        k=st.integers(1, 2),
        group_gb=st.sampled_from([5.0, 10.0, 25.0]),
        use_farm=st.booleans(),
        detection=st.sampled_from([0.0, 30.0, 600.0]),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=12, deadline=None)
    def test_run_invariants(self, m, k, group_gb, use_farm, detection,
                            seed):
        cfg = SystemConfig(total_user_bytes=20 * TB,
                           group_user_bytes=group_gb * GB,
                           scheme=RedundancyScheme(m, m + k),
                           use_farm=use_farm,
                           detection_latency=detection)
        sim = ReliabilitySimulation(cfg, seed=seed)
        stats = sim.run()

        # accounting sanity
        assert stats.rebuilds_completed <= stats.rebuilds_started
        assert stats.groups_lost == int(sim.lost.sum())
        assert stats.window_max >= 0.0
        if stats.rebuilds_completed:
            assert stats.mean_window >= detection

        # every non-lost group fully repaired by the horizon (rebuilds are
        # minutes; the horizon is years) or still within a window that
        # started near the horizon
        live = ~sim.lost
        unresolved = int((sim.failed_count[live] > 0).sum())
        pending = sum(len(v) for v in sim._jobs_by_group.values())
        assert unresolved <= pending + stats.groups_lost

        # no live co-location anywhere
        gd = sim.group_disks[live]
        for row in gd[(gd >= 0).all(axis=1)][:200]:
            assert len(set(row.tolist())) == row.size
