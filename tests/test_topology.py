"""Failure-domain topology: tree model, placement constraint, copysets.

Covers the hierarchy invariants (round-robin tiling, slot inheritance),
the ``max_chunks_per_domain`` feasibility validation and placement
repair pass, rack-aware copyset placement, and the acceptance property:
across random and copyset placements, migrations, and rebuilds, the
per-rack cap is never violated and constraint-blocked rebuilds surface
in ``RecoveryStats``.
"""

import numpy as np
import pytest

from repro.cluster import Topology, enforce_domain_constraint
from repro.config import SystemConfig
from repro.placement import CopysetPlacement, RandomPlacement
from repro.reliability import ReliabilitySimulation, ScriptedFailures
from repro.units import DAY, GB, HOUR, TB

def rack_ok(topology, disk_ids, limit):
    """True when no rack holds more than ``limit`` of ``disk_ids``."""
    return all(c <= limit
               for c in topology.rack_counts(disk_ids).values())


class TestTopologyTree:
    def test_round_robin_tiling(self):
        topo = Topology(racks=2, machines_per_rack=3, n_disks=12)
        assert topo.n_machines == 6
        assert [topo.machine_of(d) for d in range(12)] == \
            [0, 1, 2, 3, 4, 5, 0, 1, 2, 3, 4, 5]
        assert [topo.rack_of(d) for d in range(6)] == [0, 0, 0, 1, 1, 1]

    def test_flat_default_is_single_domain(self):
        topo = Topology(1, 1, n_disks=50)
        assert topo.is_flat
        assert topo.disks_in_rack(0) == list(range(50))
        assert topo.n_domains("rack") == 1
        assert topo.n_domains("machine") == 1

    def test_slot_inheritance(self):
        topo = Topology(racks=4, machines_per_rack=1, n_disks=8)
        # A replacement for disk 5 (machine 1) joins machine 1; a batch
        # disk without a slot tiles round-robin from the population size.
        assert topo.add_disk(slot_of=5) == topo.machine_of(5)
        assert topo.machine_of(8) == 1
        assert topo.add_disk() == 9 % 4
        assert topo.n_disks == 10

    def test_domain_queries(self):
        topo = Topology(racks=2, machines_per_rack=2, n_disks=8)
        assert topo.disks_in_machine(1) == [1, 5]
        assert topo.disks_in_rack(1) == [2, 3, 6, 7]
        assert topo.domain_disks("machine", 1) == [1, 5]
        assert topo.domain_disks("rack", 1) == [2, 3, 6, 7]
        assert topo.rack_counts([0, 1, 2, 3]) == {0: 2, 1: 2}
        assert list(topo.rack_array()) == [0, 0, 1, 1, 0, 0, 1, 1]
        with pytest.raises(ValueError):
            topo.domain_disks("shelf", 0)
        with pytest.raises(ValueError):
            topo.disks_in_rack(2)

    def test_invalid_shapes_rejected(self):
        with pytest.raises(ValueError):
            Topology(0, 1)
        with pytest.raises(ValueError):
            Topology(1, 0)
        with pytest.raises(ValueError):
            Topology(1, 1, n_disks=-1)


class TestConfigValidation:
    def test_flat_defaults(self):
        cfg = SystemConfig(total_user_bytes=1 * TB, group_user_bytes=10 * GB)
        assert cfg.racks == 1 and cfg.machines_per_rack == 1
        assert cfg.max_chunks_per_domain is None

    def test_infeasible_cap_rejected(self):
        # 2-way mirroring with 1 rack and cap 1: no legal placement.
        with pytest.raises(ValueError, match="infeasible"):
            SystemConfig(total_user_bytes=1 * TB, group_user_bytes=10 * GB,
                         max_chunks_per_domain=1)

    def test_more_machines_than_disks_rejected(self):
        # Underpopulated machines only matter once the cap constrains
        # placement; without a cap the shape is allowed (machines idle).
        with pytest.raises(ValueError, match="every machine populated"):
            SystemConfig(total_user_bytes=40 * GB, group_user_bytes=10 * GB,
                         racks=8, machines_per_rack=4,
                         max_chunks_per_domain=1)
        SystemConfig(total_user_bytes=40 * GB, group_user_bytes=10 * GB,
                     racks=8, machines_per_rack=4)

    def test_degenerate_shape_rejected(self):
        with pytest.raises(ValueError):
            SystemConfig(total_user_bytes=1 * TB, group_user_bytes=10 * GB,
                         racks=0)


class TestEnforceDomainConstraint:
    def test_repairs_colocated_rows(self):
        topo = Topology(racks=4, machines_per_rack=1, n_disks=16)
        placement = RandomPlacement(16, seed=3)
        matrix = placement.place_many(np.arange(200), 2)
        fixed = enforce_domain_constraint(matrix, topo, 1, placement)
        rack = topo.rack_array()
        assert (rack[fixed[:, 0]] != rack[fixed[:, 1]]).all()
        assert (fixed[:, 0] != fixed[:, 1]).all()

    def test_none_limit_is_identity(self):
        topo = Topology(4, 1, n_disks=16)
        placement = RandomPlacement(16, seed=3)
        matrix = placement.place_many(np.arange(50), 2)
        before = matrix.copy()
        assert (enforce_domain_constraint(matrix, topo, None, placement)
                == before).all()

    def test_compliant_rows_untouched(self):
        """Only violating rows are re-placed: the repair pass must not
        shuffle groups that already satisfy the cap."""
        topo = Topology(racks=4, machines_per_rack=1, n_disks=16)
        placement = RandomPlacement(16, seed=3)
        matrix = placement.place_many(np.arange(200), 2)
        before = matrix.copy()
        rack = topo.rack_array()
        ok = rack[before[:, 0]] != rack[before[:, 1]]
        fixed = enforce_domain_constraint(matrix, topo, 1, placement)
        assert (fixed[ok] == before[ok]).all()
        assert not ok.all()          # the seed does produce violations


class TestCopysetPlacement:
    def _topo(self):
        return Topology(racks=4, machines_per_rack=1, n_disks=16)

    def test_copysets_are_distinct_and_rack_spanning(self):
        cp = CopysetPlacement(16, group_size=2, topology=self._topo())
        topo = self._topo()
        for g in range(100):
            cs = cp.copyset_of(g)
            assert len(set(cs)) == 2
            assert rack_ok(topo, cs, 1)

    def test_candidates_prefix_stable(self):
        cp = CopysetPlacement(16, group_size=2, topology=self._topo())
        for g in (0, 7, 99):
            c4 = cp.candidates(g, 4)
            assert cp.candidates(g, 2) == c4[:2]
            assert len(set(c4)) == 4

    def test_place_many_matches_copyset_of(self):
        cp = CopysetPlacement(16, group_size=2, topology=self._topo())
        mat = cp.place_many(np.arange(30), 2)
        for g in range(30):
            assert list(mat[g]) == cp.copyset_of(g)

    def test_added_disks_probe_but_do_not_join_copysets(self):
        cp = CopysetPlacement(16, group_size=2, topology=self._topo())
        before = [cp.copyset_of(g) for g in range(20)]
        cp.add_disks(8)
        assert cp.n_disks == 24
        assert [cp.copyset_of(g) for g in range(20)] == before


def constrained_cfg(**kw):
    defaults = dict(total_user_bytes=2 * TB, group_user_bytes=10 * GB,
                    racks=4, machines_per_rack=1, max_chunks_per_domain=1)
    defaults.update(kw)
    return SystemConfig(**defaults)


def assert_system_compliant(engine):
    limit = engine.cfg.max_chunks_per_domain
    for g, row in enumerate(engine.group_disks.tolist()):
        live = [d for d in row if d >= 0]
        assert rack_ok(engine.topology, live, limit), (
            f"group {g}: rack cap violated: {live}")


class TestDomainConstraintProperty:
    """Acceptance property: ``max_chunks_per_domain`` is never violated
    across random placements, migrations, and rebuilds; constraint-blocked
    rebuilds appear in ``RecoveryStats.rebuilds_deferred_constraint``."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_copyset_end_state_compliant(self, seed):
        # An aggressive replacement threshold forces batches + migration
        # mid-run, exercising every path that moves blocks.
        cfg = constrained_cfg(placement="copyset",
                              replacement_threshold=0.1)
        engine = ReliabilitySimulation(cfg, seed=seed)
        s = engine.run()
        assert_system_compliant(engine)
        assert s.rebuilds_deferred >= s.rebuilds_deferred_constraint

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_fast_engine_end_state_compliant(self, seed):
        cfg = constrained_cfg(replacement_threshold=0.1)
        sim = ReliabilitySimulation(cfg, seed=seed)
        stats = sim.run()
        rack = sim.topology.rack_array()
        for g in range(sim.G):
            live = sim.group_disks[g][sim.group_disks[g] >= 0]
            counts = np.bincount(rack[live])
            assert (counts <= 1).all(), f"group {g}: {live}"
        assert stats.rebuilds_deferred >= stats.rebuilds_deferred_constraint

    def test_flat_run_has_zero_domain_counters(self):
        cfg = SystemConfig(total_user_bytes=2 * TB, group_user_bytes=10 * GB)
        s = ReliabilitySimulation(cfg, seed=5).run()
        assert s.rebuilds_deferred_constraint == 0
        assert s.domain_colocated_losses == 0


class TestConstrainedDeferral:
    """A rebuild whose only compliant target rack has no live capacity
    defers (never violates) and drains once a batch restores the rack."""

    def _build(self, use_farm):
        # racks=2, cap=1, 4 disks: every mirror group has one block per
        # rack, so rebuilds for rack-0 losses *must* target rack 0 — and
        # the rack-1 non-buddy disk is vetoed by the domain cap alone,
        # which is what marks the deferral as constraint-caused.
        cfg = constrained_cfg(racks=2, total_user_bytes=800 * GB,
                              use_farm=use_farm)
        engine = ReliabilitySimulation(cfg, seed=0,
                                       failure_draw=ScriptedFailures())
        return engine, engine.sim

    def test_farm_defers_then_drains_after_batch(self):
        farm, sim = self._build(use_farm=True)
        rack0 = farm.topology.disks_in_rack(0)
        for i, d in enumerate(rack0):
            sim.schedule_at(100.0 + i, farm.on_disk_failure, d)
        sim.run(until=12 * HOUR)
        s = farm.stats
        assert s.rebuilds_deferred_constraint >= 1
        assert len(farm._deferred) > 0
        assert_system_compliant(farm)

        # A batch tiles round-robin, so half its disks land in rack 0;
        # its arrival re-arms the parked rebuilds.
        new_ids = farm._new_disks(len(rack0) * 2, now=sim.now)
        farm._migrate(new_ids, sim.now)
        retries = s.retries
        farm._rearm_deferred()
        sim.run(until=sim.now + 1.0)
        assert s.retries > retries          # retried now, not on backoff
        sim.run(until=sim.now + 7 * DAY)
        assert len(farm._deferred) == 0
        assert s.retries >= s.rebuilds_deferred
        assert_system_compliant(farm)
        assert not farm.lost.any() and not farm.failed_count.any()

    def test_fast_engine_defers_then_drains(self):
        """Same stalemate on the flat-array engine: the rack-0 kill parks
        every rebuild constraint-deferred; a later failure crosses the
        replacement threshold, the batch restores rack-0 capacity, and
        the parked rebuilds drain through their backoff retries."""
        cfg = constrained_cfg(racks=2, total_user_bytes=800 * GB,
                              replacement_threshold=0.6)
        sim = ReliabilitySimulation(cfg, seed=0)
        rack0 = sim.topology.disks_in_rack(0)
        for i, d in enumerate(rack0):
            sim.sim.schedule_at(100.0 + i, sim.on_disk_failure, d)
        sim.sim.run(until=12 * HOUR)
        assert sim.stats.rebuilds_deferred_constraint >= 1
        assert len(sim._deferred) > 0
        assert sim.stats.replacement_batches == 0

        # A rack-1 failure crosses the 60% threshold: its groups are
        # lost (their rack-0 halves were parked), the batch restores
        # rack-0 capacity, and every surviving group re-replicates.
        victim = sim.topology.disks_in_rack(1)[0]
        sim.sim.schedule_at(sim.sim.now + 60.0, sim.on_disk_failure,
                            victim)
        sim.sim.run(until=sim.sim.now + 14 * DAY)
        assert sim.stats.replacement_batches == 1
        assert len(sim._deferred) == 0
        assert sim.stats.retries >= 1
        surviving = ~sim.lost
        assert (sim.failed_count[surviving] == 0).all()
        rack = sim.topology.rack_array()
        for g in np.flatnonzero(surviving):
            live = sim.group_disks[g][sim.group_disks[g] >= 0]
            assert (np.bincount(rack[live]) <= 1).all()


class TestSlotInheritance:
    def test_spare_inherits_failed_slot_rack(self):
        cfg = constrained_cfg(racks=2, total_user_bytes=200 * GB,
                              use_farm=False)
        raid = ReliabilitySimulation(cfg, seed=0,
                                     failure_draw=ScriptedFailures())
        victim_rack = raid.topology.rack_of(0)
        raid.sim.schedule_at(10.0, raid.on_disk_failure, 0)
        raid.sim.run(until=7 * DAY)
        assert raid.total_disks > raid.N0      # a spare was provisioned
        spare = raid.total_disks - 1
        assert raid.topology.rack_of(spare) == victim_rack
        assert_system_compliant(raid)
