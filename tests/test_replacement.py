"""Tests for batch replacement and migration on the DES engine (§3.6).

A batch arrives once ``replacement_threshold`` of the initial population
has failed since the last one; it restores the population, and a fair
share of live blocks migrates onto it.
"""

import numpy as np
import pytest

from repro.config import SystemConfig
from repro.reliability import ReliabilitySimulation, ScriptedFailures
from repro.units import GB, TB


def scripted(threshold=None, seed=0, **kw):
    defaults = dict(total_user_bytes=200 * TB, group_user_bytes=10 * GB,
                    replacement_threshold=threshold)
    defaults.update(kw)
    return ReliabilitySimulation(SystemConfig(**defaults), seed=seed,
                                 failure_draw=ScriptedFailures())


def fail(engine, disks):
    """Fail ``disks`` one second apart, starting a second from now."""
    start = engine.sim.now + 1.0
    for i, d in enumerate(disks):
        engine.sim.schedule_at(start + i, engine.on_disk_failure, d)
    engine.sim.run(until=start + len(disks))


class TestPolicy:
    def test_triggers_at_threshold(self):
        engine = scripted(threshold=0.04)
        assert engine.N0 == 1000
        fail(engine, range(39))
        assert engine.stats.replacement_batches == 0
        fail(engine, [39])
        assert engine.stats.replacement_batches == 1

    def test_batch_restores_population(self):
        engine = scripted(threshold=0.02)
        fail(engine, range(20))
        assert engine.total_disks == engine.N0 + 20
        assert sum(engine.alive[:engine.total_disks]) == engine.N0

    def test_validation(self):
        with pytest.raises(ValueError):
            scripted(threshold=0.0)
        with pytest.raises(ValueError):
            scripted(threshold=1.0)


class TestMigrationPlan:
    def _setup(self, n_new=100, seed=0, **kw):
        engine = scripted(seed=seed, **kw)
        before = engine.group_disks.copy()
        new = engine._new_disks(n_new, now=0.0)
        return engine, before, new

    def test_fair_share_moves(self):
        engine, before, new = self._setup()
        engine._migrate(new, now=0.0)
        moved = (engine.group_disks != before).mean()
        assert moved == pytest.approx(100 / 1100, abs=0.01)

    def test_moves_land_on_new_disks(self):
        engine, before, new = self._setup()
        engine._migrate(new, now=0.0)
        after = engine.group_disks
        assert np.isin(after[after != before], new).all()

    def test_dead_disk_blocks_not_moved(self):
        engine, before, new = self._setup()
        fail(engine, range(500))    # half the old disks are dead
        before = engine.group_disks.copy()
        engine._migrate(new, now=engine.sim.now)
        dead = before == -1
        assert (engine.group_disks[dead] == -1).all()

    def test_empty_batch_is_identity(self):
        engine, before, _ = self._setup()
        engine._migrate(np.array([], dtype=np.int64), now=0.0)
        assert np.array_equal(engine.group_disks, before)
        assert engine.stats.blocks_migrated == 0

    def test_new_disks_end_up_balanced(self):
        engine, _, new = self._setup(total_user_bytes=800 * TB)
        engine._migrate(new, now=0.0)
        loads = np.bincount(engine.group_disks.ravel(),
                            minlength=engine.total_disks)
        new_loads = loads[new]
        # each new disk should get roughly the population average
        assert new_loads.mean() == pytest.approx(loads.mean(), rel=0.1)
        assert new_loads.std() < 0.35 * new_loads.mean()
