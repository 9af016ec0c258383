"""Tests for FARM target selection on the DES engine (paper §2.3).

Hard constraints — alive, no buddy, space — always hold; the bandwidth
preference is soft.  :class:`~repro.reliability.simulation.PolicyConfig`
relaxes either for the policy ablation.
"""

import pytest

from repro.config import SystemConfig
from repro.reliability import PolicyConfig, ReliabilitySimulation
from repro.reliability.simulation import _TargetProbes
from repro.sim import RandomStreams
from repro.units import GB, TB


def build_system(policy=None, **kw):
    defaults = dict(total_user_bytes=4 * TB, group_user_bytes=10 * GB)
    defaults.update(kw)
    return ReliabilitySimulation(SystemConfig(**defaults), seed=0,
                                 policy=policy)


def pick(system, g, now=0.0):
    return system._pick_farm_target(system.group_disks[g].tolist(), now)


def replay(system):
    """Rewind the target probes, so the next pick sees the same draws."""
    system._probes = _TargetProbes(
        RandomStreams(system.seed).get("targets"))


@pytest.fixture
def system():
    return build_system()


class TestHardConstraints:
    def test_target_is_alive_no_buddy_and_fits(self, system):
        target = pick(system, 0)
        assert system.alive[target]
        assert target not in system.group_disks[0].tolist()
        assert system.used_blocks[target] < system.capacity_blocks

    def test_dead_candidates_skipped(self, system):
        first = pick(system, 0)
        system.on_disk_failure(first)
        replay(system)
        second = pick(system, 0)
        assert second != first and system.alive[second]

    def test_buddy_disks_never_selected(self, system):
        for g in range(50):
            assert pick(system, g) not in system.group_disks[g].tolist()

    def test_full_disks_skipped(self, system):
        row = system.group_disks[0].tolist()
        # Fill every disk except one non-buddy disk.
        keep = next(d for d in range(system.total_disks) if d not in row)
        for d in range(system.total_disks):
            if d != keep:
                system.used_blocks[d] = system.capacity_blocks
        assert pick(system, 0) == keep

    def test_no_target_raises(self, system):
        for d in range(system.total_disks):
            system.used_blocks[d] = system.capacity_blocks
        assert pick(system, 0) is None


class TestSoftConstraints:
    def test_prefers_idle_target(self, system):
        preferred = pick(system, 0)
        # Make the preferred candidate busy: selection must move on...
        system.free_at[preferred] = 100.0
        replay(system)
        assert pick(system, 0) != preferred

    def test_sticks_with_busy_target_when_all_busy(self, system):
        """Paper: 'if there is no better alternative, we will stick to
        it' — soft constraints relax rather than fail."""
        for d in range(system.total_disks):
            system.free_at[d] = 1e9
        target = pick(system, 0)
        assert target is not None and system.alive[target]

    def test_policy_flags_can_disable_constraints(self):
        system = build_system(PolicyConfig(forbid_buddy=False,
                                           prefer_idle=False))
        row = system.group_disks[0].tolist()
        for d in range(system.total_disks):
            if d not in row:
                system.used_blocks[d] = system.capacity_blocks
            system.free_at[d] = 1e9
        # With the buddy check off, a disk of the group is acceptable.
        assert pick(system, 0) in row


class TestCandidateOrigin:
    def test_targets_come_from_candidate_list_prefix(self, system):
        """Selection walks the pick's probe list, so with no constraints
        binding, the chosen disk is its first admissible probe."""
        row = system.group_disks[5].tolist()
        target = pick(system, 5)
        replay(system)
        probes = system._probes.draw(system.total_disks)
        assert target == next(d for d in probes if d not in row)
