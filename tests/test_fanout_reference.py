"""The disk-failure fan-out against the per-block loop it replaced.

``ReliabilitySimulation._fail_blocks`` fails a dying disk's blocks in one
NumPy pass.  :class:`LoopFanOut` keeps the block-by-block loop as the
reference: whole lifetimes must agree event for event, and single deaths
from mid-lifetime states must leave the same state behind, including
the order of the scheduled ``detect`` events, ``groups_lost_ids`` and
telemetry snapshots.  Rebuilds in flight to a dying disk are redirected
in the order they were created, so redirects are compared in firing
order too, also where one death redirects several rebuilds.
"""

import copy
from dataclasses import asdict

import pytest

from repro.config import SystemConfig
from repro.redundancy import ECC_4_6, MIRROR_2, MIRROR_3
from repro.redundancy.composite import MirroredParity
from repro.reliability import ReliabilitySimulation
from repro.reliability.simulation import PolicyConfig
from repro.sim import Simulator
from repro.telemetry import Telemetry
from repro.units import DAY, GB, TB, YEAR
from tests.test_flat_engine_pins import LIFETIMES, flat_vintage, lazy_cfg


class LoopFanOut(ReliabilitySimulation):
    """The engine with the per-block fan-out loop of earlier versions."""

    def _fail_blocks(self, disk: int,
                     now: float) -> tuple[list[int], list[int]]:
        topo = self.topology
        track_domains = topo.racks > 1
        rack = topo.rack_of(disk) if track_domains else -1
        tele = self.telemetry
        groups: list[int] = []
        reps: list[int] = []
        for g, rep in self.blocks_on(disk):
            self.group_disks[g, rep] = -1
            if self.lost[g]:
                continue
            if track_domains and any(
                    dd >= 0 and topo.rack_of(dd) == rack
                    for dd in self.group_disks[g].tolist()):
                self.stats.domain_colocated_losses += 1
                if tele is not None:
                    tele.domain_colocated_losses.inc()
            count = int(self.failed_count[g]) + 1
            self.failed_count[g] = count
            if count > self.tol and (self._is_lost is None
                                     or self._group_set_lost(g)):
                self._lose_group(g, now)
            else:
                if count == 1:
                    self._note_degraded(g, now)
                groups.append(g)
                reps.append(rep)
                if tele is not None:
                    tele.block_failed(g, rep, now, self.n)
        return groups, reps


#: name -> (config, seed, policy, telemetry on)
CASES = {
    "farm-ecc": (SystemConfig(total_user_bytes=20 * TB,
                              group_user_bytes=10 * GB, scheme=ECC_4_6,
                              detection_latency=0.0), 0, None, False),
    "traditional-mirror2": (SystemConfig(
        total_user_bytes=10 * TB, group_user_bytes=10 * GB,
        scheme=MIRROR_2, use_farm=False, vintage=flat_vintage(10.0),
        duration=2 * YEAR, repair_bandwidth_fraction=0.05), 3, None,
        False),
    "racks-telemetry": (SystemConfig(
        total_user_bytes=5 * TB, group_user_bytes=10 * GB, scheme=MIRROR_3,
        vintage=flat_vintage(10.0), duration=2 * YEAR, racks=3,
        machines_per_rack=2, repair_bandwidth_fraction=0.05), 3, None,
        True),
    # Lost 4-of-6 groups keep live blocks whose disks die later.
    "racks-ecc": (SystemConfig(
        total_user_bytes=5 * TB, group_user_bytes=10 * GB, scheme=ECC_4_6,
        vintage=flat_vintage(10.0), duration=2 * YEAR, racks=3,
        machines_per_rack=2, repair_bandwidth_fraction=0.05), 2, None,
        False),
    "mirrored-parity": (SystemConfig(
        total_user_bytes=3 * TB, group_user_bytes=10 * GB,
        scheme=MirroredParity(2), vintage=flat_vintage(10.0),
        duration=2 * YEAR, detection_latency=20 * DAY), 0, None, False),
    "no-buddy-check": (SystemConfig(
        total_user_bytes=5 * TB, group_user_bytes=10 * GB, scheme=MIRROR_3,
        vintage=flat_vintage(10.0), duration=YEAR,
        target_utilization=0.80), 2, PolicyConfig(forbid_buddy=False),
        True),
    "lazy-churn": (lazy_cfg(total_user_bytes=5 * TB,
                            vintage=flat_vintage(10.0),
                            replacement_threshold=0.05), 4, None, False),
    # One death redirects four rebuilds.
    "racks-uncapped-redirects": (LIFETIMES["farm-racks-uncapped"][0], 1,
                                 None, False),
}


def build(cls: type, name: str) -> ReliabilitySimulation:
    config, seed, policy, telemetry = CASES[name]
    return cls(config, seed=seed, policy=policy,
               telemetry=Telemetry() if telemetry else None)


def event(ev) -> tuple:
    """An event by key and payload (sequence numbers differ between two
    engines in one process)."""
    args = ev.args
    if ev.name == "rebuild":
        job = args[0]
        args = (job.g, job.rep, job.target)
    return ev.time, ev.priority, ev.name, ev.cancelled, args


def state(sim: ReliabilitySimulation) -> dict:
    """Everything a disk death writes; pending events in firing order."""
    pending = [event(entry[3])
               for entry in sorted(sim.sim._heap, key=lambda e: e[:3])]
    return {
        "group_disks": sim.group_disks.tolist(),
        "failed_count": sim.failed_count.tolist(),
        "lost": sim.lost.tolist(),
        "degraded_since": list(sim._degraded_since.items()),
        "held": {g: dict(reps) for g, reps in sim._held.items()},
        "groups_lost_ids": list(sim.groups_lost_ids),
        "used_blocks": list(sim.used_blocks),
        "stats": asdict(sim.stats),
        "pending": pending,
        "telemetry": (sim.telemetry.snapshot()
                      if sim.telemetry is not None else None),
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_lifetime_matches_the_loop(name):
    runs = {}
    for cls in (ReliabilitySimulation, LoopFanOut):
        sim = build(cls, name)
        fired: list[tuple] = []
        redirects_at_death: list[int] = []

        def record(ev, sim=sim, fired=fired, at=redirects_at_death):
            fired.append(event(ev))
            if ev.name == "disk-failure":
                at.append(len(sim._jobs_by_target.get(ev.args[0], ())))

        sim.sim = Simulator(trace=record)
        stats = sim.run()
        runs[cls] = (fired, asdict(stats), sim.groups_lost_ids,
                     state(sim)["telemetry"])
    assert runs[ReliabilitySimulation] == runs[LoopFanOut]
    assert runs[LoopFanOut][1]["disk_failures"] > 0
    if name == "racks-uncapped-redirects":
        assert max(redirects_at_death) == 4


@pytest.mark.parametrize("name", sorted(CASES))
def test_mid_lifetime_deaths_match_the_loop(name):
    """Stop a lifetime at a few instants and kill several live disks
    (holding rebuilt blocks among them) from copies of that state."""
    sim = build(ReliabilitySimulation, name)
    sim._schedule_initial_failures()
    deaths = 0
    for until in (0.3, 0.6, 0.9):
        sim.sim.run(until=until * sim.duration)
        alive = [d for d in range(sim.total_disks) if sim.alive[d]]
        moved = [d for d in alive if sim._dynamic.get(d)]
        for disk in (moved[:2] + alive[:1] + alive[-1:]):
            fast = copy.deepcopy(sim)
            loop = copy.deepcopy(sim)
            loop.__class__ = LoopFanOut
            fast.on_disk_failure(disk)
            loop.on_disk_failure(disk)
            assert state(fast) == state(loop)
            deaths += 1
    assert deaths >= 6
