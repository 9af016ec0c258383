"""Bit-identity pins for the flat DES engine's per-event path.

Each case pins ``events_fired`` and the full ``asdict(RecoveryStats)`` of
one smoke-size ``(config, seed)`` lifetime on
:class:`~repro.reliability.simulation.ReliabilitySimulation`.  Together
they cover the paths the event loop spends its time in: FARM target
selection (with and without the failure-domain cap, SMART vetoes and
replacement churn), the traditional spare and overflow-spare branches,
and the lazy held queue (release and loss cleanup).  The disk-failure
fan-out is pinned on every branch it has: colocated losses under
uncapped racks, a set-based scheme past its tolerance, two blocks of one
group on the dying disk, telemetry on (full snapshot, in
``fixtures/telemetry_racks_pin.json``), and a death during a transient
outage of a disk that holds rebuilt blocks.

A changed event order, RNG draw or statistic fails here.  Re-pin only
for an intentional behaviour change, and say so in the commit message.
"""

import json
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.config import SystemConfig
from repro.disks.failure import BathtubFailureModel, RatePeriod
from repro.disks.vintage import DiskVintage
from repro.redundancy import ECC_4_6, MIRROR_3
from repro.redundancy.composite import MirroredParity
from repro.reliability import ReliabilitySimulation, ScriptedFailures
from repro.reliability.simulation import PolicyConfig
from repro.sim import Simulator
from repro.telemetry import Telemetry
from repro.units import DAY, GB, HOUR, TB, YEAR

#: Full telemetry snapshot of :func:`run_telemetry`'s lifetime.
TELEMETRY_PIN = Path(__file__).parent / "fixtures" / \
    "telemetry_racks_pin.json"


def flat_vintage(pct_per_1000h: float) -> DiskVintage:
    return DiskVintage(failure_model=BathtubFailureModel(
        (RatePeriod(0.0, float("inf"), pct_per_1000h),)))


def lazy_cfg(**kw) -> SystemConfig:
    defaults = dict(total_user_bytes=10 * TB, group_user_bytes=10 * GB,
                    scheme=MIRROR_3, vintage=flat_vintage(2.0),
                    duration=2 * YEAR, recovery_threshold=2,
                    repair_bandwidth_fraction=0.05)
    defaults.update(kw)
    return SystemConfig(**defaults)


#: name -> (config, seed) of one full lifetime.
LIFETIMES = {
    "farm": (SystemConfig(total_user_bytes=20 * TB,
                          group_user_bytes=10 * GB), 123),
    # The des-fig3a shape: zero detection latency, a 4-of-6 code.
    "farm-ecc-no-latency": (SystemConfig(
        total_user_bytes=20 * TB, group_user_bytes=10 * GB,
        scheme=ECC_4_6, detection_latency=0.0), 0),
    # Capacity runs out: deferrals, backoff retries and the full-scan
    # fallback of target selection.
    "farm-ecc-exhausted": (SystemConfig(
        total_user_bytes=5 * TB, group_user_bytes=10 * GB, scheme=ECC_4_6,
        vintage=flat_vintage(6.0), duration=2 * YEAR,
        detection_latency=0.0), 0),
    # Rack cap, SMART vetoes, replacement batches with migration, and a
    # redirected rebuild under a slow repair lane.
    "farm-domains-smart-churn": (SystemConfig(
        total_user_bytes=10 * TB, group_user_bytes=10 * GB,
        scheme=MIRROR_3, vintage=flat_vintage(10.0), duration=2 * YEAR,
        racks=3, machines_per_rack=2, max_chunks_per_domain=1,
        use_smart=True, replacement_threshold=0.05,
        repair_bandwidth_fraction=0.05), 1),
    "traditional": (SystemConfig(
        total_user_bytes=20 * TB, group_user_bytes=10 * GB, use_farm=False,
        vintage=flat_vintage(10.0), duration=2 * YEAR,
        repair_bandwidth_fraction=0.05), 0),
    "lazy-r2-bw0.05": (lazy_cfg(), 1),
    # Losses while other groups hold rebuilds: the loss path clears a
    # group's held entries out of a non-empty held map.
    "lazy-loss-while-holding": (lazy_cfg(total_user_bytes=5 * TB,
                                         vintage=flat_vintage(10.0)), 2),
    # Three racks without a cap: most block losses leave the group
    # another live block in the failing disk's rack (colocated losses),
    # alongside group losses and deferrals.
    "farm-racks-uncapped": (SystemConfig(
        total_user_bytes=5 * TB, group_user_bytes=10 * GB, scheme=MIRROR_3,
        vintage=flat_vintage(10.0), duration=2 * YEAR, racks=3,
        machines_per_rack=2, repair_bandwidth_fraction=0.05), 2),
    # A set-based scheme past its guaranteed tolerance: some groups
    # survive a fourth missing block, others are lost.
    "mirrored-parity-loss": (SystemConfig(
        total_user_bytes=3 * TB, group_user_bytes=10 * GB,
        scheme=MirroredParity(2), vintage=flat_vintage(10.0),
        duration=2 * YEAR, detection_latency=20 * DAY), 2),
}


def run_lifetime(name: str) -> tuple[int, dict]:
    config, seed = LIFETIMES[name]
    sim = ReliabilitySimulation(config, seed=seed)
    stats = sim.run()
    return sim.sim.events_fired, asdict(stats)


def run_overflow_spare() -> tuple[list[int], int, dict]:
    """Force the traditional overflow-spare branch, then finish the run.

    Group ``g`` loses its first block while the spare of that block's
    disk already holds one of ``g``'s buddies, so the rebuild goes to a
    freshly provisioned overflow spare; a second group in the same
    position reuses that overflow spare.
    """
    config = SystemConfig(total_user_bytes=20 * TB, group_user_bytes=10 * GB,
                          use_farm=False)
    sim = ReliabilitySimulation(config, seed=5)
    g = 0
    origin, buddy = (int(d) for d in sim.group_disks[g, :2])
    h = next(hg for hg, _ in sim.blocks_on(buddy) if hg != g)
    h_rep = next(r for r, d in enumerate(sim.group_disks[h].tolist())
                 if d != buddy)
    sim._spare_for[origin] = buddy
    targets = []
    for grp, rep in ((g, 0), (h, h_rep)):
        sim.group_disks[grp, rep] = -1
        sim.failed_count[grp] = 1
        sim._note_degraded(grp, 0.0)
        sim._start_rebuild(grp, rep, 0.0, origin)
        [job] = sim._jobs_by_group[grp]
        targets.append(job.target)
    stats = sim.run()
    return targets, sim.sim.events_fired, asdict(stats)


def run_no_buddy_check() -> tuple[int, int, dict]:
    """A dense system without the no-buddy constraint.

    Rebuilds co-locate blocks of one group, so some disk deaths take two
    blocks of a group at once.  Returns how many deaths did, then the
    lifetime's events and statistics.
    """
    config = SystemConfig(total_user_bytes=5 * TB, group_user_bytes=10 * GB,
                          scheme=MIRROR_3, vintage=flat_vintage(10.0),
                          duration=YEAR, target_utilization=0.80)
    sim = ReliabilitySimulation(config, seed=1,
                                policy=PolicyConfig(forbid_buddy=False))
    doubled = 0

    def count_doubled(event) -> None:
        nonlocal doubled
        if event.name == "disk-failure" and sim.alive[event.args[0]]:
            groups = [g for g, _ in sim.blocks_on(event.args[0])]
            doubled += len(groups) > len(set(groups))

    sim.sim = Simulator(trace=count_doubled)
    stats = sim.run()
    return doubled, sim.sim.events_fired, asdict(stats)


def run_telemetry() -> tuple[int, dict, dict]:
    """The ``farm-racks-uncapped`` lifetime with telemetry on: events
    (probe ticks included), statistics and the full snapshot."""
    config, seed = LIFETIMES["farm-racks-uncapped"]
    telemetry = Telemetry()
    sim = ReliabilitySimulation(config, seed=seed, telemetry=telemetry)
    stats = sim.run()
    return sim.sim.events_fired, asdict(stats), telemetry.snapshot()


def run_outage_death() -> tuple[int, int, int, dict]:
    """Scripted deaths around a transient outage.

    Disks 0 and 2 die on days 1 and 2, and FARM spreads their blocks
    over the pool.  On day 3 disk 1 dies; a minute later the disk
    holding the most rebuilt blocks goes offline while disk 1's rebuilds
    run, and it dies an hour into the outage.  Returns that disk, its
    rebuilt blocks at the outage, and the lifetime's events and
    statistics.
    """
    config = SystemConfig(total_user_bytes=10 * TB, group_user_bytes=10 * GB,
                          scheme=MIRROR_3)
    sim = ReliabilitySimulation(config, seed=7,
                                failure_draw=ScriptedFailures())
    picked: list[int] = []

    def outage() -> None:
        dynamic = sim._dynamic
        disk = max(sorted(dynamic), key=lambda d: len(dynamic[d]))
        picked.extend((disk, len(dynamic[disk])))
        sim.on_disk_offline(disk)
        sim.sim.schedule(HOUR, sim.on_disk_failure, disk,
                         name="disk-failure")

    sim.sim.schedule_at(DAY, sim.on_disk_failure, 0, name="disk-failure")
    sim.sim.schedule_at(2 * DAY, sim.on_disk_failure, 2,
                        name="disk-failure")
    sim.sim.schedule_at(3 * DAY, sim.on_disk_failure, 1,
                        name="disk-failure")
    sim.sim.schedule_at(3 * DAY + 60.0, outage)
    stats = sim.run()
    disk, rebuilt = picked
    return disk, rebuilt, sim.sim.events_fired, asdict(stats)


#: Expected results of the ``run_*`` helpers, by case name.
PINS = {'farm': (557,
          {'rebuilds_started': 275,
           'rebuilds_completed': 275,
           'target_redirections': 0,
           'source_redirections': 0,
           'groups_lost': 0,
           'bytes_lost': 0.0,
           'first_loss_time': None,
           'disk_failures': 7,
           'window_total': 180125.0,
           'window_max': 655.0,
           'replacement_batches': 0,
           'blocks_migrated': 0,
           'rebuilds_deferred': 0,
           'rebuilds_deferred_constraint': 0,
           'domain_colocated_losses': 0,
           'retries': 0,
           'latent_errors_discovered': 0,
           'latent_window_total': 0.0,
           'transient_outages': 0,
           'unavail_group_seconds': 180125.0,
           'unavail_spans': 275,
           'unavail_max': 655.0,
           'rebuilds_held': 0}),
 'farm-domains-smart-churn': (10170,
                              {'rebuilds_started': 5023,
                               'rebuilds_completed': 5022,
                               'target_redirections': 1,
                               'source_redirections': 0,
                               'groups_lost': 0,
                               'bytes_lost': 0.0,
                               'first_loss_time': None,
                               'disk_failures': 125,
                               'window_total': 22308090.655187473,
                               'window_max': 22530.0,
                               'replacement_batches': 31,
                               'blocks_migrated': 1662,
                               'rebuilds_deferred': 0,
                               'rebuilds_deferred_constraint': 0,
                               'domain_colocated_losses': 1,
                               'retries': 0,
                               'latent_errors_discovered': 0,
                               'latent_window_total': 0.0,
                               'transient_outages': 0,
                               'unavail_group_seconds': 22304612.676461972,
                               'unavail_spans': 5021,
                               'unavail_max': 22530.0,
                               'rebuilds_held': 0}),
 'farm-ecc-exhausted': (20658,
                        {'rebuilds_started': 2701,
                         'rebuilds_completed': 2701,
                         'target_redirections': 0,
                         'source_redirections': 0,
                         'groups_lost': 89,
                         'bytes_lost': 890000000000.0,
                         'first_loss_time': 56847457.80487475,
                         'disk_failures': 14,
                         'window_total': 5349843.75,
                         'window_max': 8750.0,
                         'replacement_batches': 0,
                         'blocks_migrated': 0,
                         'rebuilds_deferred': 911,
                         'rebuilds_deferred_constraint': 0,
                         'domain_colocated_losses': 0,
                         'retries': 14153,
                         'latent_errors_discovered': 0,
                         'latent_window_total': 0.0,
                         'transient_outages': 0,
                         'unavail_group_seconds': 2945791105.206324,
                         'unavail_spans': 3112,
                         'unavail_max': 9170507.706537217,
                         'rebuilds_held': 0}),
 'farm-ecc-no-latency': (1749,
                         {'rebuilds_started': 872,
                          'rebuilds_completed': 872,
                          'target_redirections': 0,
                          'source_redirections': 0,
                          'groups_lost': 0,
                          'bytes_lost': 0.0,
                          'first_loss_time': None,
                          'disk_failures': 5,
                          'window_total': 279687.5,
                          'window_max': 1250.0,
                          'replacement_batches': 0,
                          'blocks_migrated': 0,
                          'rebuilds_deferred': 0,
                          'rebuilds_deferred_constraint': 0,
                          'domain_colocated_losses': 0,
                          'retries': 0,
                          'latent_errors_discovered': 0,
                          'latent_window_total': 0.0,
                          'transient_outages': 0,
                          'unavail_group_seconds': 279687.5,
                          'unavail_spans': 872,
                          'unavail_max': 1250.0,
                          'rebuilds_held': 0}),
 'lazy-loss-while-holding': (10713,
                             {'rebuilds_started': 1103,
                              'rebuilds_completed': 1103,
                              'target_redirections': 0,
                              'source_redirections': 0,
                              'groups_lost': 27,
                              'bytes_lost': 270000000000.0,
                              'first_loss_time': 52220607.37781016,
                              'disk_failures': 30,
                              'window_total': 5912377578.921087,
                              'window_max': 37686646.66916668,
                              'replacement_batches': 0,
                              'blocks_migrated': 0,
                              'rebuilds_deferred': 466,
                              'rebuilds_deferred_constraint': 0,
                              'domain_colocated_losses': 0,
                              'retries': 7957,
                              'latent_errors_discovered': 0,
                              'latent_window_total': 0.0,
                              'transient_outages': 0,
                              'unavail_group_seconds': 17536934887.08943,
                              'unavail_spans': 961,
                              'unavail_max': 61372161.49887779,
                              'rebuilds_held': 988}),
 'lazy-r2-bw0.05': (576,
                    {'rebuilds_started': 280,
                     'rebuilds_completed': 280,
                     'target_redirections': 0,
                     'source_redirections': 0,
                     'groups_lost': 0,
                     'bytes_lost': 0.0,
                     'first_loss_time': None,
                     'disk_failures': 16,
                     'window_total': 2585784747.931304,
                     'window_max': 50886153.806889646,
                     'replacement_batches': 0,
                     'blocks_migrated': 0,
                     'rebuilds_deferred': 0,
                     'rebuilds_deferred_constraint': 0,
                     'domain_colocated_losses': 0,
                     'retries': 0,
                     'latent_errors_discovered': 0,
                     'latent_window_total': 0.0,
                     'transient_outages': 0,
                     'unavail_group_seconds': 17067251630.189404,
                     'unavail_spans': 570,
                     'unavail_max': 59518220.378860004,
                     'rebuilds_held': 570}),
 'traditional': (13581,
                 {'rebuilds_started': 6716,
                  'rebuilds_completed': 6697,
                  'target_redirections': 9,
                  'source_redirections': 0,
                  'groups_lost': 10,
                  'bytes_lost': 100000000000.0,
                  'first_loss_time': 22210382.05212881,
                  'disk_failures': 168,
                  'window_total': 352640084.38315415,
                  'window_max': 145030.0,
                  'replacement_batches': 0,
                  'blocks_migrated': 0,
                  'rebuilds_deferred': 0,
                  'rebuilds_deferred_constraint': 0,
                  'domain_colocated_losses': 0,
                  'retries': 0,
                  'latent_errors_discovered': 0,
                  'latent_window_total': 0.0,
                  'transient_outages': 0,
                  'unavail_group_seconds': 352640084.38315415,
                  'unavail_spans': 6697,
                  'unavail_max': 145030.0,
                  'rebuilds_held': 0}),
 'traditional-overflow-spare': ([100, 100],
                                842,
                                {'rebuilds_started': 417,
                                 'rebuilds_completed': 417,
                                 'target_redirections': 0,
                                 'source_redirections': 0,
                                 'groups_lost': 0,
                                 'bytes_lost': 0.0,
                                 'first_loss_time': None,
                                 'disk_failures': 10,
                                 'window_total': 5605575.0,
                                 'window_max': 31905.0,
                                 'replacement_batches': 0,
                                 'blocks_migrated': 0,
                                 'rebuilds_deferred': 0,
                                 'rebuilds_deferred_constraint': 0,
                                 'domain_colocated_losses': 0,
                                 'retries': 0,
                                 'latent_errors_discovered': 0,
                                 'latent_window_total': 0.0,
                                 'transient_outages': 0,
                                 'unavail_group_seconds': 5605575.0,
                                 'unavail_spans': 417,
                                 'unavail_max': 31905.0,
                                 'rebuilds_held': 0}),
 'farm-racks-uncapped': (16141,
                         {'rebuilds_started': 1400,
                          'rebuilds_completed': 1400,
                          'target_redirections': 0,
                          'source_redirections': 0,
                          'groups_lost': 34,
                          'bytes_lost': 340000000000.0,
                          'first_loss_time': 46207352.41720222,
                          'disk_failures': 30,
                          'window_total': 8869500.0,
                          'window_max': 55030.0,
                          'replacement_batches': 0,
                          'blocks_migrated': 0,
                          'rebuilds_deferred': 666,
                          'rebuilds_deferred_constraint': 0,
                          'domain_colocated_losses': 1079,
                          'retries': 12577,
                          'latent_errors_discovered': 0,
                          'latent_window_total': 0.0,
                          'transient_outages': 0,
                          'unavail_group_seconds': 7995623878.51716,
                          'unavail_spans': 1805,
                          'unavail_max': 30945691.18168933,
                          'rebuilds_held': 0}),
 'mirrored-parity-loss': (22744,
                          {'rebuilds_started': 1563,
                           'rebuilds_completed': 1563,
                           'target_redirections': 0,
                           'source_redirections': 0,
                           'groups_lost': 31,
                           'bytes_lost': 310000000000.0,
                           'first_loss_time': 52220607.37781016,
                           'disk_failures': 19,
                           'window_total': 2703849312.5,
                           'window_max': 1737375.0,
                           'replacement_batches': 0,
                           'blocks_migrated': 0,
                           'rebuilds_deferred': 964,
                           'rebuilds_deferred_constraint': 0,
                           'domain_colocated_losses': 0,
                           'retries': 18530,
                           'latent_errors_discovered': 0,
                           'latent_window_total': 0.0,
                           'transient_outages': 0,
                           'unavail_group_seconds': 10433372416.059914,
                           'unavail_spans': 1375,
                           'unavail_max': 37348419.88294735,
                           'rebuilds_held': 0}),
 'no-buddy-check': (8,
                    13437,
                    {'rebuilds_started': 336,
                     'rebuilds_completed': 336,
                     'target_redirections': 0,
                     'source_redirections': 0,
                     'groups_lost': 71,
                     'bytes_lost': 710000000000.0,
                     'first_loss_time': 16784751.78481451,
                     'disk_failures': 12,
                     'window_total': 1005080.0,
                     'window_max': 15655.0,
                     'replacement_batches': 0,
                     'blocks_migrated': 0,
                     'rebuilds_deferred': 721,
                     'rebuilds_deferred_constraint': 0,
                     'domain_colocated_losses': 0,
                     'retries': 11928,
                     'latent_errors_discovered': 0,
                     'latent_window_total': 0.0,
                     'transient_outages': 0,
                     'unavail_group_seconds': 4063915216.3370595,
                     'unavail_spans': 716,
                     'unavail_max': 16052842.8454713,
                     'rebuilds_held': 0}),
 'telemetry-racks-events': 16871,
 'outage-death': (4,
                  2,
                  315,
                  {'rebuilds_started': 155,
                   'rebuilds_completed': 155,
                   'target_redirections': 0,
                   'source_redirections': 1,
                   'groups_lost': 0,
                   'bytes_lost': 0.0,
                   'first_loss_time': None,
                   'disk_failures': 4,
                   'window_total': 101525.0,
                   'window_max': 655.0,
                   'replacement_batches': 0,
                   'blocks_migrated': 0,
                   'rebuilds_deferred': 0,
                   'rebuilds_deferred_constraint': 0,
                   'domain_colocated_losses': 0,
                   'retries': 0,
                   'latent_errors_discovered': 0,
                   'latent_window_total': 0.0,
                   'transient_outages': 1,
                   'unavail_group_seconds': 101525.0,
                   'unavail_spans': 155,
                   'unavail_max': 655.0,
                   'rebuilds_held': 0})}


@pytest.mark.parametrize("name", sorted(LIFETIMES))
def test_lifetime_pin(name):
    assert run_lifetime(name) == PINS[name]


def test_overflow_spare_pin():
    assert run_overflow_spare() == PINS["traditional-overflow-spare"]


def test_no_buddy_check_pin():
    result = run_no_buddy_check()
    assert result[0] > 0        # the doubled-block branch was reached
    assert result == PINS["no-buddy-check"]


def test_telemetry_pin():
    events, stats, snapshot = run_telemetry()
    assert stats == PINS["farm-racks-uncapped"][1]
    assert events == PINS["telemetry-racks-events"]
    assert snapshot == json.loads(TELEMETRY_PIN.read_text())


def test_outage_death_pin():
    result = run_outage_death()
    assert result[1] > 0        # the dying disk held rebuilt blocks
    assert result == PINS["outage-death"]


def test_blocks_on_lists_each_block_once():
    """A static block the index also lists as moved (a block with a
    latent error rebuilt onto its own disk) is listed once, so
    ``corrupt_block`` draws it with the weight of any other block."""
    config, seed = LIFETIMES["farm"]
    sim = ReliabilitySimulation(config, seed=seed)
    disk = 3
    static = sim.blocks_on(disk)
    assert len(static) == 29
    sim._dynamic[disk].append(static[0])
    assert sim.blocks_on(disk) == static


def test_repeated_index_entries_fail_each_block_once():
    """A block the disk index lists twice (a rebuild back onto its own
    disk, or a move there listed again) fails once; an entry for a block
    that has left the disk fails nothing."""
    config, seed = LIFETIMES["farm"]
    sim = ReliabilitySimulation(config, seed=seed)
    disk = 3
    static = sim.blocks_on(disk)
    h = next(g for g in range(sim.G) if disk not in sim.group_disks[g])
    gone = next(g for g in range(sim.G)
                if g != h and disk not in sim.group_disks[g])
    sim.group_disks[h, 1] = disk
    sim._dynamic[disk] = [(h, 1), static[0], (gone, 0), (h, 1)]
    sim.on_disk_failure(disk)

    detects = sorted(ev.args[:2] for ev in sim.sim.pending()
                     if ev.name == "detect")
    assert detects == sorted(static + [(h, 1)])
    assert sim.failed_count[h] == sim.failed_count[static[0][0]] == 1
    assert sim.failed_count[gone] == 0
    assert len(sim._degraded_since) == len(static) + 1
