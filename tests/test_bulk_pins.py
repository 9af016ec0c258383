"""Bit-identity pins for the bulk engine's per-lifetime path.

Each case pins the full ``asdict(RecoveryStats)`` of one
``(config, seed)`` lifetime of :class:`~repro.reliability.bulk.BulkLifetime`.
Together they cover the branches ``BulkLifetime.run`` takes: FARM and
traditional recovery under the 1/2, 4/6 and 8/10 schemes, the
rack-capped membership draw, lifetimes that lose data, a rebuild whose
detection falls past the horizon, a FARM rebuild that starts in-horizon
but ends past it, and a traditional serial queue that crosses the
horizon part-way.  The groups are 10 GB at 24 MB/s, a
416.67 s block time, so the traditional ``window_total`` is an inexact
float sum and any change to its summation order shows up here.

A changed RNG draw, accounting rule or summation order fails here.
Re-pin only for an intentional behaviour change, and say so in the
commit message.
"""

from dataclasses import asdict

import pytest

from repro.config import SystemConfig
from repro.disks.failure import BathtubFailureModel, RatePeriod
from repro.disks.vintage import DiskVintage
from repro.redundancy import ECC_4_6, ECC_8_10
from repro.reliability.bulk import BulkLifetime
from repro.reliability.simulation import RecoveryStats
from repro.units import DAY, GB, MB, TB


def flat_vintage(pct_per_1000h: float) -> DiskVintage:
    return DiskVintage(failure_model=BathtubFailureModel(
        (RatePeriod(0.0, float("inf"), pct_per_1000h),)))


BASE = SystemConfig(total_user_bytes=100 * TB, group_user_bytes=10 * GB,
                    recovery_bandwidth_bps=24 * MB)

#: name -> (config, seed) of one bulk lifetime.
LIFETIMES = {
    "farm-1/2": (BASE, 0),
    "farm-4/6": (BASE.with_(scheme=ECC_4_6), 1),
    "farm-8/10": (BASE.with_(scheme=ECC_8_10), 2),
    "trad-1/2": (BASE.with_(use_farm=False), 3),
    "trad-4/6": (BASE.with_(scheme=ECC_4_6, use_farm=False), 0),
    "trad-8/10": (BASE.with_(scheme=ECC_8_10, use_farm=False), 3),
    # max_chunks_per_domain draws the dense capped membership.
    "farm-capped": (BASE.with_(racks=4, machines_per_rack=2,
                               max_chunks_per_domain=1), 1),
    "trad-capped-4/6": (BASE.with_(scheme=ECC_4_6, use_farm=False,
                                   racks=4, machines_per_rack=2,
                                   max_chunks_per_domain=2), 2),
    # Losses under both recovery modes.
    "trad-loss": (BASE.with_(use_farm=False, recovery_bandwidth_bps=8 * MB,
                             vintage=flat_vintage(2.0)), 0),
    "farm-loss": (BASE.with_(recovery_bandwidth_bps=8 * MB,
                             vintage=flat_vintage(6.0),
                             detection_latency=3600.0), 3),
    # A two-day detection latency on a 30-day horizon: the disks that
    # fail in the last two days never start a rebuild.  Loses data too.
    "farm-late-detect": (BASE.with_(duration=30 * DAY,
                                    vintage=flat_vintage(10.0),
                                    detection_latency=2 * DAY), 0),
    # 50 GB groups at 2 MB/s on a 30-day horizon: a FARM rebuild
    # starts in-horizon but its 7-hour window runs past the end.
    "farm-rebuild-crosses-horizon": (BASE.with_(
        recovery_bandwidth_bps=2 * MB, duration=30 * DAY,
        vintage=flat_vintage(10.0), group_user_bytes=50 * GB), 1),
    # 50 GB groups at 8 MB/s on a 30-day horizon: two failed disks'
    # serial queues cross the horizon part-way, so only the head of
    # each queue completes.
    "trad-queue-crosses-horizon": (BASE.with_(
        use_farm=False, recovery_bandwidth_bps=8 * MB, duration=30 * DAY,
        vintage=flat_vintage(10.0), group_user_bytes=50 * GB), 1),
}

#: The fields each case sets; every other ``RecoveryStats`` field keeps
#: its default.
PINS = {'farm-1/2': {'rebuilds_started': 1887,
              'rebuilds_completed': 1887,
              'disk_failures': 48,
              'window_total': 842860.0,
              'window_max': 446.6666666666667},
 'farm-4/6': {'rebuilds_started': 5186,
              'rebuilds_completed': 5186,
              'disk_failures': 32,
              'window_total': 695788.3333333335,
              'window_max': 134.16666666666669},
 'farm-8/10': {'rebuilds_started': 14128,
               'rebuilds_completed': 14128,
               'disk_failures': 44,
               'window_total': 1159673.3333333335,
               'window_max': 82.08333333333334},
 'trad-1/2': {'rebuilds_started': 2675,
              'rebuilds_completed': 2675,
              'disk_failures': 68,
              'window_total': 23674416.66666667,
              'window_max': 24196.666666666668},
 'trad-4/6': {'rebuilds_started': 6025,
              'rebuilds_completed': 6025,
              'disk_failures': 38,
              'window_total': 50653354.16666667,
              'window_max': 19405.0},
 'trad-8/10': {'rebuilds_started': 14474,
               'rebuilds_completed': 14474,
               'disk_failures': 45,
               'window_total': 123290209.58333334,
               'window_max': 19248.75},
 'farm-capped': {'rebuilds_started': 1844,
                 'rebuilds_completed': 1844,
                 'disk_failures': 47,
                 'window_total': 823653.3333333334,
                 'window_max': 446.6666666666667},
 'trad-capped-4/6': {'rebuilds_started': 8442,
                     'rebuilds_completed': 8442,
                     'disk_failures': 53,
                     'window_total': 71461072.50000001,
                     'window_max': 18988.333333333336},
 'trad-loss': {'rebuilds_started': 12629,
               'rebuilds_completed': 12624,
               'groups_lost': 5,
               'bytes_lost': 50000000000.0,
               'first_loss_time': 20967801.210234188,
               'disk_failures': 316,
               'window_total': 330809970.0,
               'window_max': 72530.0},
 'farm-loss': {'rebuilds_started': 19354,
               'rebuilds_completed': 19354,
               'groups_lost': 2,
               'bytes_lost': 20000000000.0,
               'first_loss_time': 13041362.795533758,
               'disk_failures': 484,
               'window_total': 93866900.0,
               'window_max': 4850.0},
 'farm-late-detect': {'rebuilds_started': 1092,
                      'rebuilds_completed': 1092,
                      'groups_lost': 5,
                      'bytes_lost': 50000000000.0,
                      'first_loss_time': 232547.7914261139,
                      'disk_failures': 29,
                      'window_total': 189152600.0,
                      'window_max': 173216.66666666666},
 'farm-rebuild-crosses-horizon': {'rebuilds_started': 328,
                                  'rebuilds_completed': 319,
                                  'disk_failures': 39,
                                  'window_total': 7984570.0,
                                  'window_max': 25030.0},
 'trad-queue-crosses-horizon': {'rebuilds_started': 328,
                                'rebuilds_completed': 313,
                                'disk_failures': 39,
                                'window_total': 10028140.0,
                                'window_max': 87530.0}}


def run_lifetime(name: str) -> dict:
    config, seed = LIFETIMES[name]
    return asdict(BulkLifetime(config, seed=seed).run())


@pytest.mark.parametrize("name", sorted(LIFETIMES))
def test_bulk_lifetime_pin(name):
    expected = {**asdict(RecoveryStats()), **PINS[name]}
    assert run_lifetime(name) == expected, (
        f"bulk lifetime {name!r} changed; re-pin only for an intentional "
        f"behaviour change")


def test_pins_cover_the_branches():
    """The cases exercise what the docstring says they do."""
    stats = {name: run_lifetime(name) for name in LIFETIMES}
    assert stats["trad-loss"]["groups_lost"] > 0
    assert stats["farm-loss"]["groups_lost"] > 0
    assert stats["farm-late-detect"]["groups_lost"] > 0
    for name in ("farm-rebuild-crosses-horizon",
                 "trad-queue-crosses-horizon"):
        crossing = stats[name]
        assert crossing["groups_lost"] == 0
        assert crossing["rebuilds_started"] > crossing["rebuilds_completed"]
    assert stats["trad-1/2"]["window_total"] % 1.0 != 0.0
