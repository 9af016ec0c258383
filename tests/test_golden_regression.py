"""Golden-value regression pins.

The engines are deterministic in (config, seed); these tests pin exact
outcomes for fixed seeds so *any* behavioural change — a reordered RNG
draw, a different placement hash, an altered event tie-break — fails
loudly instead of silently shifting the published numbers.

If a change is intentional (e.g. a fixed bug changes trajectories),
re-pin by updating the constants and say so in the commit message.
"""

from repro.config import SystemConfig
from repro.placement import RandomPlacement, RushPlacement
from repro.reliability import ReliabilitySimulation
from repro.sim import stable_hash64
from repro.sim.rng import RandomStreams
from repro.units import GB, TB

# (disk_failures, rebuilds_started, rebuilds_completed, groups_lost)
PIN_FAST = (7, 275, 275, 0)
PIN_RUSH = [31, 613, 813]
PIN_RANDOM = [556, 379, 284]
PIN_HASH = 5037368365621519589

# Failure-domain injector streams (repro.faults.domains).  Arming a
# domain injector must never perturb — and never be perturbed by — the
# base simulation streams, so each one owns a named stream whose first
# draw is fixed.
PIN_DOMAIN_STREAMS = {
    "faults-domain-bursts": 0.18235955024884265,
    "faults-domain-outages": 0.8985747888281354,
    "faults-domain-stragglers": 0.630501410220294,
}

# Bulk-lifetime engine (repro.reliability.bulk): first uniform from each
# dedicated bulk-* stream, plus one full trajectory per recovery mode on
# the same config/seed as the DES pins.  The window sums are exact
# multiples of rebuild block-times, so equality is safe to pin.
PIN_BULK_STREAMS = {
    "failures": 0.7584344968239647,
    "placement": 0.27301242389873837,
    "windows": 0.16538516375736811,
}
PIN_BULK_FARM = (9, 346, 346, 0)
PIN_BULK_FARM_WINDOWS = (226630.0, 655.0)       # (total, max) seconds
PIN_BULK_TRAD = (9, 346, 346, 0)
PIN_BULK_TRAD_WINDOWS = (4211630.0, 29405.0)


def cfg():
    return SystemConfig(total_user_bytes=20 * TB, group_user_bytes=10 * GB)


class TestPins:
    def test_fast_engine_pin(self):
        stats = ReliabilitySimulation(cfg(), seed=123).run()
        snapshot = (stats.disk_failures, stats.rebuilds_started,
                    stats.rebuilds_completed, stats.groups_lost)
        assert snapshot == PIN_FAST, (
            f"fast-engine trajectory changed: {snapshot}; re-pin only if "
            f"the behaviour change is intentional")

    def test_rush_placement_pin(self):
        assert RushPlacement(1000, seed=7).place_group(12345, 3) == PIN_RUSH

    def test_random_placement_pin(self):
        assert RandomPlacement(1000, seed=7).place_group(12345, 3) == \
            PIN_RANDOM

    def test_stable_hash_pin(self):
        assert stable_hash64("golden", 1) == PIN_HASH

    def test_domain_stream_pins(self):
        """The faults-domain-* streams are their own pinned family."""
        for name, expected in PIN_DOMAIN_STREAMS.items():
            assert float(RandomStreams(123).get(name).random()) == expected

    def test_bulk_stream_pins(self):
        """The bulk-* streams are their own pinned RNG family.

        The bulk engine must never perturb — or be perturbed by — a DES
        run with the same seed, so its three streams are pinned exactly
        like the faults-domain-* family.
        """
        for kind, expected in PIN_BULK_STREAMS.items():
            assert float(RandomStreams(123).bulk(kind).random()) == expected

    def test_bulk_farm_trajectory_pin(self):
        from repro.reliability.bulk import BulkLifetime
        stats = BulkLifetime(cfg(), seed=123).run()
        snapshot = (stats.disk_failures, stats.rebuilds_started,
                    stats.rebuilds_completed, stats.groups_lost)
        assert snapshot == PIN_BULK_FARM, (
            f"bulk FARM trajectory changed: {snapshot}; re-pin only if "
            f"the behaviour change is intentional")
        assert (stats.window_total, stats.window_max) == \
            PIN_BULK_FARM_WINDOWS

    def test_bulk_traditional_trajectory_pin(self):
        from repro.reliability.bulk import BulkLifetime
        stats = BulkLifetime(cfg().with_(use_farm=False), seed=123).run()
        snapshot = (stats.disk_failures, stats.rebuilds_started,
                    stats.rebuilds_completed, stats.groups_lost)
        assert snapshot == PIN_BULK_TRAD, (
            f"bulk traditional trajectory changed: {snapshot}")
        assert (stats.window_total, stats.window_max) == \
            PIN_BULK_TRAD_WINDOWS

    def test_bulk_shares_failure_count_law_not_stream(self):
        """bulk-failures is a *different* stream from disk-failures: the
        same seed gives a different (but same-law) failure count."""
        assert PIN_BULK_FARM[0] != PIN_FAST[0]
