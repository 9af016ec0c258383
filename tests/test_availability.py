"""Availability workloads: lazy recovery, repair caps, degraded reads.

The cross-engine conformance harness for :mod:`repro.availability` and
the availability-policy knobs on :class:`repro.config.SystemConfig`:

* the default policy (``recovery_threshold=1``, no repair cap) must be
  **bit-identical** to the golden pins on both engines — every lazy
  code path is provably opt-in;
* the lazy/eager estimates must *bracket* correctly: p_loss is monotone
  non-decreasing in the recovery threshold, unavailability is monotone
  non-increasing in repair bandwidth (common random numbers make both
  sharp, per seed rather than in expectation);
* the analytic rails hold: the lazy Markov chain bounds the simulated
  lazy loss count from above, Luby's bound covers the measured repair
  demand, and a repair lane at utilization >= 1 is rejected by both
  engines and the forecast service alike;
* span accounting is float-exact against telemetry and survives group
  membership churn (migration / ``compact_index``) mid-span.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.availability import (InfeasibleConfig, RepairPriority,
                                RepairPriorityQueue, availability_fraction,
                                availability_nines, check_feasible,
                                degraded_read_cost, repair_utilization,
                                unavailability_fraction)
from repro.availability.luby import check_repair_lane
from repro.config import SystemConfig
from repro.disks.failure import BathtubFailureModel, RatePeriod
from repro.disks.vintage import DiskVintage
from repro.redundancy import ECC_4_6, MIRROR_2, MIRROR_3
from repro.reliability import ReliabilitySimulation
from repro.reliability.scenarios import Scenario
from repro.telemetry import Telemetry
from repro.units import DAY, GB, HOUR, TB, YEAR

from tests.test_golden_regression import PIN_FAST
from tests.test_golden_regression import cfg as golden_cfg


def flat_vintage(pct_per_1000h: float) -> DiskVintage:
    model = BathtubFailureModel(
        (RatePeriod(0.0, float("inf"), pct_per_1000h),))
    return DiskVintage(failure_model=model)


def lazy_cfg(**kw) -> SystemConfig:
    """A small tolerance-2 system under a modest constant hazard.

    2 %/1000 h (~30 % drive mortality over the horizon) keeps the
    unreplaced fleet inside its capacity headroom, so repair *policy* —
    not capacity collapse — drives the measured differences.
    """
    defaults = dict(total_user_bytes=10 * TB, group_user_bytes=10 * GB,
                    scheme=MIRROR_3, vintage=flat_vintage(2.0),
                    duration=2 * YEAR)
    defaults.update(kw)
    return SystemConfig(**defaults)


# --------------------------------------------------------------------- #
# Repair priority queue
# --------------------------------------------------------------------- #
class TestRepairPriorityQueue:
    def test_orders_by_surviving_redundancy_first(self):
        q = RepairPriorityQueue()
        q.push(RepairPriority(2, 0.0, 1, 0), "healthy")
        q.push(RepairPriority(0, 50.0, 2, 0), "critical")
        q.push(RepairPriority(1, 10.0, 3, 0), "risky")
        assert [q.pop()[1] for _ in range(3)] == \
            ["critical", "risky", "healthy"]

    def test_ties_break_on_window_age(self):
        q = RepairPriorityQueue()
        q.push(RepairPriority(1, 500.0, 1, 0), "young")
        q.push(RepairPriority(1, 100.0, 2, 0), "old")
        assert q.pop()[1] == "old"

    def test_ties_break_on_group_then_rep(self):
        q = RepairPriorityQueue()
        q.push(RepairPriority(1, 100.0, 7, 1), "g7r1")
        q.push(RepairPriority(1, 100.0, 7, 0), "g7r0")
        q.push(RepairPriority(1, 100.0, 3, 2), "g3r2")
        assert [q.pop()[1] for _ in range(3)] == ["g3r2", "g7r0", "g7r1"]

    def test_len_bool_and_peek(self):
        q = RepairPriorityQueue()
        assert not q and len(q) == 0
        p = RepairPriority(0, 1.0, 0, 0)
        q.push(p, "x")
        assert q and len(q) == 1
        assert q.peek() == (p, "x")
        assert len(q) == 1              # peek does not consume

    def test_drain_empties_most_urgent_first(self):
        q = RepairPriorityQueue()
        q.push(RepairPriority(1, 9.0, 5, 0), "last")
        q.push(RepairPriority(0, 9.0, 1, 0), "first")
        q.push(RepairPriority(1, 2.0, 3, 0), "middle")
        assert [item for _, item in q.drain()] == \
            ["first", "middle", "last"]
        assert not q

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            RepairPriorityQueue().pop()

    @given(st.lists(st.tuples(st.integers(0, 3),
                              st.floats(0, 1e6),
                              st.integers(0, 99),
                              st.integers(0, 5)),
                    min_size=1, max_size=50))
    @settings(max_examples=100, deadline=None)
    def test_invariant_no_group_waits_behind_healthier_one(self, items):
        """The satellite invariant: the popped sequence never has a
        group with lower surviving redundancy after a higher one."""
        q = RepairPriorityQueue()
        for surviving, failed_at, grp, rep in items:
            q.push(RepairPriority(surviving, failed_at, grp, rep), None)
        popped = [prio for prio, _ in q.drain()]
        for earlier, later in zip(popped, popped[1:]):
            assert earlier.surviving <= later.surviving

    @given(st.lists(st.tuples(st.integers(0, 3), st.floats(0, 1e6),
                              st.integers(0, 99), st.integers(0, 5)),
                    min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_drain_is_total_sorted_order(self, items):
        q = RepairPriorityQueue()
        for surviving, failed_at, grp, rep in items:
            q.push(RepairPriority(surviving, failed_at, grp, rep), None)
        popped = [prio for prio, _ in q.drain()]
        assert popped == sorted(popped)


# --------------------------------------------------------------------- #
# Availability metrics
# --------------------------------------------------------------------- #
class TestMetrics:
    def test_unavailability_fraction_value(self):
        # 10 groups x 100 s horizon, 250 group-seconds down => 25%.
        assert unavailability_fraction(250.0, 10, 100.0) == 0.25

    def test_zero_seconds_is_fully_available(self):
        assert unavailability_fraction(0.0, 1000, 1e9) == 0.0
        assert availability_fraction(0.0, 1000, 1e9) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            unavailability_fraction(1.0, 0, 100.0)
        with pytest.raises(ValueError):
            unavailability_fraction(1.0, 10, 0.0)
        with pytest.raises(ValueError):
            unavailability_fraction(-1.0, 10, 100.0)

    def test_overflow_is_a_loud_error(self):
        """More downtime than exposure means the span accounting broke —
        that must never be silently clamped away."""
        with pytest.raises(ValueError, match="span accounting"):
            unavailability_fraction(2000.0, 10, 100.0)

    def test_rounding_jitter_clamps_to_one(self):
        total = 10 * 100.0
        assert unavailability_fraction(total * (1 + 1e-12), 10, 100.0) \
            == 1.0

    def test_nines_of_three_nines(self):
        assert availability_nines(0.999) == pytest.approx(3.0)

    def test_nines_of_perfect_availability_is_inf(self):
        assert availability_nines(1.0) == math.inf

    def test_nines_validation(self):
        with pytest.raises(ValueError):
            availability_nines(-0.1)
        with pytest.raises(ValueError):
            availability_nines(1.1)

    @given(st.floats(0.0, 0.999999), st.floats(0.0, 0.999999))
    @settings(max_examples=100, deadline=None)
    def test_nines_monotone_in_availability(self, a, b):
        lo, hi = sorted((a, b))
        assert availability_nines(lo) <= availability_nines(hi)

    def test_degraded_read_cost_mirror_is_free(self):
        # Mirrored reads fail over to the replica: amplification 1.
        assert degraded_read_cost(MIRROR_3, 1e6) == 0.0

    def test_degraded_read_cost_ecc_amplifies(self):
        # 4-of-6: a degraded read touches m=4 blocks instead of 1.
        assert degraded_read_cost(ECC_4_6, 1000.0, 2.0) == \
            pytest.approx((4 - 1) * 2.0 * 1000.0)

    def test_degraded_read_cost_validation(self):
        with pytest.raises(ValueError):
            degraded_read_cost(ECC_4_6, -1.0)
        with pytest.raises(ValueError):
            degraded_read_cost(ECC_4_6, 1.0, -1.0)


# --------------------------------------------------------------------- #
# Luby feasibility rail
# --------------------------------------------------------------------- #
def infeasible_cfg() -> SystemConfig:
    """A repair lane provably beyond Luby's bound (utilization >= 1)."""
    return SystemConfig(total_user_bytes=10 * TB, group_user_bytes=10 * GB,
                        vintage=flat_vintage(20.0),
                        repair_bandwidth_fraction=0.0005)


class TestLubyRail:
    def test_utilization_scales_inversely_with_lane_width(self):
        narrow = lazy_cfg(repair_bandwidth_fraction=0.05)
        wide = lazy_cfg(repair_bandwidth_fraction=0.8)
        assert repair_utilization(narrow) > repair_utilization(wide) > 0
        assert repair_utilization(narrow) == pytest.approx(
            repair_utilization(wide) * 0.8 / 0.05)

    def test_infeasible_lane_raises(self):
        cfg = infeasible_cfg()
        assert repair_utilization(cfg) >= 1.0
        with pytest.raises(InfeasibleConfig, match="repair utilization"):
            check_feasible(cfg)

    def test_check_repair_lane_only_gates_capped_lanes(self):
        # Without a fraction the lane is uncapped: the engines accept
        # any config (reliability sweeps deliberately visit overloaded
        # regimes) and the rail stays out of the default path.
        check_repair_lane(SystemConfig())
        check_repair_lane(lazy_cfg())
        check_repair_lane(infeasible_cfg().with_(
            repair_bandwidth_fraction=None))

    def test_both_engines_reject_infeasible_lane(self):
        cfg = infeasible_cfg()
        with pytest.raises(InfeasibleConfig):
            ReliabilitySimulation(cfg, seed=0)
        with pytest.raises(InfeasibleConfig):
            Scenario(cfg).run(horizon=DAY)

    def test_service_rail_is_the_same_exception(self):
        """Engines and service share one InfeasibleConfig — a config the
        engines reject cannot slip through the 422 rail, or vice versa."""
        from repro.service import InfeasibleConfig as service_exc
        assert service_exc is InfeasibleConfig

    def test_service_returns_422_for_infeasible_repair_lane(self):
        from repro.reliability.runner import SweepRunner
        from repro.service import (ForecastCache, ForecastCascade,
                                   ForecastError, ForecastService,
                                   request_forecast, run_in_thread)
        cascade = ForecastCascade(
            cache=ForecastCache(),
            runner=SweepRunner(n_jobs=1, telemetry_path=""),
            live_runs=2)
        handle = run_in_thread(ForecastService(cascade))
        try:
            with pytest.raises(ForecastError) as err:
                request_forecast(handle.url, {"config": {
                    "total_user_bytes": 10 * TB,
                    "group_user_bytes": 10 * GB,
                    "vintage": {"failure_model": {"periods": [
                        {"start_months": 0.0, "end_months": None,
                         "pct_per_1000h": 20.0}]}},
                    "repair_bandwidth_fraction": 0.0005,
                }})
            assert err.value.status == 422
            assert "repair utilization" in err.value.message
        finally:
            handle.stop()

    def test_measured_repair_demand_within_luby_bound(self):
        """Luby's steady-state bound covers the *measured* repair demand
        of a capped lane: bytes actually rebuilt per disk-second never
        exceed the analytic utilization of the lane (the bound's work
        factor of 2 is the headroom)."""
        cfg = lazy_cfg(repair_bandwidth_fraction=0.2)
        stats = ReliabilitySimulation(cfg, seed=0).run()
        assert stats.rebuilds_completed > 0
        demand_bps = stats.rebuilds_completed * cfg.block_bytes \
            / (cfg.n_disks * cfg.duration)
        lane_bps = cfg.repair_bandwidth_fraction \
            * cfg.vintage.bandwidth_bps
        assert demand_bps / lane_bps <= repair_utilization(cfg)


# --------------------------------------------------------------------- #
# Config validation
# --------------------------------------------------------------------- #
class TestConfigValidation:
    def test_defaults_are_eager_and_uncapped(self):
        cfg = SystemConfig()
        assert cfg.recovery_threshold == 1
        assert cfg.repair_bandwidth_fraction is None

    def test_threshold_zero_rejected(self):
        with pytest.raises(ValueError, match="recovery_threshold"):
            SystemConfig(recovery_threshold=0)

    def test_threshold_above_tolerance_rejected(self):
        # MIRROR_2 tolerates one loss; waiting for two means waiting
        # for data loss.
        with pytest.raises(ValueError, match="tolerance"):
            SystemConfig(scheme=MIRROR_2, recovery_threshold=2)

    def test_threshold_at_tolerance_accepted(self):
        assert lazy_cfg(recovery_threshold=2).recovery_threshold == 2

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            SystemConfig(repair_bandwidth_fraction=0.0)
        with pytest.raises(ValueError):
            SystemConfig(repair_bandwidth_fraction=1.5)
        assert SystemConfig(repair_bandwidth_fraction=1.0) \
            .repair_bandwidth_fraction == 1.0

    def test_fraction_and_bps_are_mutually_exclusive(self):
        with pytest.raises(ValueError, match="mutually exclusive"):
            SystemConfig(recovery_bandwidth_bps=16e6,
                         repair_bandwidth_fraction=0.2)

    def test_fraction_drives_recovery_bandwidth(self):
        cfg = SystemConfig(repair_bandwidth_fraction=0.1)
        assert cfg.recovery_bandwidth == \
            pytest.approx(0.1 * cfg.vintage.bandwidth_bps)

    def test_dict_round_trip_carries_policy_fields(self):
        from repro.config import config_from_dict, config_to_dict
        cfg = lazy_cfg(recovery_threshold=2,
                       repair_bandwidth_fraction=0.25)
        data = config_to_dict(cfg)
        assert data["recovery_threshold"] == 2
        assert data["repair_bandwidth_fraction"] == 0.25
        assert config_from_dict(data) == cfg


# --------------------------------------------------------------------- #
# Default policy: bit-identity with the golden pins
# --------------------------------------------------------------------- #
class TestDefaultPolicyBitIdentity:
    """Archetype contract: threshold=1 / no cap keeps the engine on its
    pinned trajectory, so the lazy machinery is provably inert by
    default."""

    def snapshot(self, stats):
        return (stats.disk_failures, stats.rebuilds_started,
                stats.rebuilds_completed, stats.groups_lost)

    def test_fast_engine_explicit_defaults_match_pin(self):
        cfg = golden_cfg().with_(recovery_threshold=1,
                                 repair_bandwidth_fraction=None)
        stats = ReliabilitySimulation(cfg, seed=123).run()
        assert self.snapshot(stats) == PIN_FAST

    def test_equivalent_fraction_cap_is_a_pure_refactor(self):
        """A capped lane at the vintage's own 20% recovery share yields
        the *same* recovery bandwidth, so trajectories must stay on the
        pin bit-for-bit — the cap changes a number's provenance, never
        the event order."""
        base = golden_cfg()
        capped = base.with_(repair_bandwidth_fraction=0.2)
        assert capped.recovery_bandwidth == base.recovery_bandwidth
        assert self.snapshot(
            ReliabilitySimulation(capped, seed=123).run()) == PIN_FAST

    def test_default_policy_holds_no_rebuilds(self):
        stats = ReliabilitySimulation(golden_cfg(), seed=123).run()
        assert stats.rebuilds_held == 0

    def test_span_accounting_is_pure_observation(self):
        """Unavailability spans are recorded on the default path too —
        but recording must not perturb the trajectory (no events, no RNG
        draws), which the pins above already prove.  Here: the recorded
        spans are self-consistent."""
        stats = ReliabilitySimulation(golden_cfg(), seed=123).run()
        assert stats.unavail_spans > 0
        assert 0 < stats.unavail_group_seconds \
            <= stats.unavail_spans * golden_cfg().duration
        assert 0 < stats.unavail_max <= golden_cfg().duration


# --------------------------------------------------------------------- #
# Lazy recovery in scripted scenarios
# --------------------------------------------------------------------- #
def scenario_cfg(**kw) -> SystemConfig:
    """12-disk MIRROR_3 system for scripted lazy-policy studies."""
    defaults = dict(total_user_bytes=1600 * GB, group_user_bytes=10 * GB,
                    scheme=MIRROR_3, recovery_threshold=2)
    defaults.update(kw)
    return SystemConfig(**defaults)


def partner_of(cfg: SystemConfig, disk: int, seed: int = 0) -> int:
    """A disk sharing a redundancy group with ``disk`` (same placement
    the Scenario will build for this seed)."""
    engine = ReliabilitySimulation(cfg, seed=seed)
    g, _ = engine.blocks_on(disk)[0]
    return next(d for d in engine.group_disks[g].tolist() if d != disk)


class TestLazyScenarios:
    HORIZON = 4 * DAY

    def test_single_failure_is_held_below_threshold(self):
        cfg = scenario_cfg()
        out = Scenario(cfg).fail(disk=0, at=100.0).run(self.HORIZON)
        s = out.stats
        assert s.rebuilds_started == 0
        assert s.rebuilds_held > 0
        assert out.held_outstanding == s.rebuilds_held
        assert out.data_survived

    def test_held_spans_close_at_the_horizon(self):
        """Groups parked below the trigger sit degraded to the horizon;
        finalize() closes each span at exactly horizon - failure time."""
        cfg = scenario_cfg()
        out = Scenario(cfg).fail(disk=0, at=100.0).run(self.HORIZON)
        s = out.stats
        assert s.unavail_spans == s.rebuilds_held      # one per group
        assert s.unavail_max == self.HORIZON - 100.0
        assert s.unavail_group_seconds == \
            s.unavail_spans * (self.HORIZON - 100.0)

    def test_second_failure_releases_the_shared_groups(self):
        cfg = scenario_cfg()
        partner = partner_of(cfg, 0)
        out = (Scenario(cfg)
               .fail(disk=0, at=100.0)
               .fail(disk=partner, at=3600.0)
               .run(self.HORIZON))
        s = out.stats
        # Each group shared by both disks released two rebuilds; all of
        # them ran to completion well before the horizon.
        assert s.rebuilds_started >= 2
        assert s.rebuilds_completed == s.rebuilds_started
        # Groups touched by only one of the disks stay parked.
        assert out.held_outstanding > 0
        assert out.held_outstanding < s.rebuilds_held
        assert out.data_survived

    def test_released_windows_keep_original_failure_time(self):
        """A held rebuild's window starts at the *failure*, not the
        release: waiting below threshold is exposure and must be
        measured as such."""
        cfg = scenario_cfg()
        partner = partner_of(cfg, 0)
        out = (Scenario(cfg)
               .fail(disk=0, at=100.0)
               .fail(disk=partner, at=3600.0)
               .run(self.HORIZON))
        # The block lost at t=100 completed its rebuild after t=3600, so
        # its window alone exceeds the whole wait it spent parked.
        assert out.stats.window_max > 3600.0 - 100.0

    def test_eager_default_starts_immediately(self):
        cfg = scenario_cfg(recovery_threshold=1)
        out = Scenario(cfg).fail(disk=0, at=100.0).run(self.HORIZON)
        s = out.stats
        assert s.rebuilds_held == 0
        assert s.rebuilds_started > 0
        assert out.held_outstanding == 0

    def test_transient_outage_counts_toward_the_trigger(self):
        """An OFFLINE partner disk pushes the missing count over the
        threshold: the held rebuild must release even though only one
        block is permanently lost."""
        cfg = scenario_cfg()
        partner = partner_of(cfg, 0)
        out = (Scenario(cfg)
               .fail(disk=0, at=100.0)
               .outage(disk=partner, at=3600.0, duration=1 * HOUR)
               .run(self.HORIZON))
        s = out.stats
        assert s.transient_outages == 1
        assert s.rebuilds_started >= 1          # released by the outage
        assert out.held_outstanding > 0         # others stay parked

    def test_outage_trigger_drains_without_leaking(self):
        """After the outage ends nothing may leak: released rebuilds run
        to completion, the deferred queue is empty, and held entries
        either released (and ran) or still parked below threshold."""
        cfg = scenario_cfg()
        partner = partner_of(cfg, 0)
        out = (Scenario(cfg)
               .fail(disk=0, at=100.0)
               .outage(disk=partner, at=3600.0, duration=1 * HOUR)
               .run(self.HORIZON))
        s = out.stats
        assert out.deferred_outstanding == 0
        assert s.rebuilds_completed == s.rebuilds_started >= 1
        assert out.held_outstanding < s.rebuilds_held
        assert out.data_survived

    def test_outage_alone_triggers_nothing(self):
        cfg = scenario_cfg()
        out = Scenario(cfg).outage(disk=0, at=100.0,
                                   duration=1 * HOUR).run(self.HORIZON)
        s = out.stats
        assert s.transient_outages == 1
        assert s.rebuilds_started == 0
        assert s.rebuilds_held == 0
        # No block ever failed: no unavailability span opens either.
        assert s.unavail_spans == 0

    def test_release_is_one_way_hysteresis(self):
        """A rebuild released by an outage stays released when the disk
        returns — the engines never re-park in-flight repairs."""
        cfg = scenario_cfg()
        partner = partner_of(cfg, 0)
        # Short outage: ends long before the rebuilds could finish.
        out = (Scenario(cfg)
               .fail(disk=0, at=100.0)
               .outage(disk=partner, at=3600.0, duration=60.0)
               .run(self.HORIZON))
        assert out.stats.rebuilds_started >= 1
        assert out.stats.rebuilds_completed == out.stats.rebuilds_started

    def test_lost_groups_drop_spans_and_held_entries(self):
        """Loss is accounted by the durability metrics, not
        availability: a lost group's open span and held entries are
        dropped.  On a 3-disk MIRROR_3 system every group spans all
        three disks, so killing them all loses every group — and the
        availability ledger must come out exactly empty."""
        cfg = scenario_cfg(total_user_bytes=40 * GB)
        assert cfg.n_disks == 3
        sc = Scenario(cfg)
        for i in range(3):
            sc.fail(disk=i, at=100.0 + 600.0 * i)
        out = sc.run(self.HORIZON)
        s = out.stats
        assert not out.data_survived
        assert s.groups_lost == cfg.n_groups
        assert s.rebuilds_held > 0              # first failure was held
        assert out.held_outstanding == 0        # dropped with the groups
        assert s.unavail_spans == 0             # loss-spans are dropped
        assert s.unavail_group_seconds == 0.0

    def test_stats_availability_helpers(self):
        cfg = scenario_cfg()
        out = Scenario(cfg).fail(disk=0, at=100.0).run(self.HORIZON)
        s = out.stats
        a = s.availability(cfg.n_groups, self.HORIZON)
        assert 0.0 < a < 1.0
        assert s.nines(cfg.n_groups, self.HORIZON) == \
            pytest.approx(-math.log10(1.0 - a))


# --------------------------------------------------------------------- #
# Lazy recovery on the fast engine
# --------------------------------------------------------------------- #
class TestLazyFastEngine:
    def test_lazy_holds_rebuilds(self):
        eager = ReliabilitySimulation(lazy_cfg(), seed=1).run()
        lazy = ReliabilitySimulation(
            lazy_cfg(recovery_threshold=2), seed=1).run()
        assert eager.rebuilds_held == 0
        assert lazy.rebuilds_held > 0
        # Identical failure stream: the policies saw the same world.
        assert eager.disk_failures == lazy.disk_failures

    def test_lazy_increases_unavailability(self):
        eager = ReliabilitySimulation(lazy_cfg(), seed=1).run()
        lazy = ReliabilitySimulation(
            lazy_cfg(recovery_threshold=2), seed=1).run()
        assert lazy.unavail_group_seconds > eager.unavail_group_seconds

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_p_loss_monotone_in_threshold(self, seed):
        """The bracket: waiting to repair can only lose more data.
        Coupled failure histories make this per-seed, not just in
        expectation."""
        eager = ReliabilitySimulation(lazy_cfg(), seed=seed).run()
        lazy = ReliabilitySimulation(
            lazy_cfg(recovery_threshold=2), seed=seed).run()
        assert lazy.groups_lost >= eager.groups_lost

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_unavailability_monotone_in_repair_bandwidth(self, seed):
        narrow = ReliabilitySimulation(
            lazy_cfg(repair_bandwidth_fraction=0.05), seed=seed).run()
        wide = ReliabilitySimulation(
            lazy_cfg(repair_bandwidth_fraction=0.8), seed=seed).run()
        assert narrow.disk_failures == wide.disk_failures
        assert wide.unavail_group_seconds <= narrow.unavail_group_seconds

    def test_held_entries_drain_on_release(self):
        """Whatever the trigger releases must actually run: held counts
        and started counts stay consistent over a full lifetime."""
        stats = ReliabilitySimulation(
            lazy_cfg(recovery_threshold=2), seed=2).run()
        assert stats.rebuilds_held > 0
        assert stats.rebuilds_started > 0
        assert stats.rebuilds_completed <= stats.rebuilds_started

    def test_splitting_state_round_trips_lazy_fields(self):
        """Multilevel splitting snapshots must carry the held map and
        open spans, or restored clones would silently heal."""
        cfg = lazy_cfg(recovery_threshold=2)
        sim = ReliabilitySimulation(cfg, seed=3)
        state = sim.run_to_level(2)
        assert state is not None        # one disk degrades many groups
        assert len(sim._degraded_since) >= 2
        assert sim._held                # threshold 2 parked the rebuilds
        clone = ReliabilitySimulation.from_split_state(cfg, state,
                                                       clone_seed=99)
        assert clone._held == sim._held
        assert clone._degraded_since == sim._degraded_since
        assert clone.stats.rebuilds_held == sim.stats.rebuilds_held

    @pytest.mark.slow
    @given(seed=st.integers(0, 50))
    @settings(max_examples=10, deadline=None)
    def test_property_p_loss_bracket_across_seeds(self, seed):
        eager = ReliabilitySimulation(lazy_cfg(), seed=seed).run()
        lazy = ReliabilitySimulation(
            lazy_cfg(recovery_threshold=2), seed=seed).run()
        assert lazy.groups_lost >= eager.groups_lost
        assert lazy.unavail_group_seconds >= eager.unavail_group_seconds

    @pytest.mark.slow
    @given(seed=st.integers(0, 50),
           fractions=st.tuples(st.floats(0.02, 0.1),
                               st.floats(0.3, 1.0)))
    @settings(max_examples=10, deadline=None)
    def test_property_unavailability_bracket_across_seeds(self, seed,
                                                          fractions):
        narrow_f, wide_f = fractions
        narrow = ReliabilitySimulation(
            lazy_cfg(repair_bandwidth_fraction=narrow_f), seed=seed).run()
        wide = ReliabilitySimulation(
            lazy_cfg(repair_bandwidth_fraction=wide_f), seed=seed).run()
        assert wide.unavail_group_seconds <= narrow.unavail_group_seconds


# --------------------------------------------------------------------- #
# Analytic rails: lazy Markov chain
# --------------------------------------------------------------------- #
class TestLazyMarkov:
    def test_threshold_one_is_the_eager_chain(self):
        import numpy as np
        from repro.reliability.markov import (group_generator,
                                              lazy_group_generator)
        lam, mu = 1e-6, 1e-3
        assert np.array_equal(
            lazy_group_generator(MIRROR_3, lam, mu, threshold=1),
            group_generator(MIRROR_3, lam, mu))

    def test_threshold_validation(self):
        from repro.reliability.markov import lazy_group_generator
        with pytest.raises(ValueError):
            lazy_group_generator(MIRROR_3, 1e-6, 1e-3, threshold=0)
        with pytest.raises(ValueError, match="tolerance"):
            lazy_group_generator(MIRROR_3, 1e-6, 1e-3, threshold=3)

    def test_lazy_p_loss_monotone_in_threshold(self):
        from repro.reliability.markov import p_group_loss_lazy
        lam, mu, horizon = 1e-7, 1e-3, 6 * YEAR
        p1 = p_group_loss_lazy(MIRROR_3, lam, mu, horizon, threshold=1)
        p2 = p_group_loss_lazy(MIRROR_3, lam, mu, horizon, threshold=2)
        assert 0 < p1 < p2 < 1

    def test_analytic_envelopes_exclude_lazy_configs(self):
        from repro.reliability import analytic, markov
        cfg = lazy_cfg(recovery_threshold=2)
        assert any("lazy recovery" in r
                   for r in analytic.unsupported_reasons(cfg))
        assert any("lazy recovery" in r
                   for r in markov.unsupported_reasons(cfg))
        assert not any("lazy recovery" in r
                       for r in analytic.unsupported_reasons(lazy_cfg()))

    def test_bulk_engine_excludes_lazy_configs(self):
        from repro.reliability.bulk import bulk_unsupported_reasons
        assert any(
            "lazy recovery" in r for r in
            bulk_unsupported_reasons(lazy_cfg(recovery_threshold=2)))
        assert not any("lazy recovery" in r
                       for r in bulk_unsupported_reasons(lazy_cfg()))

    @pytest.mark.slow
    def test_simulated_lazy_losses_bracketed_by_chains(self):
        """The rail: expected lazy losses land between the eager chain
        (lower bound — lazy can only be worse) and the lazy chain (upper
        bound — it re-gates repairs below r, over-penalizing the real
        policy).  Replacement keeps the population steady so the
        constant-rate assumption holds; the slack on each side is the
        Poisson noise of the total count, not a fudge factor."""
        from repro.reliability.markov import (p_group_loss,
                                              p_group_loss_lazy)
        rate = 18.0
        cfg = SystemConfig(total_user_bytes=20 * TB,
                           group_user_bytes=10 * GB, scheme=MIRROR_3,
                           vintage=flat_vintage(rate),
                           duration=2 * YEAR,
                           replacement_threshold=0.05,
                           recovery_threshold=2)
        lam = rate / 100.0 / (1000 * HOUR)
        mu = 1.0 / (cfg.detection_latency
                    + cfg.rebuild_seconds_per_block)
        n_runs = 10
        eager_total = n_runs * cfg.n_groups * p_group_loss(
            MIRROR_3, lam, mu, cfg.duration)
        lazy_total = n_runs * cfg.n_groups * p_group_loss_lazy(
            MIRROR_3, lam, mu, cfg.duration, threshold=2)
        assert eager_total < lazy_total

        lost = sum(ReliabilitySimulation(cfg, seed=s).run().groups_lost
                   for s in range(n_runs))
        # Upper rail: observed count within 4 sigma + discreteness of
        # the chain's expected total (chain E here ~1.8 => bound ~9).
        assert lost <= lazy_total + 4.0 * math.sqrt(lazy_total) + 2.0
        # Lower rail: the eager chain lies below the lazy estimate even
        # after the same noise allowance (eager E here ~2e-4).
        assert eager_total <= lost + 4.0 * math.sqrt(lazy_total) + 2.0


# --------------------------------------------------------------------- #
# Telemetry: float-exact span accounting
# --------------------------------------------------------------------- #
class TestSpanTelemetry:
    def run_fast(self, cfg, seed=0):
        tele = Telemetry()
        stats = ReliabilitySimulation(cfg, seed=seed,
                                      telemetry=tele).run()
        return stats, tele.snapshot()["metrics"]

    def test_fast_engine_span_sum_is_float_exact(self):
        stats, m = self.run_fast(lazy_cfg(recovery_threshold=2), seed=1)
        assert stats.unavail_spans > 0
        assert m["repro_group_unavailability_seconds_sum_total"]["value"] \
            == stats.unavail_group_seconds          # exact, not approx
        assert m["repro_group_unavailability_seconds_spans_completed_total"
                 ]["value"] == stats.unavail_spans

    def test_fast_engine_held_counters_match(self):
        stats, m = self.run_fast(lazy_cfg(recovery_threshold=2), seed=1)
        assert m["repro_rebuilds_held_total"]["value"] == \
            stats.rebuilds_held
        released = m["repro_held_released_total"]["value"]
        assert 0 < released <= stats.rebuilds_held

    def test_scenario_span_sum_is_float_exact(self):
        tele = Telemetry()
        cfg = scenario_cfg()
        partner = partner_of(cfg, 0)
        out = (Scenario(cfg, telemetry=tele)
               .fail(disk=0, at=100.0)
               .fail(disk=partner, at=3600.0)
               .run(4 * DAY))
        m = tele.snapshot()["metrics"]
        assert out.stats.unavail_spans > 0
        assert m["repro_group_unavailability_seconds_sum_total"]["value"] \
            == out.stats.unavail_group_seconds      # exact, not approx
        assert m["repro_group_unavailability_seconds_spans_completed_total"
                 ]["value"] == out.stats.unavail_spans

    def test_eager_engines_also_account_spans(self):
        stats, m = self.run_fast(lazy_cfg(), seed=1)
        assert m["repro_group_unavailability_seconds_sum_total"]["value"] \
            == stats.unavail_group_seconds
        assert m["repro_rebuilds_held_total"]["value"] == 0

    def test_telemetry_observation_is_free(self):
        base = ReliabilitySimulation(lazy_cfg(recovery_threshold=2),
                                     seed=4).run()
        observed, _ = self.run_fast(lazy_cfg(recovery_threshold=2),
                                    seed=4)
        assert observed.unavail_group_seconds == \
            base.unavail_group_seconds
        assert observed.rebuilds_held == base.rebuilds_held
        assert observed.groups_lost == base.groups_lost


# --------------------------------------------------------------------- #
# Span accounting under membership churn (the bugfix audit)
# --------------------------------------------------------------------- #
class TestSpanAccountingUnderChurn:
    """Group membership can change *during* an open degradation span —
    migration onto a replacement batch.  The audit contract: spans stay
    keyed by group id, never double-open, never double-close, and remain
    float-exact against telemetry."""

    def churn_cfg(self, **kw):
        defaults = dict(total_user_bytes=10 * TB,
                        group_user_bytes=10 * GB, scheme=MIRROR_3,
                        vintage=flat_vintage(4.0), duration=2 * YEAR,
                        replacement_threshold=0.05)
        defaults.update(kw)
        return SystemConfig(**defaults)

    @pytest.mark.parametrize("threshold", [1, 2])
    def test_fast_engine_exact_under_migration(self, threshold):
        cfg = self.churn_cfg(recovery_threshold=threshold)
        tele = Telemetry()
        stats = ReliabilitySimulation(cfg, seed=5, telemetry=tele).run()
        m = tele.snapshot()["metrics"]
        assert stats.replacement_batches > 0        # churn actually ran
        assert m["repro_group_unavailability_seconds_sum_total"]["value"] \
            == stats.unavail_group_seconds          # exact, not approx
        assert m["repro_group_unavailability_seconds_spans_completed_total"
                 ]["value"] == stats.unavail_spans

    def test_no_overcount_against_exposure(self):
        """The hard invariant a double-count would break: total recorded
        unavailability can never exceed groups x horizon."""
        cfg = self.churn_cfg(recovery_threshold=2)
        stats = ReliabilitySimulation(cfg, seed=6).run()
        assert 0 < stats.unavail_group_seconds \
            <= cfg.n_groups * cfg.duration
        assert stats.unavail_max <= cfg.duration

    def test_spans_survive_batch_mid_degradation(self):
        """A replacement batch (and its migration) while groups sit
        degraded must not close, reopen, or drop their spans: the totals
        stay within exposure and held entries still exist at the end."""
        cfg = self.churn_cfg(recovery_threshold=2,
                             total_user_bytes=4 * TB)
        stats = ReliabilitySimulation(cfg, seed=7).run()
        assert stats.replacement_batches > 0
        assert stats.rebuilds_held > 0
        assert stats.unavail_spans > 0
        assert 0 < stats.unavail_group_seconds \
            <= cfg.n_groups * cfg.duration


# --------------------------------------------------------------------- #
# Aggregation and the experiment driver
# --------------------------------------------------------------------- #
class TestAggregation:
    def test_fold_accumulates_availability_fields(self):
        from repro.reliability.runner import StatsAggregate
        a = ReliabilitySimulation(lazy_cfg(recovery_threshold=2),
                                  seed=0).run()
        b = ReliabilitySimulation(lazy_cfg(recovery_threshold=2),
                                  seed=1).run()
        agg = StatsAggregate()
        agg.fold(a)
        agg.fold(b)
        assert agg.unavail_group_seconds == \
            a.unavail_group_seconds + b.unavail_group_seconds
        assert agg.unavail_spans == a.unavail_spans + b.unavail_spans
        assert agg.unavail_max == max(a.unavail_max, b.unavail_max)
        assert agg.rebuilds_held == a.rebuilds_held + b.rebuilds_held

    def test_scenario_outcome_reports_held_outstanding(self):
        out = Scenario(scenario_cfg()).fail(disk=0, at=100.0).run(1 * DAY)
        assert out.held_outstanding == out.stats.rebuilds_held > 0


class TestExperimentDriver:
    def test_grid_config_sets_policy_fields(self):
        from repro.experiments import availability_sweep as av
        from repro.experiments.base import SCALES
        cfg = av.grid_config(SCALES["smoke"], threshold=2, fraction=0.2)
        assert cfg.recovery_threshold == 2
        assert cfg.repair_bandwidth_fraction == 0.2
        assert cfg.scheme is ECC_4_6
        assert repair_utilization(cfg) < 1.0        # grid is feasible

    def test_lazy_markov_column_is_monotone_in_threshold(self):
        from repro.experiments import availability_sweep as av
        from repro.experiments.base import SCALES
        smoke = SCALES["smoke"]
        p1 = av.lazy_markov_p_loss(av.grid_config(smoke, 1, 0.2))
        p2 = av.lazy_markov_p_loss(av.grid_config(smoke, 2, 0.2))
        assert 0 <= p1 < p2 <= 1

    @pytest.mark.slow
    def test_smoke_run_emits_full_grid(self):
        from repro.experiments import availability_sweep as av
        from repro.experiments.base import SCALES
        result = av.run(SCALES["smoke"])
        assert len(result.rows) == \
            len(av.THRESHOLDS) * len(av.REPAIR_FRACTIONS)
        for row in result.rows:
            assert 0.0 <= row["unavail_frac"] <= 1.0
            assert row["luby_util"] < 1.0
            assert 0.0 <= row["markov_p_loss"] <= 1.0
