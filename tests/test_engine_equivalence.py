"""Cross-validation: a scripted replay must reproduce a stochastic lifetime.

The engine admits disk deaths two ways: its own draw from the
'disk-failures' stream (the Monte-Carlo sweeps), and the public
``on_disk_failure`` hook with stochastic failures turned off by
:class:`~repro.reliability.ScriptedFailures` (the path
:class:`~repro.reliability.Scenario`, shelf and domain bursts and the
fault injectors take).  Recording a stochastic run's deaths and replaying
them through the hook must give the same lifetime: every other random
draw (placement, recovery targets) comes from its own named stream, so
the two paths agree exactly, not just in distribution.
"""

import pytest

from repro.config import SystemConfig
from repro.reliability import ReliabilitySimulation, ScriptedFailures
from repro.sim.engine import Simulator
from repro.units import GB, TB, YEAR


def cfg(**kw):
    defaults = dict(total_user_bytes=50 * TB, group_user_bytes=10 * GB)
    defaults.update(kw)
    return SystemConfig(**defaults)


def record(c, seed):
    """One stochastic lifetime: its engine, stats and the fired deaths."""
    deaths = []

    def log(ev):
        if ev.name == "disk-failure":
            deaths.append((ev.time, ev.args[0]))

    engine = ReliabilitySimulation(c, seed=seed)
    engine.sim = Simulator(trace=log)
    return engine, engine.run(), deaths


def replay(c, seed, deaths):
    """The same seed with every death scripted through the public hook."""
    engine = ReliabilitySimulation(c, seed=seed,
                                   failure_draw=ScriptedFailures())
    for t, d in deaths:
        engine.sim.schedule_at(t, engine.on_disk_failure, d,
                               name="injected-failure")
    return engine, engine.run()


def both(c, seed):
    """(stochastic engine, its stats, replay engine, its stats)."""
    stoch, stoch_stats, deaths = record(c, seed)
    scripted, scripted_stats = replay(c, seed, deaths)
    return stoch, stoch_stats, scripted, scripted_stats


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_identical_failure_streams(seed):
    _, stoch, _, scripted = both(cfg(), seed)
    assert stoch.disk_failures > 0
    assert scripted.disk_failures == stoch.disk_failures


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rebuild_volume_agrees(seed):
    _, stoch, _, scripted = both(cfg(), seed)
    assert stoch.rebuilds_completed > 0
    assert scripted.rebuilds_started == stoch.rebuilds_started
    assert scripted.rebuilds_completed == stoch.rebuilds_completed


@pytest.mark.parametrize("use_farm", [True, False])
def test_windows_agree(use_farm):
    _, stoch, _, scripted = both(cfg(use_farm=use_farm), 4)
    assert stoch.mean_window > 0
    assert scripted.mean_window == stoch.mean_window
    assert scripted.window_max == stoch.window_max


def test_loss_rates_agree_under_stress():
    """At 10x failure rates losses are frequent; the replay must lose the
    same groups at the same times."""
    c = cfg(vintage=cfg().vintage.with_rate_multiplier(10.0),
            use_farm=False)
    stoch_lost = scripted_lost = 0
    for s in range(8):
        a, stoch, b, scripted = both(c, s)
        assert b.groups_lost_ids == a.groups_lost_ids
        assert scripted.first_loss_time == stoch.first_loss_time
        stoch_lost += stoch.groups_lost
        scripted_lost += scripted.groups_lost
    assert stoch_lost > 0 and scripted_lost > 0
    assert scripted_lost == stoch_lost


class TestSmartParity:
    """With ``use_smart`` on, both paths consult the same config knobs.

    The replay cannot warn ahead of a death it has not yet been told
    about, so only the false-positive channel (a per-``(seed, disk)``
    coin) is compared disk by disk; the detection channel is checked on
    the stochastic engine alone in ``tests/test_smart.py``.
    """

    def test_false_positive_rate_matches_in_distribution(self):
        """With a zero horizon and zero detection, only the spurious-flag
        channel remains; its rate must match the knob on both paths."""
        c = cfg(use_smart=True, smart_detection_probability=0.0,
                smart_false_positive_rate=0.3,
                smart_warning_horizon=0.0)
        stoch = ReliabilitySimulation(c, seed=12)
        scripted = ReliabilitySimulation(c, seed=12,
                                         failure_draw=ScriptedFailures())
        n = c.n_disks
        stoch_flags = [stoch._smart_suspect(d, 0.0) for d in range(n)]
        scripted_flags = [scripted._smart_suspect(d, 0.0)
                          for d in range(n)]
        assert sum(stoch_flags) / n == pytest.approx(0.3, abs=0.1)
        assert sum(scripted_flags) / n == pytest.approx(0.3, abs=0.1)
        assert scripted_flags == stoch_flags

    def test_smart_runs_complete_on_both_engines(self):
        """The veto may steer the stochastic run's targets away from a
        soon-failing disk the replay cannot foresee, so only the failure
        process is compared."""
        _, stoch, _, scripted = both(cfg(use_smart=True), 6)
        assert stoch.disk_failures > 0
        assert scripted.disk_failures == stoch.disk_failures


def test_traditional_spare_counts_agree():
    """Traditional recovery provisions one spare per failed disk (plus
    rare overflows) on both paths, and the spare ids line up, so the
    replay's scripted deaths of spares land on deployed drives."""
    c = cfg(use_farm=False)
    a, stoch, b, scripted = both(c, 5)
    assert b.total_disks == a.total_disks
    assert b.total_disks - c.n_disks == pytest.approx(
        scripted.disk_failures, abs=3)
    assert scripted.disk_failures == stoch.disk_failures


class TestLazyPolicyParity:
    """Lazy recovery must mean the *same thing* on both paths: same
    failure process, same hold/release/span semantics."""

    def lazy_cfg(self, **kw):
        from repro.disks.failure import BathtubFailureModel, RatePeriod
        from repro.disks.vintage import DiskVintage
        from repro.redundancy import MIRROR_3
        model = BathtubFailureModel((RatePeriod(0.0, float("inf"), 2.0),))
        defaults = dict(total_user_bytes=20 * TB, group_user_bytes=10 * GB,
                        scheme=MIRROR_3,
                        vintage=DiskVintage(failure_model=model),
                        duration=2 * YEAR, recovery_threshold=2,
                        repair_bandwidth_fraction=0.2)
        defaults.update(kw)
        return cfg(**defaults)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_failure_and_loss_counts_exact(self, seed):
        _, stoch, _, scripted = both(self.lazy_cfg(), seed)
        assert scripted.disk_failures == stoch.disk_failures
        assert scripted.groups_lost == stoch.groups_lost

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_held_and_span_accounting_agree(self, seed):
        _, stoch, _, scripted = both(self.lazy_cfg(), seed)
        assert stoch.rebuilds_held > 0
        assert scripted.rebuilds_held == stoch.rebuilds_held
        assert scripted.unavail_spans == stoch.unavail_spans
        assert scripted.unavail_group_seconds == \
            stoch.unavail_group_seconds

    def test_eager_spans_agree_too(self):
        """Span accounting matches on the default policy as well —
        groups degrade for one rebuild's length on both paths."""
        c = self.lazy_cfg(recovery_threshold=1,
                          repair_bandwidth_fraction=None)
        _, stoch, _, scripted = both(c, 0)
        assert stoch.unavail_spans > 0
        assert scripted.unavail_spans == stoch.unavail_spans
        assert scripted.unavail_group_seconds == \
            stoch.unavail_group_seconds

    def test_lazy_shift_matches_across_engines(self):
        """The *policy effect* — extra degraded time when going lazy —
        is the same on both paths."""
        eager_c = self.lazy_cfg(recovery_threshold=1)
        lazy_c = self.lazy_cfg()
        _, stoch_lazy, _, scripted_lazy = both(lazy_c, 1)
        _, stoch_eager, _, scripted_eager = both(eager_c, 1)
        stoch_shift = (stoch_lazy.unavail_group_seconds
                       - stoch_eager.unavail_group_seconds)
        scripted_shift = (scripted_lazy.unavail_group_seconds
                          - scripted_eager.unavail_group_seconds)
        assert stoch_shift > 0 and scripted_shift > 0
        assert scripted_shift == stoch_shift
