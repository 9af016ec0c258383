"""Tests for the DES engine's SMART veto (paper §2.3).

The veto is two deterministic per-``(seed, disk)`` coins: a spurious
flag with the false-positive rate, and a real one — with the detection
probability — inside the warning horizon of the drive's failure.
"""

import pytest

from repro.config import SystemConfig
from repro.reliability import ReliabilitySimulation
from repro.units import DAY, GB, TB, YEAR


def engine(seed=0, **kw):
    defaults = dict(total_user_bytes=20 * TB, group_user_bytes=10 * GB,
                    use_smart=True)
    defaults.update(kw)
    return ReliabilitySimulation(SystemConfig(**defaults), seed=seed)


def big(seed=0, **kw):
    """Enough disks (2,000) for rate checks."""
    return engine(seed=seed, total_user_bytes=400 * TB, **kw)


class TestWarnings:
    def test_flags_failing_drive_inside_horizon(self):
        e = engine(smart_detection_probability=1.0,
                   smart_false_positive_rate=0.0,
                   smart_warning_horizon=7 * DAY)
        fail_at = e.fail_time[1]
        assert not e._smart_suspect(1, now=fail_at - 30 * DAY)
        assert e._smart_suspect(1, now=fail_at - 1 * DAY)

    def test_missed_detection_never_flags(self):
        e = engine(smart_detection_probability=0.0,
                   smart_false_positive_rate=0.0)
        assert not any(e._smart_suspect(d, now=e.fail_time[d] - 1.0)
                       for d in range(e.total_disks))

    def test_detection_decision_is_sticky(self):
        e = engine(smart_detection_probability=0.5,
                   smart_false_positive_rate=0.0)
        now = e.fail_time[1] - 1.0
        first = e._smart_suspect(1, now=now)
        for _ in range(10):
            assert e._smart_suspect(1, now=now) == first
        # ... and the same seed decides the same way in a new engine.
        assert engine(smart_detection_probability=0.5,
                      smart_false_positive_rate=0.0)._smart_suspect(
                          1, now=now) == first

    def test_false_positive_rate(self):
        e = engine(smart_detection_probability=0.0,
                   smart_false_positive_rate=1.0)
        assert e._smart_suspect(2, now=0.0)

    def test_false_positive_frequency_statistical(self):
        e = big(seed=5, smart_detection_probability=0.0,
                smart_false_positive_rate=0.1)
        n = e.total_disks
        flagged = sum(e._smart_suspect(d, 0.0) for d in range(n))
        assert 0.065 * n < flagged < 0.135 * n

    def test_detection_rate_statistical(self):
        """Inside the horizon a failing drive is flagged with the
        configured detection probability."""
        e = big(smart_detection_probability=0.4,
                smart_false_positive_rate=0.0,
                smart_warning_horizon=100 * YEAR)
        inside = [d for d in range(e.total_disks)
                  if e.fail_time[d] <= e.cfg.smart_warning_horizon]
        frac = sum(e._smart_suspect(d, 0.0) for d in inside) / len(inside)
        assert frac == pytest.approx(0.4, abs=0.05)

    def test_unregistered_disk_not_suspect(self):
        e = engine(use_smart=False, smart_false_positive_rate=1.0)
        assert not e._smart_suspect(3, now=e.fail_time[3] - 1.0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            engine(smart_detection_probability=1.5)
        with pytest.raises(ValueError):
            engine(smart_false_positive_rate=-0.1)
        with pytest.raises(ValueError):
            engine(smart_warning_horizon=-1.0)


class TestSmartRuns:
    def test_smart_runs_complete(self):
        stats = engine(seed=3).run()
        assert stats.rebuilds_completed == stats.rebuilds_started
