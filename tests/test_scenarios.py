"""Tests for deterministic failure scenarios (repro.reliability.scenarios)."""

import pytest

from repro.config import SystemConfig
from repro.reliability.scenarios import Injection, Scenario
from repro.units import GB, HOUR, TB


def cfg(**kw):
    defaults = dict(total_user_bytes=8 * TB, group_user_bytes=10 * GB)
    defaults.update(kw)
    return SystemConfig(**defaults)


class TestScripting:
    def test_single_failure_fully_recovers(self):
        out = Scenario(cfg()).fail(disk=0, at=100.0).run(horizon=24 * HOUR)
        assert out.data_survived
        assert out.stats.rebuilds_completed > 0
        engine = out.system
        assert (engine.failed_count[~engine.lost] == 0).all()

    def test_no_background_failures(self):
        """Scenario mode suppresses stochastic failures entirely."""
        out = Scenario(cfg()).run(horizon=cfg().duration)
        assert out.stats.disk_failures == 0
        assert out.stats.rebuilds_started == 0

    def test_injections_recorded_sorted(self):
        out = (Scenario(cfg())
               .fail(disk=3, at=500.0)
               .fail(disk=1, at=100.0)
               .run(horizon=24 * HOUR))
        assert out.injections == [Injection(100.0, 1), Injection(500.0, 3)]

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            Scenario(cfg()).fail(disk=0, at=-1.0)
        with pytest.raises(ValueError):
            Scenario(cfg()).fail_partners_of(0, at=1.0, count=0)
        with pytest.raises(ValueError, match="no such disk"):
            Scenario(cfg()).fail(disk=10_000, at=1.0).run(horizon=10.0)

    def test_batch_failure(self):
        out = (Scenario(cfg())
               .fail_batch([0, 1, 2], at=100.0)
               .run(horizon=24 * HOUR))
        assert out.stats.disk_failures == 3


class TestDiskValidation:
    """Every scripting method rejects a disk id outside
    ``0 <= disk < n_disks`` when the script is written, not at run time
    (a negative id used to index from the end of the disk list)."""

    SCRIPTS = {
        "fail": lambda sc, d: sc.fail(disk=d, at=1.0),
        "fail_batch": lambda sc, d: sc.fail_batch([0, d], at=1.0),
        "fail_partners_of": lambda sc, d: sc.fail_partners_of(d, at=1.0),
        "outage": lambda sc, d: sc.outage(disk=d, at=1.0, duration=HOUR),
        "latent": lambda sc, d: sc.latent(disk=d, at=1.0),
    }

    @pytest.mark.parametrize("method", sorted(SCRIPTS))
    @pytest.mark.parametrize("where", ["negative", "n_disks"])
    def test_out_of_range_disk_rejected_at_script_time(self, method,
                                                        where):
        config = cfg()
        disk = -1 if where == "negative" else config.n_disks
        scenario = Scenario(config)
        with pytest.raises(ValueError, match="no such disk"):
            self.SCRIPTS[method](scenario, disk)
        # nothing was scripted: the scenario still runs clean
        out = scenario.run(horizon=HOUR)
        assert out.stats.disk_failures == 0
        assert out.stats.transient_outages == 0

    @pytest.mark.parametrize("method", sorted(SCRIPTS))
    def test_last_disk_accepted(self, method):
        config = cfg()
        scenario = Scenario(config)
        self.SCRIPTS[method](scenario, config.n_disks - 1)
        scenario.run(horizon=HOUR)


class TestAdversarialTiming:
    def test_partner_inside_window_loses_under_both_schemes(self):
        base = cfg()
        for use_farm in (True, False):
            out = (Scenario(base.with_(use_farm=use_farm))
                   .fail(disk=0, at=100.0)
                   .fail_partners_of(0, at=110.0, count=1)
                   .run(horizon=24 * HOUR))
            assert not out.data_survived, use_farm
            assert out.stats.first_loss_time == 110.0

    def test_farm_survives_what_kills_raid(self):
        """The paper's core claim as a concrete incident: a partner failure
        after FARM's short window but inside RAID's long queue."""
        base = cfg()
        # FARM window = 30 + 625 s; traditional queue runs for hours.
        at = 100.0 + 30.0 + 625.0 * 3
        farm = (Scenario(base)
                .fail(disk=0, at=100.0)
                .fail_partners_of(0, at=at, count=1)
                .run(horizon=24 * HOUR))
        raid = (Scenario(base.with_(use_farm=False))
                .fail(disk=0, at=100.0)
                .fail_partners_of(0, at=at, count=1)
                .run(horizon=24 * HOUR))
        assert farm.data_survived
        assert raid.stats.mean_window > farm.stats.mean_window

    def test_determinism(self):
        def run():
            return (Scenario(cfg(), seed=5)
                    .fail(disk=2, at=50.0)
                    .fail_partners_of(2, at=60.0)
                    .run(horizon=24 * HOUR))

        a, b = run(), run()
        assert a.lost_groups == b.lost_groups
        assert a.stats == b.stats


class TestOutcome:
    def test_summary_mentions_loss(self):
        out = (Scenario(cfg())
               .fail(disk=0, at=100.0)
               .fail_partners_of(0, at=105.0)
               .run(horizon=24 * HOUR))
        text = out.summary()
        assert "DATA LOST" in text and "FARM" in text

    def test_summary_mentions_survival(self):
        out = Scenario(cfg()).fail(disk=0, at=100.0).run(horizon=24 * HOUR)
        assert "no data lost" in out.summary()

    def test_trace_contains_injections_and_rebuilds(self):
        out = Scenario(cfg()).fail(disk=0, at=100.0).run(horizon=24 * HOUR)
        counts = out.trace.counts()
        assert counts.get("injected-failure") == 1
        assert counts.get("rebuild", 0) > 0
