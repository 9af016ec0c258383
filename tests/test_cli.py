"""Tests for the command-line interface (repro.__main__)."""

import pytest

from repro.__main__ import (EXPERIMENTS, build_parser, main,
                            result_mismatches)


class TestParser:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_experiment_fails_cleanly(self, capsys):
        assert main(["run", "figure99", "--scale", "smoke"]) == 2
        assert "unknown experiment" in capsys.readouterr().err


class TestEstimate:
    def test_analytic_only(self, capsys):
        rc = main(["estimate", "--data-pb", "0.1", "--runs", "0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "P(loss over 6 yr)" in out and "FARM" in out

    def test_no_farm_flag(self, capsys):
        main(["estimate", "--data-pb", "0.1", "--runs", "0", "--no-farm"])
        assert "traditional" in capsys.readouterr().out

    def test_monte_carlo_path(self, capsys):
        rc = main(["estimate", "--data-pb", "0.02", "--runs", "2"])
        assert rc == 0
        assert "monte carlo" in capsys.readouterr().out

    def test_scheme_parsing(self, capsys):
        main(["estimate", "--data-pb", "0.1", "--scheme", "8/10",
              "--runs", "0"])
        assert "8/10" in capsys.readouterr().out


class TestSensitivity:
    def test_tornado_output(self, capsys):
        rc = main(["sensitivity", "--data-pb", "0.5", "--no-farm"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "failure_rate" in out and "most influential" in out


class TestRun:
    def test_run_table1_and_save(self, tmp_path, capsys):
        # Seed 1: tests/test_experiments.py runs table1 at seed 0.
        rc = main(["run", "table1", "--scale", "smoke", "--seed", "1",
                   "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "table1.txt").exists()
        assert "table1" in capsys.readouterr().out

    def test_registry_covers_every_figure(self):
        assert {"table1", "figure3", "figure4", "figure5", "table3",
                "figure7", "figure8", "redirection",
                "ablations"} <= set(EXPERIMENTS)


class TestSweepCheck:
    """``sweep-check`` compares every aggregate field but host time."""

    @staticmethod
    def _pair():
        from repro.config import SystemConfig
        from repro.reliability import estimate_p_loss
        from repro.units import GB, TB
        cfg = SystemConfig(total_user_bytes=10 * TB,
                           group_user_bytes=10 * GB)
        return (estimate_p_loss(cfg, n_runs=2, telemetry=True,
                                telemetry_path="") for _ in range(2))

    def test_reports_a_field_the_hand_picked_lists_skipped(self):
        serial, parallel = self._pair()
        parallel.aggregate.run_seconds_total += 1.0    # host time: ignored
        parallel.aggregate.rebuilds_started += 1
        started = serial.aggregate.rebuilds_started
        assert result_mismatches("farm", serial, parallel) == [
            f"farm.rebuilds_started: {started} != {started + 1}"]

    def test_reports_a_telemetry_difference(self):
        serial, parallel = self._pair()
        parallel.telemetry = {**parallel.telemetry, "extra": 1}
        [line] = result_mismatches("farm", serial, parallel)
        assert line.startswith("farm.telemetry: ")
