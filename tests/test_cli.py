"""Tests for the command-line interface (repro.__main__)."""

import pytest

from repro.__main__ import EXPERIMENTS, build_parser, main


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
