"""Tests of the experiment drivers (repro.experiments).

Every experiment with a findings check runs once per session, as
``python -m repro run NAME`` runs it: at smoke scale in tier-1, or at
``REPRO_SCALE`` when that is set (``REPRO_SCALE=paper`` engages the
paper-only findings).  ``test_paper_findings`` applies the checks of
``tests/findings.py`` to those results; the driver tests below read the
same results (and never mutate them), so no experiment runs twice with
the same inputs.  Nothing here writes a file.
"""

import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import EXPERIMENTS
from repro.config import SystemConfig
from repro.experiments import (SCALES, current_scale, faults_sweep,
                               figure4, figure5, topology_sweep)
from repro.reliability import sweep
from repro.units import GB, MB, TB
from tests import findings

SMOKE = SCALES["smoke"]

#: The scale the experiments below run at.
SCALE = current_scale() if "REPRO_SCALE" in os.environ else SMOKE

SRC = Path(__file__).resolve().parents[1] / "src"

#: CLI experiments whose every table has a findings check.
FINDINGS = ("table1", "figure3", "figure4", "figure5", "table3", "figure7",
            "figure8", "redirection", "mttdl", "perf", "ablations")


@functools.cache
def run(experiment):
    """Table name -> result of ``python -m repro run EXPERIMENT`` at
    :data:`SCALE` (seed 0), computed once."""
    return {r.experiment: r
            for r in EXPERIMENTS[experiment](SCALE, 0, "naive")}


@pytest.mark.parametrize("experiment", FINDINGS)
def test_paper_findings(experiment):
    tables = run(experiment)
    assert findings.check(tables.values()) == tables.keys()


class TestScales:
    def test_known_scales(self):
        assert set(SCALES) == {"smoke", "small", "paper"}
        assert SCALES["paper"].n_runs == 100
        assert SCALES["paper"].data_factor == 1.0

    def test_env_selection(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        assert current_scale().name == "smoke"
        monkeypatch.setenv("REPRO_SCALE", "bogus")
        with pytest.raises(ValueError):
            current_scale()

    def test_default_is_small(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert current_scale().name == "small"

    def test_size_config_scales_data(self):
        from repro.config import PAPER_BASE
        shrunk = SMOKE.size_config(PAPER_BASE)
        assert shrunk.total_user_bytes == pytest.approx(
            PAPER_BASE.total_user_bytes * 0.05)


class TestTable1:
    def test_empirical_rates_match_specification(self):
        for row in run("table1")["table1"].rows[:-1]:
            assert row["rel_err_pct"] < 10.0

    def test_cumulative_row(self):
        cum = run("table1")["table1"].rows[-1]
        assert 8.0 < cum["empirical_pct"] < 14.0


class TestFigure3:
    def test_rows_cover_all_schemes_and_modes(self):
        result = run("figure3")["figure3a"]
        assert len(result.rows) == 12
        assert {r["farm"] for r in result.rows} == {"FARM", "w/o"}

    def test_render_contains_header_and_rows(self):
        text = run("figure3")["figure3a"].render()
        assert "figure3a" in text and "8/10" in text

    def test_both_panels(self):
        assert list(run("figure3")) == ["figure3a", "figure3b"]


class TestFigure4:
    def test_ratio_column_consistency(self):
        for row in run("figure4")["figure4"].rows:
            if row["latency_min"] == 0.0:
                assert row["latency_over_rebuild"] == 0.0
            else:
                assert row["latency_over_rebuild"] > 0

    def test_collapse_sorted_by_ratio(self):
        rows = figure4.collapse_by_ratio(run("figure4")["figure4"])
        ratios = [r["ratio"] for r in rows]
        assert ratios == sorted(ratios)


class TestFigure5:
    def test_sweep_dimensions(self):
        result = figure5.run(SMOKE, bandwidths_bps=(8 * MB, 40 * MB),
                             group_sizes_bytes=(10 * GB,))
        assert len(result.rows) == 4       # 2 modes x 1 size x 2 bw


class TestTable3:
    @staticmethod
    def rows_10gb():
        return [r for r in run("table3")["table3"].rows
                if r["group_gb"] == 10]

    def test_initial_mean_utilization_400gb(self):
        initial = self.rows_10gb()[0]
        assert initial["mean_gb"] == pytest.approx(400.0, rel=0.1)

    def test_mean_grows_after_six_years(self):
        initial, final = self.rows_10gb()
        assert final["mean_gb"] > initial["mean_gb"]
        assert final["failed_disks"] > 0


class TestFigure7:
    def test_thresholds_and_batches(self):
        row = run("figure7")["figure7"].rows[0]
        assert row["threshold_pct"] == 2.0
        assert row["batches_mean"] >= 0


class TestFigure8:
    def test_capacity_series_per_scheme(self):
        rows = findings.by(run("figure8")["figure8a"], scheme="1/2")
        assert [r["capacity_pb"] for r in rows] == [0.1, 0.5, 1, 2, 5]

    def test_rate_multiplier_panel_name(self):
        assert "failure rates x2" in run("figure8")["figure8b"].description


class TestRedirectionAndAblations:
    def test_redirection_experiment_runs(self):
        for row in run("redirection")["redirection"].rows:
            assert 0 <= row["systems_with_redirection_pct"] <= 100

    def test_placement_ablation_has_both_rows(self):
        result = run("ablations")["ablation-placement"]
        assert {r["placement"] for r in result.rows} == {"random", "rush"}

    def test_bathtub_ablation_rows(self):
        result = run("ablations")["ablation-bathtub"]
        assert {r["hazard"] for r in result.rows} == {"bathtub", "flat"}
        # Each row ran three times the scale's runs, and the header says so.
        assert (f"[scale={SCALE.name}, runs={3 * SCALE.n_runs}] =="
                in result.render())

    def test_policy_ablation_counts_violations(self):
        result = run("ablations")["ablation-policy"]
        by_policy = {r["policy"]: r for r in result.rows}
        assert by_policy["full"]["buddy_violations"] == 0
        # Only the buddy check keeps a group's blocks on distinct disks.
        assert by_policy["no-idle-pref"]["buddy_violations"] == 0
        assert by_policy["no-buddy-check"]["buddy_violations"] > 0


class TestTopologySweep:
    def test_constrained_placements_beat_random_in_every_cell(self):
        result = topology_sweep.run(SMOKE)
        cells = {}
        for row in result.rows:
            cells.setdefault((row["racks"], row["bursts_yr"]), {})[
                row["policy"]] = row["p_loss"]
        assert len(cells) == 4
        for by_policy in cells.values():
            assert by_policy["random+cap"] < by_policy["random"]
            assert by_policy["copyset"] < by_policy["random"]

    def test_run_writes_nothing_into_the_cwd(self, tmp_path, monkeypatch):
        """The CLI's ``--out`` saves tables; the experiment itself must
        not write ``results/`` wherever it happens to run."""
        monkeypatch.setattr(topology_sweep, "RACK_COUNTS", (2,))
        monkeypatch.setattr(topology_sweep, "BURST_RATES",
                            topology_sweep.BURST_RATES[:1])
        monkeypatch.setattr(topology_sweep, "POLICIES",
                            topology_sweep.POLICIES[:1])
        monkeypatch.chdir(tmp_path)
        result = topology_sweep.run(SMOKE)
        assert len(result.rows) == 1
        assert not (tmp_path / "results").exists()
        assert list(tmp_path.iterdir()) == []


class TestNothingWrittenWithoutOut:
    """``run --out DIR`` is the one way to save a table: a sweep and the
    experiment CLI leave the directory they run in untouched."""

    def test_sweep_and_cli_runs_leave_the_cwd_empty(self, tmp_path,
                                                    monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_PATH", raising=False)
        monkeypatch.chdir(tmp_path)
        sweep({"tiny": SystemConfig(total_user_bytes=10 * TB,
                                    group_user_bytes=10 * GB)}, n_runs=2)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC), os.environ.get("PYTHONPATH", "")]))
        # Seed 1: test_paper_findings already ran figure5 at seed 0.
        for args in (["figure5", "--scale", "smoke", "--seed", "1"],
                     ["rare"]):
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "run", *args], cwd=tmp_path,
                env=env, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr[-2000:]
        assert list(tmp_path.iterdir()) == []


class TestFaultsSweep:
    @pytest.fixture(scope="class")
    def result(self):
        return faults_sweep.run(SMOKE, base_seed=0)

    def test_mttdl_monotone_as_scrub_interval_shrinks(self, result):
        intervals = result.column("scrub_interval_h")
        assert intervals == sorted(intervals, reverse=True)
        mttdl = result.column("group_mttdl_yr")
        assert all(later > earlier
                   for earlier, later in zip(mttdl, mttdl[1:]))

    def test_measured_latency_tracks_interval(self, result):
        latency = result.column("mean_latency_h")
        assert all(later < earlier
                   for earlier, later in zip(latency, latency[1:]))
        # Mean undiscovered lifetime is on the order of interval/2.
        for row in result.rows:
            assert 0 < row["mean_latency_h"] < row["scrub_interval_h"]

    def test_analytic_column_pure_function(self):
        cfg = faults_sweep.SystemConfig()
        a = faults_sweep.analytic_mttdl_years(
            cfg, 24 * 3600.0, faults_sweep.LATENT_RATE_PER_DISK)
        b = faults_sweep.analytic_mttdl_years(
            cfg, 24 * 3600.0, faults_sweep.LATENT_RATE_PER_DISK)
        assert a == b > 0
