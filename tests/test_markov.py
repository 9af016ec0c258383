"""Tests for the single-group Markov chain (repro.reliability.markov)."""

import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from repro.config import PAPER_BASE, SystemConfig
from repro.disks.failure import BathtubFailureModel, RatePeriod
from repro.redundancy import (ECC_4_6, MIRROR_2, MIRROR_3, PAPER_SCHEMES,
                              RAID5_4_5)
from repro.reliability import (analytic, group_generator, markov, mttdl,
                               p_group_loss, p_system_loss)
from repro.reliability.envelope import ANALYTIC, MARKOV, refusals
from repro.units import GB, HOUR, TB, YEAR

LAM = 1e-6 / HOUR        # per-disk failure rate
MU = 1.0 / (655.0)       # per-block repair rate (FARM-like window)

SRC = Path(__file__).resolve().parents[1] / "src"


class TestGenerator:
    def test_rows_sum_to_zero(self):
        q = group_generator(MIRROR_2, LAM, MU)
        assert np.allclose(q.sum(axis=1), 0.0)

    def test_absorbing_state(self):
        q = group_generator(MIRROR_2, LAM, MU)
        assert np.allclose(q[-1], 0.0)

    def test_mirror2_shape(self):
        assert group_generator(MIRROR_2, LAM, MU).shape == (3, 3)
        assert group_generator(ECC_4_6, LAM, MU).shape == (4, 4)

    def test_failure_rates_scale_with_survivors(self):
        q = group_generator(ECC_4_6, LAM, MU)
        assert q[0, 1] == pytest.approx(6 * LAM)
        assert q[1, 2] == pytest.approx(5 * LAM)

    def test_serial_repair_rate_constant(self):
        q_par = group_generator(MIRROR_3, LAM, MU, parallel_repair=True)
        q_ser = group_generator(MIRROR_3, LAM, MU, parallel_repair=False)
        assert q_par[2, 1] == pytest.approx(2 * MU)
        assert q_ser[2, 1] == pytest.approx(MU)

    def test_negative_rates_rejected(self):
        with pytest.raises(ValueError):
            group_generator(MIRROR_2, -1.0, MU)


class TestAbsorption:
    def test_probability_increases_with_horizon(self):
        p1 = p_group_loss(MIRROR_2, LAM, MU, 1 * YEAR)
        p6 = p_group_loss(MIRROR_2, LAM, MU, 6 * YEAR)
        assert 0 < p1 < p6 < 1

    def test_zero_horizon_zero_loss(self):
        assert p_group_loss(MIRROR_2, LAM, MU, 0.0) == pytest.approx(0.0)

    def test_faster_repair_lowers_loss(self):
        slow = p_group_loss(MIRROR_2, LAM, MU / 10, 6 * YEAR)
        fast = p_group_loss(MIRROR_2, LAM, MU * 10, 6 * YEAR)
        assert fast < slow

    def test_higher_tolerance_lowers_loss(self):
        p_mirror2 = p_group_loss(MIRROR_2, LAM, MU, 6 * YEAR)
        p_mirror3 = p_group_loss(MIRROR_3, LAM, MU, 6 * YEAR)
        assert p_mirror3 < p_mirror2 / 100

    def test_matches_small_rate_asymptotic(self):
        """For mirroring with lam << mu, group loss over T is about
        n * lam * T * ((n-1) * lam / mu) — two overlapping failures."""
        t = 6 * YEAR
        p = p_group_loss(MIRROR_2, LAM, MU, t)
        approx = 2 * LAM * t * (LAM / MU)
        assert p == pytest.approx(approx, rel=0.15)

    def test_negative_horizon_rejected(self):
        with pytest.raises(ValueError):
            p_group_loss(MIRROR_2, LAM, MU, -1.0)


class TestSystemLoss:
    def test_independent_groups_compose(self):
        p1 = p_group_loss(MIRROR_2, LAM, MU, YEAR)
        psys = p_system_loss(MIRROR_2, 1000, LAM, MU, YEAR)
        assert psys == pytest.approx(1 - (1 - p1) ** 1000)

    def test_more_groups_riskier(self):
        a = p_system_loss(MIRROR_2, 100, LAM, MU, YEAR)
        b = p_system_loss(MIRROR_2, 10_000, LAM, MU, YEAR)
        assert b > a

    def test_group_count_validation(self):
        with pytest.raises(ValueError):
            p_system_loss(MIRROR_2, 0, LAM, MU, YEAR)


class TestMTTDL:
    def test_classic_mirror_formula(self):
        """MTTDL of a mirrored pair ~ mu / (2 lam^2) for lam << mu."""
        got = mttdl(MIRROR_2, LAM, MU)
        classic = MU / (2 * LAM ** 2)
        assert got == pytest.approx(classic, rel=0.01)

    def test_repair_extends_mttdl(self):
        assert mttdl(MIRROR_2, LAM, MU) > 100 * mttdl(MIRROR_2, LAM, 0.0)

    def test_mttdl_consistent_with_absorption(self):
        """P(loss by t) ~ t / MTTDL for t << MTTDL."""
        m = mttdl(MIRROR_2, LAM, MU)
        t = m / 1000.0
        p = p_group_loss(MIRROR_2, LAM, MU, t)
        assert p == pytest.approx(t / m, rel=0.05)

    def test_zero_failure_rate_never_loses(self):
        assert mttdl(MIRROR_2, 0.0, MU) == math.inf
        with pytest.raises(ValueError):
            mttdl(MIRROR_2, -LAM, MU)

    @pytest.mark.parametrize("farm", [True, False], ids=["FARM", "w/o"])
    @pytest.mark.parametrize("scheme", PAPER_SCHEMES, ids=str)
    def test_matches_exact_rational_solution(self, scheme, farm):
        """At the MTTDL table's configs (rates ~1e5 apart) the MTTDL is
        the exact absorption time of the float rates' chain, found by
        Gaussian elimination over rationals on ``Q_t m = -1``."""
        cfg = SystemConfig(group_user_bytes=10 * GB, scheme=scheme,
                           use_farm=farm)
        lam = analytic.mean_hazard(cfg)
        mu = 1.0 / analytic.mean_window(cfg)
        size = scheme.tolerance + 1            # the transient states
        a = [[Fraction(0)] * size for _ in range(size)]
        for i in range(size):
            up = (scheme.n - i) * Fraction(lam)
            down = Fraction(mu) * (i if farm else 1) if i else Fraction(0)
            a[i][i] = -(up + down)
            if i + 1 < size:
                a[i][i + 1] = up
            if i:
                a[i][i - 1] = down
        b = [Fraction(-1)] * size
        for c in range(size):
            for r in range(size):
                if r != c and a[r][c]:
                    f = a[r][c] / a[c][c]
                    a[r] = [x - f * y for x, y in zip(a[r], a[c])]
                    b[r] -= f * b[c]
        exact = float(b[0] / a[0][0])
        assert mttdl(scheme, lam, mu, parallel_repair=farm) == \
            pytest.approx(exact, rel=1e-12)


def _flat_rate_config(**overrides):
    """PAPER_BASE with a single constant-rate hazard period (chain-exact)."""
    flat = BathtubFailureModel((RatePeriod(0.0, float("inf"), 0.20),))
    vintage = replace(PAPER_BASE.vintage, failure_model=flat)
    return PAPER_BASE.with_(vintage=vintage, **overrides)


class TestConfigMapped:
    """The envelope table's markov column and p_loss_config(): the chain
    refuses non-constant rates."""

    def test_paper_base_refused_bathtub(self):
        """The paper's 4-period bathtub is not a constant rate."""
        assert any("rate period" in r
                   for r in refusals(PAPER_BASE)[MARKOV])

    def test_flat_rate_supported(self):
        assert refusals(_flat_rate_config())[MARKOV] == ()

    def test_structural_refusals_shared_with_analytic(self):
        for kw in ({"use_smart": True}, {"racks": 2},
                   {"placement": "rush"}, {"workload_peak_load": 0.5}):
            refused = refusals(_flat_rate_config(**kw))
            assert refused[MARKOV] and refused[MARKOV] == refused[ANALYTIC]

    def test_hazard_window_not_a_markov_concern(self):
        """The chain is exact at any rate — no first-order truncation."""
        hot = _flat_rate_config().with_(
            vintage=_flat_rate_config().vintage.with_rate_multiplier(500.0))
        assert refusals(hot)[MARKOV] == ()

    def test_p_loss_config_matches_direct_chain(self):
        cfg = _flat_rate_config()
        lam = float(cfg.vintage.failure_model.hazard(0.0))
        mu = 1.0 / (cfg.detection_latency + cfg.rebuild_seconds_per_block)
        direct = p_system_loss(cfg.scheme, cfg.n_groups, lam, mu,
                               cfg.duration)
        assert markov.p_loss_config(cfg) == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("scheme, pct, p_loss, mttdl_s", [
        (MIRROR_2, 0.5, 0.004773316730729449, 39572627086.18746),
        (MIRROR_3, 0.5, 6.529221607820546e-09, 2.8999800977697416e+16),
        (RAID5_4_5, 0.5, 0.013513380717976142, 13916810924.529829),
        (ECC_4_6, 0.5, 1.0558220853162936e-08, 1.7933067155145524e+16),
        (MIRROR_2, 0.2, 0.01519458968745413, 12366425717.21657),
    ])
    def test_farm_answers_kept(self, scheme, pct, p_loss, mttdl_s):
        """FARM answers of the one-block-rebuild mapping this one
        replaced (100 TB at 0.5 %/1000 h, and PAPER_BASE at 0.2 %).  The
        failure rate is now the mean hazard, one ulp from the flat rate.
        The 1/3 and 4/6 MTTDLs are the exact absorption times: a linear
        solve had captured them 3.3e-6 and 7.8e-5 off.  The other three
        were captured within 3e-10 of exact."""
        flat = BathtubFailureModel((RatePeriod(0.0, float("inf"), pct),))
        cfg = PAPER_BASE.with_(
            scheme=scheme,
            vintage=replace(PAPER_BASE.vintage, failure_model=flat))
        if pct == 0.5:
            cfg = cfg.with_(total_user_bytes=100 * TB)
        assert markov.p_loss_config(cfg) == pytest.approx(p_loss, rel=1e-12)
        assert markov.mttdl_config(cfg) == pytest.approx(mttdl_s, rel=1e-9)

    def test_traditional_maps_through_the_mean_window(self):
        """Both modes use the window model's rates: a traditional
        config's repair rate is one over its queued mean window."""
        cfg = _flat_rate_config(use_farm=False)
        direct = p_system_loss(cfg.scheme, cfg.n_groups,
                               analytic.mean_hazard(cfg),
                               1.0 / analytic.mean_window(cfg),
                               cfg.duration, parallel_repair=False)
        assert markov.p_loss_config(cfg) == direct
        assert markov.p_loss_config(cfg) > 10 * markov.p_loss_config(
            _flat_rate_config())

    def test_config_mttdl_close_to_analytic(self):
        """Two independent closed forms agree at first order."""
        cfg = _flat_rate_config()
        assert markov.mttdl_config(cfg) == pytest.approx(
            analytic.mttdl_estimate(cfg), rel=0.25)

    def test_config_p_loss_close_to_window_model(self):
        cfg = _flat_rate_config()
        assert markov.p_loss_config(cfg) == pytest.approx(
            analytic.p_loss(cfg), rel=0.25)


#: Imports every driver, runs a lifetime on each engine and an interval,
#: lists the scipy modules loaded, then solves one chain.
_IMPORT_GRAPH = f"""
import importlib, json, pkgutil, sys
import repro, repro.__main__, repro.experiments
for info in pkgutil.iter_modules(repro.experiments.__path__):
    importlib.import_module("repro.experiments." + info.name)
from repro.config import SystemConfig
from repro.reliability import markov, wilson_interval
from repro.reliability.bulk import run_bulk_batch
from repro.reliability.simulation import ReliabilitySimulation
from repro.redundancy import MIRROR_2
from repro.units import GB, TB
cfg = SystemConfig(total_user_bytes=10 * TB, group_user_bytes=10 * GB)
ReliabilitySimulation(cfg, seed=0).run()
run_bulk_batch(cfg, [0, 1])
wilson_interval(1, 4)
eager = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
p = markov.p_group_loss(MIRROR_2, {LAM!r}, {MU!r}, {6 * YEAR!r})
print(json.dumps({{"eager": eager, "p": p.hex(),
                   "linalg": "scipy.linalg" in sys.modules}}))
"""


class TestImportGraph:
    def test_scipy_loads_only_when_a_chain_is_solved(self):
        """The drivers, both lifetime engines and the intervals run
        without scipy; the chain's solver loads ``scipy.linalg`` and
        answers as it does in this process."""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC), os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", _IMPORT_GRAPH],
                              env=env, capture_output=True, text=True,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
        out = json.loads(proc.stdout.splitlines()[-1])
        assert out["eager"] == []
        assert out["linalg"]
        assert float.fromhex(out["p"]) == \
            p_group_loss(MIRROR_2, LAM, MU, 6 * YEAR)
