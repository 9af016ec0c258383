"""Tests for the closed-form window model (repro.reliability.analytic)."""

import math

import pytest

from repro.config import PAPER_BASE
from repro.redundancy import ECC_4_6, MIRROR_3, RAID5_4_5
from repro.reliability import analytic
from repro.reliability import (expected_disk_failures, mean_window, p_loss,
                               p_loss_window_model)
from repro.reliability.envelope import (ANALYTIC, MAX_HAZARD_WINDOW,
                                        hazard_window, refusals)
from repro.units import GB, PB


class TestComponents:
    def test_expected_failures_about_ten_percent(self):
        failures = expected_disk_failures(PAPER_BASE)
        assert failures == pytest.approx(0.11 * 10_000, rel=0.15)

    def test_farm_window(self):
        """detection (30 s) + one 10 GB rebuild (625 s)."""
        assert mean_window(PAPER_BASE) == pytest.approx(655.0)

    def test_traditional_window(self):
        """detection + mean queue position: 30 + 20.5 * 625."""
        cfg = PAPER_BASE.with_(use_farm=False)
        assert mean_window(cfg) == pytest.approx(30.0 + 20.5 * 625.0)


class TestPaperShapes:
    def test_farm_beats_traditional(self):
        assert p_loss(PAPER_BASE) < p_loss(
            PAPER_BASE.with_(use_farm=False)) / 5

    def test_farm_insensitive_to_group_size(self):
        """blocks/disk x window is invariant under FARM (paper Fig. 3)."""
        p10 = p_loss(PAPER_BASE.with_(group_user_bytes=10 * GB,
                                      detection_latency=0.0))
        p50 = p_loss(PAPER_BASE.with_(group_user_bytes=50 * GB,
                                      detection_latency=0.0))
        assert p10 == pytest.approx(p50, rel=0.02)

    def test_traditional_worse_for_smaller_groups(self):
        base = PAPER_BASE.with_(use_farm=False, detection_latency=0.0)
        p10 = p_loss(base.with_(group_user_bytes=10 * GB))
        p50 = p_loss(base.with_(group_user_bytes=50 * GB))
        assert p10 > 2 * p50

    def test_scale_approximately_linear(self):
        """Paper Figure 8: P(loss) ~ linear in capacity."""
        p1 = p_loss(PAPER_BASE.with_(total_user_bytes=1 * PB))
        p2 = p_loss(PAPER_BASE.with_(total_user_bytes=2 * PB))
        assert p2 / p1 == pytest.approx(2.0, rel=0.1)

    def test_tolerance_two_schemes_negligible_loss(self):
        """Paper: 1/3, 4/6, 8/10 with FARM below ~0.1%."""
        for scheme in (MIRROR_3, ECC_4_6):
            assert p_loss(PAPER_BASE.with_(scheme=scheme)) < 0.001

    def test_raid5_with_farm_worse_than_mirroring(self):
        """Paper: RAID-5-like parity cannot provide enough reliability even
        with FARM (more sources to lose, same tolerance)."""
        assert p_loss(PAPER_BASE.with_(scheme=RAID5_4_5)) > \
            p_loss(PAPER_BASE)

    def test_detection_latency_raises_loss(self):
        fast = p_loss(PAPER_BASE.with_(detection_latency=0.0,
                                       group_user_bytes=1 * GB))
        slow = p_loss(PAPER_BASE.with_(detection_latency=600.0,
                                       group_user_bytes=1 * GB))
        assert slow > 5 * fast

    def test_doubled_rates_more_than_double_loss(self):
        """Figure 8(b): quadratic second-failure term."""
        base = p_loss(PAPER_BASE)
        doubled = p_loss(PAPER_BASE.with_(
            vintage=PAPER_BASE.vintage.with_rate_multiplier(2.0)))
        assert doubled > 2 * base

    def test_window_model_fields_consistent(self):
        wm = p_loss_window_model(PAPER_BASE)
        assert wm.blocks_per_disk == pytest.approx(40.0)
        assert wm.per_failure_loss == pytest.approx(
            wm.blocks_per_disk * wm.per_block_loss)
        assert 0.0 < wm.p_loss < 1.0


class TestValidityEnvelope:
    """The envelope table's analytic column: the model refuses what it
    can't express."""

    def test_paper_base_supported(self):
        assert refusals(PAPER_BASE)[ANALYTIC] == ()

    @pytest.mark.parametrize("kw, fragment", [
        ({"racks": 4, "machines_per_rack": 10}, "topology"),
        ({"racks": 4, "max_chunks_per_domain": 1}, "placement caps"),
        ({"placement": "rush"}, "placement="),
        ({"use_smart": True}, "SMART"),
        ({"replacement_threshold": 0.5}, "replacement"),
        ({"workload_peak_load": 0.5}, "workload"),
    ])
    def test_refusal_reasons(self, kw, fragment):
        cfg = PAPER_BASE.with_(**kw)
        assert any(fragment in r for r in refusals(cfg)[ANALYTIC])

    def test_refuses_outside_first_order_envelope(self):
        """A huge hazard-window product breaks the first-order truncation.

        Week-long detection on top of 100x rates pushes hW past the
        cutoff; the model must refuse rather than extrapolate.
        """
        cfg = PAPER_BASE.with_(
            detection_latency=2e6,
            vintage=PAPER_BASE.vintage.with_rate_multiplier(100.0))
        assert hazard_window(cfg) > MAX_HAZARD_WINDOW
        assert any("hazard-window" in r for r in refusals(cfg)[ANALYTIC])

    def test_mttdl_consistent_with_p_loss(self):
        """For t << MTTDL, p ~ t / MTTDL (thinned-Poisson identity)."""
        m = analytic.mttdl_estimate(PAPER_BASE)
        assert PAPER_BASE.duration / m == pytest.approx(
            -math.log(1 - p_loss(PAPER_BASE)), rel=1e-9)

    def test_mttdl_infinite_when_no_loss(self):
        cfg = PAPER_BASE.with_(duration=1.0)
        assert analytic.mttdl_estimate(cfg) > 0
