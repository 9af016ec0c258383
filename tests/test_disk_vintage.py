"""Tests for DiskVintage (repro.disks.vintage)."""

import pytest

from repro.disks import PAPER_VINTAGE, DiskVintage
from repro.units import MB, TB, YEAR


class TestVintage:
    def test_paper_defaults(self):
        """Table 2 geometry: 1 TB drives, 80 MB/s, 20% for recovery."""
        v = PAPER_VINTAGE
        assert v.capacity_bytes == 1 * TB
        assert v.bandwidth_bps == 80 * MB
        assert v.recovery_bandwidth_bps == pytest.approx(16 * MB)
        assert v.eodl_seconds == 6 * YEAR

    def test_rate_multiplier_copy(self):
        doubled = PAPER_VINTAGE.with_rate_multiplier(2.0)
        assert doubled.failure_model.rate_multiplier == 2.0
        assert PAPER_VINTAGE.failure_model.rate_multiplier == 1.0

    def test_with_recovery_bandwidth(self):
        v = PAPER_VINTAGE.with_recovery_bandwidth(40 * MB)
        assert v.recovery_bandwidth_bps == pytest.approx(40 * MB)
        assert v.recovery_bandwidth_fraction == pytest.approx(0.5)

    def test_recovery_bandwidth_cannot_exceed_total(self):
        with pytest.raises(ValueError):
            PAPER_VINTAGE.with_recovery_bandwidth(100 * MB)

    def test_validation(self):
        with pytest.raises(ValueError):
            DiskVintage(capacity_bytes=0)
        with pytest.raises(ValueError):
            DiskVintage(recovery_bandwidth_fraction=0.0)
        with pytest.raises(ValueError):
            DiskVintage(weight=-1.0)
