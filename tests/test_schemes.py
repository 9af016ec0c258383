"""Tests for the (m, n) scheme algebra (repro.redundancy.schemes)."""

import pytest
from hypothesis import given, strategies as st

from repro.redundancy import (ECC_4_6, ECC_8_10, MIRROR_2, MIRROR_3,
                              PAPER_SCHEMES, RAID5_2_3, RAID5_4_5,
                              RedundancyScheme, SchemeKind)
from repro.units import GB


class TestIdentity:
    def test_paper_schemes_present(self):
        assert [s.name for s in PAPER_SCHEMES] == \
            ["1/2", "1/3", "2/3", "4/5", "4/6", "8/10"]

    @pytest.mark.parametrize("scheme,kind", [
        (MIRROR_2, SchemeKind.MIRROR), (MIRROR_3, SchemeKind.MIRROR),
        (RAID5_2_3, SchemeKind.PARITY), (RAID5_4_5, SchemeKind.PARITY),
        (ECC_4_6, SchemeKind.ECC), (ECC_8_10, SchemeKind.ECC)])
    def test_kind_classification(self, scheme, kind):
        assert scheme.kind is kind

    def test_parse_roundtrip(self):
        for s in PAPER_SCHEMES:
            assert RedundancyScheme.parse(s.name) == s

    def test_parse_garbage(self):
        with pytest.raises(ValueError):
            RedundancyScheme.parse("not-a-scheme")

    def test_invalid_mn(self):
        with pytest.raises(ValueError):
            RedundancyScheme(3, 2)
        with pytest.raises(ValueError):
            RedundancyScheme(0, 2)

    def test_hashable_and_frozen(self):
        assert len({MIRROR_2, MIRROR_3, MIRROR_2}) == 2
        with pytest.raises(Exception):
            MIRROR_2.m = 9   # type: ignore[misc]


class TestAlgebra:
    @pytest.mark.parametrize("scheme,tol", [
        (MIRROR_2, 1), (MIRROR_3, 2), (RAID5_2_3, 1), (RAID5_4_5, 1),
        (ECC_4_6, 2), (ECC_8_10, 2)])
    def test_paper_tolerances(self, scheme, tol):
        assert scheme.tolerance == tol

    def test_storage_efficiency_paper_values(self):
        """Paper §2.2: mirroring 1/2, m/n schemes m/n."""
        assert MIRROR_2.storage_efficiency == 0.5
        assert ECC_4_6.storage_efficiency == pytest.approx(2 / 3)
        assert ECC_8_10.storage_efficiency == 0.8

    @given(st.integers(1, 16), st.integers(0, 8))
    def test_efficiency_stretch_inverse(self, m, k):
        s = RedundancyScheme(m, m + k)
        assert s.storage_efficiency * s.stretch == pytest.approx(1.0)

    def test_block_bytes(self):
        """A 10 GB group under 4/6 stores 2.5 GB blocks."""
        assert ECC_4_6.block_bytes(10 * GB) == 2.5 * GB
        assert MIRROR_2.block_bytes(10 * GB) == 10 * GB

    def test_raw_bytes(self):
        assert MIRROR_2.raw_bytes(10 * GB) == 20 * GB
        assert ECC_8_10.raw_bytes(8 * GB) == 10 * GB

    def test_rebuild_costs_mirroring(self):
        """Mirroring reads the surviving replica and writes one copy."""
        assert MIRROR_2.rebuild_read_bytes(10 * GB) == 10 * GB
        assert MIRROR_2.rebuild_write_bytes(10 * GB) == 10 * GB

    def test_rebuild_costs_ecc(self):
        """m/n rebuild reads m blocks (= G bytes) and writes G/m."""
        assert ECC_4_6.rebuild_read_bytes(10 * GB) == 10 * GB
        assert ECC_4_6.rebuild_write_bytes(10 * GB) == 2.5 * GB

    @given(st.integers(1, 12), st.integers(1, 6))
    def test_tolerance_definition(self, m, k):
        assert RedundancyScheme(m, m + k).tolerance == k

