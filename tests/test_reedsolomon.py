"""Tests for the Reed–Solomon codec (repro.redundancy.reedsolomon)."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.redundancy import DecodeError, ReedSolomon, XorParity


def random_data(m, blocksize, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, (m, blocksize), dtype=np.uint8)


class TestConstruction:
    def test_systematic_prefix(self):
        rs = ReedSolomon(4, 6)
        data = random_data(4, 32)
        blocks = rs.encode(data)
        assert np.array_equal(blocks[:4], data)

    @pytest.mark.parametrize("m,n", [(1, 2), (1, 3), (2, 3), (4, 5),
                                     (4, 6), (8, 10), (16, 20)])
    def test_paper_schemes_construct(self, m, n):
        rs = ReedSolomon(m, n)
        assert rs.k == n - m

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            ReedSolomon(0, 4)
        with pytest.raises(ValueError):
            ReedSolomon(5, 4)
        with pytest.raises(ValueError):
            ReedSolomon(100, 300)

    def test_trivial_code_m_equals_n(self):
        rs = ReedSolomon(3, 3)
        data = random_data(3, 8)
        assert np.array_equal(rs.encode(data), data)


class TestErasureDecoding:
    @pytest.mark.parametrize("m,n", [(2, 3), (4, 5), (4, 6), (8, 10)])
    def test_all_erasure_patterns_decode(self, m, n):
        """Exhaustive: EVERY choice of m surviving shards reconstructs the
        data — the definition of m-availability (paper §2.2)."""
        rs = ReedSolomon(m, n)
        data = random_data(m, 16, seed=m * 100 + n)
        blocks = rs.encode(data)
        for keep in itertools.combinations(range(n), m):
            got = rs.decode({i: blocks[i] for i in keep})
            assert np.array_equal(got, data), f"failed for survivors {keep}"

    def test_decode_with_extra_shards(self):
        rs = ReedSolomon(4, 6)
        data = random_data(4, 8)
        blocks = rs.encode(data)
        got = rs.decode({i: blocks[i] for i in range(6)})
        assert np.array_equal(got, data)

    def test_too_few_shards_raises(self):
        rs = ReedSolomon(4, 6)
        blocks = rs.encode(random_data(4, 8))
        with pytest.raises(DecodeError):
            rs.decode({0: blocks[0], 1: blocks[1], 2: blocks[2]})

    def test_bad_shard_index_raises(self):
        rs = ReedSolomon(2, 3)
        blocks = rs.encode(random_data(2, 8))
        with pytest.raises(ValueError):
            rs.decode({0: blocks[0], 7: blocks[1]})

    def test_encode_shape_validation(self):
        rs = ReedSolomon(4, 6)
        with pytest.raises(ValueError):
            rs.encode(np.zeros((3, 8), dtype=np.uint8))

    @given(st.integers(1, 8), st.integers(1, 4), st.integers(1, 64),
           st.integers(0, 2 ** 31))
    @settings(max_examples=40, deadline=None)
    def test_random_roundtrip(self, m, k, blocksize, seed):
        """Property: any (m, m+k) code survives k random erasures."""
        n = m + k
        rs = ReedSolomon(m, n)
        rng = np.random.default_rng(seed)
        data = rng.integers(0, 256, (m, blocksize), dtype=np.uint8)
        blocks = rs.encode(data)
        erased = rng.choice(n, size=k, replace=False)
        survivors = {i: blocks[i] for i in range(n) if i not in erased}
        assert np.array_equal(rs.decode(survivors), data)


class TestShardReconstruction:
    @pytest.mark.parametrize("m,n", [(2, 3), (4, 6), (8, 10)])
    def test_reconstruct_each_shard(self, m, n):
        rs = ReedSolomon(m, n)
        blocks = rs.encode(random_data(m, 16, seed=1))
        assert blocks.shape == (n, 16)
        for target in range(n):
            # One lost shard, up to as many as the code tolerates.
            for lost in range(1, n - m + 1):
                erased = {(target + k) % n for k in range(lost)}
                survivors = {i: blocks[i] for i in range(n)
                             if i not in erased}
                rebuilt = rs.reconstruct_shard(survivors, target)
                assert np.array_equal(rebuilt, blocks[target])

    def test_reconstruct_invalid_target(self):
        rs = ReedSolomon(2, 3)
        blocks = rs.encode(random_data(2, 8))
        with pytest.raises(ValueError):
            rs.reconstruct_shard({0: blocks[0], 1: blocks[1]}, 9)


class TestParityUpdate:
    @given(st.integers(2, 6), st.integers(1, 3), st.integers(0, 2 ** 31))
    @settings(max_examples=30, deadline=None)
    def test_small_write_update_matches_reencode(self, m, k, seed):
        """RAID-5-style delta update must equal full re-encode (paper §2.2:
        'the difference is then propagated to all parity blocks')."""
        rs = ReedSolomon(m, m + k)
        rng = np.random.default_rng(seed)
        data = rng.integers(0, 256, (m, 16), dtype=np.uint8)
        old_parity = rs.parity(data)
        i = int(rng.integers(0, m))
        new_block = rng.integers(0, 256, 16, dtype=np.uint8)
        updated = rs.update_parity(old_parity, i, data[i], new_block)
        data[i] = new_block
        assert np.array_equal(updated, rs.parity(data))

    def test_update_parity_validates_index(self):
        rs = ReedSolomon(2, 4)
        parity = rs.parity(random_data(2, 8))
        with pytest.raises(ValueError):
            rs.update_parity(parity, 5, np.zeros(8, np.uint8),
                             np.ones(8, np.uint8))


class TestAgainstXorOracle:
    @pytest.mark.parametrize("m", [2, 4, 7])
    def test_rs_k1_functionally_equivalent_to_xor(self, m):
        """For k=1 both codecs are (m, m+1) MDS codes: each must recover
        any single erasure of the *other's* systematic data blocks.  (The
        parity bytes themselves differ — the RS generator row is a general
        linear combination, not all-ones.)"""
        rs = ReedSolomon(m, m + 1)
        xp = XorParity(m)
        data = random_data(m, 32, seed=m)
        rs_blocks = rs.encode(data)
        xp_blocks = xp.encode(data)
        for lost in range(m):     # data shards are shared between codecs
            rs_sur = {i: rs_blocks[i] for i in range(m + 1) if i != lost}
            xp_sur = {i: xp_blocks[i] for i in range(m + 1) if i != lost}
            assert np.array_equal(rs.decode(rs_sur), data)
            assert np.array_equal(xp.decode(xp_sur), data)
