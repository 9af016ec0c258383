"""Exactness of the flat engine's block-drawn FARM target probes.

``_TargetProbes.draw(n)`` must return, pick by pick, exactly what one
``Generator.integers(0, n, size=24)`` call per pick returns on the same
stream, and consume the same stream words, including across changes of
``n`` (spares and replacement batches grow the disk count mid-run).  If
a NumPy upgrade changes how ``integers`` draws, this module should be
the first to fail.
"""

import numpy as np
import pytest

from repro.reliability.simulation import _TargetProbes

PICKS = 10_000
#: Bounds whose Lemire rejection rate is near 1/2 and 1/4; a word one
#: rejects is often accepted by the other.
HEAVY = (2**31 + 1, 3 * 2**30)


def generator(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def assert_matches_numpy(seed: int, bounds: list[int]) -> None:
    """One pick per entry of ``bounds``, each against ``integers``."""
    probes = _TargetProbes(generator(seed))
    ref = generator(seed)
    for i, n in enumerate(bounds):
        want = ref.integers(0, n, size=24).tolist()
        assert probes.draw(n) == want, f"seed {seed}, pick {i}, n={n}"


def switches_after_rejection(seed: int, bounds: list[int]) -> int:
    """How often ``bounds`` changes right after a pick whose next stream
    word the old bound rejects (scalar Lemire walk over the raw words)."""
    words = generator(seed).integers(0, 1 << 32, size=len(bounds) * 64,
                                     dtype=np.uint64).tolist()
    pos = hits = 0
    for i, n in enumerate(bounds):
        threshold = ((1 << 32) - n) % n
        accepted = 0
        while accepted < 24:
            accepted += (words[pos] * n) % (1 << 32) >= threshold
            pos += 1
        nxt = bounds[i + 1] if i + 1 < len(bounds) else n
        hits += nxt != n and (words[pos] * n) % (1 << 32) < threshold
    return hits


@pytest.mark.parametrize("seed", [0, 1, 7, 2**40 + 3])
def test_fixed_bound_matches_numpy(seed):
    assert_matches_numpy(seed, [1013] * PICKS)


@pytest.mark.parametrize("seed", [0, 5, 11])
def test_growing_bound_matches_numpy(seed):
    """The disk count grows in steps mid-stream, as batches arrive."""
    bounds = [1000 + 37 * (i // 700) for i in range(PICKS)]
    assert_matches_numpy(seed, bounds)


@pytest.mark.parametrize("seed", [0, 3, 9])
def test_heavy_rejection_switches_match_numpy(seed):
    """Alternate two heavy-rejection bounds every pick.  Many switches
    come right after a word the old bound rejected, which the new bound
    may accept: a re-map that counts consumed words one too many or one
    too few (or up to the next accepted word) fails here."""
    bounds = [HEAVY[i % 2] for i in range(PICKS)]
    assert switches_after_rejection(seed, bounds) > PICKS // 10
    assert_matches_numpy(seed, bounds)


@pytest.mark.parametrize("seed", [2, 4])
def test_random_bound_schedule_matches_numpy(seed):
    schedule = np.random.Generator(np.random.PCG64(seed + 100))
    choices = [2, 3, 1000, 4099, 2**20 + 7, *HEAVY]
    bounds = [choices[k] for k in schedule.integers(0, len(choices),
                                                    size=PICKS)]
    assert_matches_numpy(seed, bounds)


def test_single_disk_consumes_nothing():
    rng = generator(0)
    before = rng.bit_generator.state
    probes = _TargetProbes(rng)
    assert probes.draw(1) == [0] * 24
    assert rng.bit_generator.state == before
    # Interleaved with real picks, n == 1 leaves the stream untouched,
    # as integers(0, 1) does.
    assert_matches_numpy(0, [1, 500, 1, 1, 500, 2**31 + 1, 1, 500] * 200)
