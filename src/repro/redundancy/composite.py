"""Mixed redundancy schemes (paper §2.2).

Beyond plain m/n threshold codes, the paper mentions "mixed schemes that
structure a redundancy group by data blocks and an (XOR-)parity block, and
a mirror of the data blocks with parity".  Such schemes are *not*
threshold codes: whether data survives depends on **which** blocks die,
not just how many.  This module provides the abstraction — a scheme with a
set-based survival predicate — plus the paper's mixed scheme:

:class:`MirroredParity(m)`
    Two mirrored copies of an (m+1)-block RAID-5 stripe, ``2(m+1)`` blocks
    in total.  A stripe *position* (one of the m data blocks or the
    parity) is dead only when both of its copies are lost; the data
    survives as long as at most one position is dead (the stripe's XOR
    rebuilds one missing position).  Guaranteed tolerance is therefore 3
    (any three block losses kill at most one position), and many 4-loss
    patterns survive too — at a storage efficiency of ``m / (2(m+1))``.

The DES engine runs composite schemes: once a group's failure count passes
the guaranteed tolerance it asks :meth:`MirroredParity.is_lost` about the
exact failed set.  The bulk, analytic and Markov estimators are
threshold-only and exclude them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

from .schemes import RedundancyScheme, SchemeKind


@dataclass(frozen=True)
class MirroredParity:
    """Mirror of an (m+1)-block XOR-parity stripe ("RAID 5+1").

    Block position ``p`` (0 <= p < 2(m+1)) is copy ``p // (m+1)`` of
    stripe index ``p % (m+1)``; index ``m`` is the parity.
    """

    m: int

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("m must be >= 1")

    # -- identity (same surface as RedundancyScheme) -------------------- #
    @property
    def n(self) -> int:
        return 2 * (self.m + 1)

    @property
    def name(self) -> str:
        return f"mirrored-raid5({self.m}+1)x2"

    @property
    def kind(self) -> SchemeKind:
        return SchemeKind.ECC

    # -- algebra ---------------------------------------------------------- #
    @property
    def tolerance(self) -> int:
        """Guaranteed (worst-case) tolerance.

        Three losses can kill at most one stripe position (two of them
        must pair up on a single position); the XOR stripe rebuilds one
        dead position, so any 3 losses are survivable.  Four losses can
        kill two positions (2 + 2), which is fatal.
        """
        return 3

    @property
    def storage_efficiency(self) -> float:
        return self.m / self.n

    @property
    def stretch(self) -> float:
        return self.n / self.m

    def block_bytes(self, group_user_bytes: float) -> float:
        return group_user_bytes / self.m

    def raw_bytes(self, group_user_bytes: float) -> float:
        return group_user_bytes * self.stretch

    def rebuild_read_bytes(self, group_user_bytes: float) -> float:
        """Preferred rebuild reads the surviving mirror copy (one block);
        falls back to an m-block XOR reconstruction when the copy is gone.
        We model the cheap path, like plain mirroring."""
        return self.block_bytes(group_user_bytes)

    def rebuild_write_bytes(self, group_user_bytes: float) -> float:
        return self.block_bytes(group_user_bytes)

    # -- the set-based survival predicate --------------------------------- #
    def position_of(self, rep_id: int) -> tuple[int, int]:
        """(copy, stripe index) of a block."""
        if not 0 <= rep_id < self.n:
            raise ValueError(f"rep_id {rep_id} out of range")
        return divmod(rep_id, self.m + 1)

    def is_lost(self, failed: Iterable[int]) -> bool:
        """Data is lost when two or more stripe positions are fully dead."""
        dead_count: dict[int, int] = {}
        for rep in failed:
            idx = rep % (self.m + 1)
            dead_count[idx] = dead_count.get(idx, 0) + 1
        fully_dead = sum(1 for c in dead_count.values() if c == 2)
        return fully_dead >= 2

    def __str__(self) -> str:
        return self.name


#: Anything with the RedundancyScheme surface: plain threshold codes, or
#: composite schemes carrying a set-based ``is_lost`` predicate.
SchemeLike = Union[RedundancyScheme, MirroredParity]


def pattern_is_lost(scheme: SchemeLike, failed: Iterable[int]) -> bool:
    """Whether a failed-block set defeats ``scheme`` (works for both
    threshold and composite schemes)."""
    is_lost = getattr(scheme, "is_lost", None)
    if is_lost is not None:
        return bool(is_lost(set(failed)))
    return len(set(failed)) > scheme.tolerance


def exhaustive_tolerance(scheme: SchemeLike) -> int:
    """Guaranteed tolerance by exhaustive search over failure patterns.

    The largest k such that *every* k-subset of block positions is
    survivable.  Exponential in n — intended for n <= ~12 (tests, the
    mixed-scheme study), where it serves as an oracle for a scheme's
    declared ``tolerance``.
    """
    import itertools
    for k in range(1, scheme.n + 1):
        for subset in itertools.combinations(range(scheme.n), k):
            if pattern_is_lost(scheme, subset):
                return k - 1
    return scheme.n


def survival_fraction(scheme: SchemeLike, k: int) -> float:
    """Fraction of k-failure patterns the scheme survives.

    ``k`` beyond the scheme's block count means the whole group is gone:
    the fraction is 0.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    if k > scheme.n:
        return 0.0
    import itertools
    patterns = list(itertools.combinations(range(scheme.n), k))
    survived = sum(1 for p in patterns if not pattern_is_lost(scheme, p))
    return survived / len(patterns)


def is_threshold_scheme(scheme: SchemeLike) -> bool:
    """Whether loss depends only on the number of failed blocks.

    Threshold schemes (all plain m/n codes) work on every estimator;
    schemes with a custom set-based ``is_lost`` run on the DES only.
    """
    return not hasattr(scheme, "is_lost")
