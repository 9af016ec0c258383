"""The (m, n) redundancy-scheme algebra from the paper (§2.1–§2.2).

A scheme stores ``m`` user blocks as ``n`` blocks on ``n`` distinct disks and
survives any ``n - m`` erasures ("m-availability").  The paper's six
configurations:

========  ====  =========  ==================================
name      m/n   tolerance  nature
========  ====  =========  ==================================
1/2       1/2   1          two-way mirroring
1/3       1/3   2          three-way mirroring
2/3       2/3   1          RAID 5 (2+1)
4/5       4/5   1          RAID 5 (4+1)
4/6       4/6   2          Reed–Solomon ECC
8/10      8/10  2          Reed–Solomon ECC
========  ====  =========  ==================================

For a redundancy group holding ``G`` bytes of *user* data (the paper defines
group size as user data only), each block is ``G / m`` bytes, the group
occupies ``G * n / m`` bytes of raw storage, and rebuilding one lost block
reads ``m`` buddy blocks and writes ``G / m`` bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class SchemeKind(Enum):
    MIRROR = "mirror"
    PARITY = "parity"    # single XOR parity (RAID 5)
    ECC = "ecc"          # generalized Reed-Solomon


@dataclass(frozen=True)
class RedundancyScheme:
    """An m-out-of-n redundancy scheme."""

    m: int
    n: int

    def __post_init__(self) -> None:
        if not 1 <= self.m <= self.n:
            raise ValueError(f"need 1 <= m <= n, got {self.m}/{self.n}")

    # -- identity ------------------------------------------------------ #
    @property
    def name(self) -> str:
        return f"{self.m}/{self.n}"

    @property
    def kind(self) -> SchemeKind:
        if self.m == 1:
            return SchemeKind.MIRROR
        if self.n == self.m + 1:
            return SchemeKind.PARITY
        return SchemeKind.ECC

    # -- algebra -------------------------------------------------------- #
    @property
    def tolerance(self) -> int:
        """Number of simultaneous block losses the scheme survives."""
        return self.n - self.m

    @property
    def storage_efficiency(self) -> float:
        """Ratio of user data to raw storage (paper §2.2)."""
        return self.m / self.n

    @property
    def stretch(self) -> float:
        """Raw bytes stored per user byte (1 / efficiency)."""
        return self.n / self.m

    def block_bytes(self, group_user_bytes: float) -> float:
        """Size of each stored block for a group of the given user size."""
        return group_user_bytes / self.m

    def raw_bytes(self, group_user_bytes: float) -> float:
        """Total raw bytes a group occupies across its n disks."""
        return group_user_bytes * self.stretch

    def rebuild_read_bytes(self, group_user_bytes: float) -> float:
        """Bytes read from survivors to rebuild one lost block.

        Mirroring reads the single surviving replica; an m/n code reads m
        buddy blocks of ``G/m`` bytes each, i.e. ``G`` bytes total.
        """
        if self.m == 1:
            return group_user_bytes
        return self.block_bytes(group_user_bytes) * self.m

    def rebuild_write_bytes(self, group_user_bytes: float) -> float:
        """Bytes written to the recovery target to rebuild one lost block."""
        return self.block_bytes(group_user_bytes)

    # -- parsing --------------------------------------------------------- #
    @classmethod
    def parse(cls, text: str) -> "RedundancyScheme":
        """Parse '4/6'-style scheme names."""
        try:
            m_str, n_str = text.strip().split("/")
            return cls(int(m_str), int(n_str))
        except (ValueError, TypeError) as exc:
            raise ValueError(f"cannot parse scheme {text!r}") from exc

    def __str__(self) -> str:
        return self.name


#: The six configurations evaluated in the paper (Figures 3 and 8).
MIRROR_2 = RedundancyScheme(1, 2)
MIRROR_3 = RedundancyScheme(1, 3)
RAID5_2_3 = RedundancyScheme(2, 3)
RAID5_4_5 = RedundancyScheme(4, 5)
ECC_4_6 = RedundancyScheme(4, 6)
ECC_8_10 = RedundancyScheme(8, 10)

PAPER_SCHEMES: tuple[RedundancyScheme, ...] = (
    MIRROR_2, MIRROR_3, RAID5_2_3, RAID5_4_5, ECC_4_6, ECC_8_10,
)
