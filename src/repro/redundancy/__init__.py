"""Redundancy substrate: (m, n) schemes and composite survival predicates."""

from .composite import MirroredParity, is_threshold_scheme
from .schemes import (ECC_4_6, ECC_8_10, MIRROR_2, MIRROR_3, PAPER_SCHEMES,
                      RAID5_2_3, RAID5_4_5, RedundancyScheme, SchemeKind)

__all__ = [
    "RedundancyScheme", "SchemeKind", "PAPER_SCHEMES",
    "MIRROR_2", "MIRROR_3", "RAID5_2_3", "RAID5_4_5", "ECC_4_6", "ECC_8_10",
    "MirroredParity", "is_threshold_scheme",
]
