"""Redundancy substrate: schemes and real erasure codecs."""

from .composite import MirroredParity, is_threshold_scheme
from .reedsolomon import DecodeError, ReedSolomon
from .schemes import (ECC_4_6, ECC_8_10, MIRROR_2, MIRROR_3, PAPER_SCHEMES,
                      RAID5_2_3, RAID5_4_5, RedundancyScheme, SchemeKind)
from .xor_parity import XorParity

__all__ = [
    "RedundancyScheme", "SchemeKind", "PAPER_SCHEMES",
    "MIRROR_2", "MIRROR_3", "RAID5_2_3", "RAID5_4_5", "ECC_4_6", "ECC_8_10",
    "ReedSolomon", "DecodeError", "XorParity",
    "MirroredParity", "is_threshold_scheme",
]
