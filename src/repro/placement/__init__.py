"""Data-placement substrate: RUSH-style, random and copyset placement."""

from .base import PlacementAlgorithm, PlacementError
from .copyset import CopysetPlacement
from .hashing import hash_range, hash_u64, hash_unit, mix64
from .random_placement import RandomPlacement
from .rush import RushPlacement, SubCluster

__all__ = [
    "PlacementAlgorithm", "PlacementError",
    "RushPlacement", "SubCluster", "RandomPlacement", "CopysetPlacement",
    "hash_u64", "hash_unit", "hash_range", "mix64",
]
