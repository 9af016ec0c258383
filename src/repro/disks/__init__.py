"""Disk substrate: vintages and the bathtub failure process."""

from .failure import ELERATH_TABLE1, BathtubFailureModel, RatePeriod
from .vintage import PAPER_VINTAGE, DiskVintage

__all__ = [
    "BathtubFailureModel", "RatePeriod", "ELERATH_TABLE1",
    "DiskVintage", "PAPER_VINTAGE",
]
