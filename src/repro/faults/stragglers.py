"""Stragglers: healthy disks with persistently degraded bandwidth.

A sampled fraction of the population gets a bandwidth factor below 1.0
(the engine's ``set_bandwidth_factor`` hook); every rebuild that reads
from or writes to a straggler runs at the rate of its slowest
participant, which stretches its window of vulnerability without
changing any failure.
"""

from __future__ import annotations

from .base import FaultContext, FaultInjector


class Stragglers(FaultInjector):
    """Degrade a random fraction of disks at arm time.

    Parameters
    ----------
    fraction:
        Fraction of the current population to degrade, in (0, 1].
    factor_range:
        Uniform sampling range for the bandwidth multiplier, within
        (0, 1]; e.g. ``(0.1, 0.5)`` models disks at 10–50 % speed.
    """

    name = "stragglers"

    def __init__(self, fraction: float,
                 factor_range: tuple[float, float] = (0.1, 0.5)) -> None:
        if not 0 < fraction <= 1:
            raise ValueError("straggler fraction must be in (0, 1]")
        lo, hi = factor_range
        if not 0 < lo <= hi <= 1:
            raise ValueError("factor range must satisfy 0 < lo <= hi <= 1")
        self.fraction = fraction
        self.factor_range = (lo, hi)

    def arm(self, ctx: FaultContext) -> None:
        rng = ctx.streams.get("faults-stragglers")
        n = ctx.engine.total_disks
        count = int(round(self.fraction * n))
        if count <= 0:
            return
        chosen = rng.choice(n, size=count, replace=False)
        lo, hi = self.factor_range
        factors = rng.uniform(lo, hi, size=count)
        for disk_id, factor in zip(chosen, factors):
            ctx.engine.set_bandwidth_factor(int(disk_id), float(factor))
            ctx.stats.stragglers += 1
