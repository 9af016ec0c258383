"""Transient disk outages: offline for a while, then back with its data.

Distinct from permanent death: an outage makes a disk unreachable (its
blocks can be neither read as rebuild sources nor written as targets) but
the data survives and returns when the outage ends.  The engine treats
both edges as redirection events, never as losses
(:meth:`~repro.reliability.simulation.ReliabilitySimulation.on_disk_offline`
/ :meth:`~repro.reliability.simulation.ReliabilitySimulation.on_disk_online`).
"""

from __future__ import annotations

import numpy as np

from .base import FaultContext, FaultInjector


class TransientOutages(FaultInjector):
    """Per-disk Poisson outages with exponentially-sampled durations.

    Parameters
    ----------
    rate_per_disk_per_s:
        Poisson rate of outage onsets on each disk (1/seconds).
    mean_duration_s:
        Mean of the exponential outage duration.
    """

    name = "outages"

    def __init__(self, rate_per_disk_per_s: float,
                 mean_duration_s: float) -> None:
        if rate_per_disk_per_s <= 0 or mean_duration_s <= 0:
            raise ValueError("outage rate and duration must be positive")
        self.rate = rate_per_disk_per_s
        self.mean_duration_s = mean_duration_s

    def arm(self, ctx: FaultContext) -> None:
        rng = ctx.streams.get("faults-outages")
        for disk in range(ctx.engine.total_disks):
            self._arm_disk(ctx, rng, disk, after=0.0)

    # ------------------------------------------------------------------ #
    def _arm_disk(self, ctx: FaultContext, rng: np.random.Generator,
                  disk_id: int, after: float) -> None:
        gap = float(rng.exponential(1.0 / self.rate))
        when = ctx.sim.now + after + gap
        if when > ctx.horizon:
            return
        ctx.sim.schedule_at(when, self._begin, ctx, rng, disk_id,
                            name="outage-begin")

    def _begin(self, ctx: FaultContext, rng: np.random.Generator,
               disk_id: int) -> None:
        if ctx.is_dead(disk_id):
            return
        duration = float(rng.exponential(self.mean_duration_s))
        if ctx.engine.alive[disk_id]:
            ctx.stats.outages_started += 1
            ctx.engine.on_disk_offline(disk_id)
            ctx.sim.schedule(duration, self._end, ctx, disk_id,
                             name="outage-end")
        # The next outage cannot begin before this one would have ended.
        self._arm_disk(ctx, rng, disk_id, after=duration)

    def _end(self, ctx: FaultContext, disk_id: int) -> None:
        if disk_id in ctx.engine.offline:
            ctx.stats.outages_ended += 1
        ctx.engine.on_disk_online(disk_id)      # stale-guarded if it died
