"""Latent sector errors: silent per-disk corruption, found only on read.

Each disk accrues latent errors as an independent Poisson process.  An
injection silently corrupts one uniformly-chosen live block on the disk
(:meth:`~repro.reliability.simulation.ReliabilitySimulation.corrupt_block`);
nothing
in the system notices until a :class:`~repro.faults.scrub.Scrubber` pass
or a rebuild read of that block discovers it — at which point the block is
failed and rebuilt like any other loss, or, if the group had no redundancy
left, the group is lost.
"""

from __future__ import annotations

import numpy as np

from .base import FaultContext, FaultInjector


class LatentSectorErrors(FaultInjector):
    """Per-disk Poisson arrivals of silent single-block corruption.

    Parameters
    ----------
    rate_per_disk_per_s:
        Poisson rate of latent-error arrivals on each disk (1/seconds).
    """

    name = "latent"

    def __init__(self, rate_per_disk_per_s: float) -> None:
        if rate_per_disk_per_s <= 0:
            raise ValueError("latent-error rate must be positive")
        self.rate = rate_per_disk_per_s

    def arm(self, ctx: FaultContext) -> None:
        rng = ctx.streams.get("faults-latent")
        for disk in range(ctx.engine.total_disks):
            self._arm_disk(ctx, rng, disk)

    # ------------------------------------------------------------------ #
    def _arm_disk(self, ctx: FaultContext, rng: np.random.Generator,
                  disk_id: int) -> None:
        when = ctx.sim.now + float(rng.exponential(1.0 / self.rate))
        if when > ctx.horizon:
            return
        ctx.sim.schedule_at(when, self._inject, ctx, rng, disk_id,
                            name="latent-inject")

    def _inject(self, ctx: FaultContext, rng: np.random.Generator,
                disk_id: int) -> None:
        if ctx.is_dead(disk_id):
            return      # a dead disk accrues no further errors
        # An offline disk is unwritable *and* unreadable: corrupt_block
        # leaves it alone.
        if ctx.engine.corrupt_block(disk_id, rng) is not None:
            ctx.stats.latent_injected += 1
        self._arm_disk(ctx, rng, disk_id)
