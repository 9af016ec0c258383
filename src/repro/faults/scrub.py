"""Periodic scrubbing: the process that bounds latent-error lifetime.

A scrubber reads every disk once per ``interval_s``, spreading the work
round-robin so one disk is verified every ``interval_s / population``
seconds.  Scrubbing an online disk surfaces all of its latent errors via
:meth:`~repro.reliability.simulation.ReliabilitySimulation.discover_latent`,
which fails
the corrupt blocks and enqueues ordinary rebuilds.  Shrinking the interval
therefore shrinks the mean undiscovered lifetime of a latent error (about
``interval_s / 2``) and with it the window in which a second fault can
combine with the hidden corruption — the effect
``experiments/faults_sweep.py`` quantifies.
"""

from __future__ import annotations

from .base import FaultContext, FaultInjector


class Scrubber(FaultInjector):
    """Round-robin whole-population scrub with a fixed cycle time.

    Parameters
    ----------
    interval_s:
        Target time to scrub the whole (surviving) population once.  The
        per-tick period is re-computed each arming, so the cadence adapts
        as disks die or batches arrive.
    """

    name = "scrub"

    def __init__(self, interval_s: float) -> None:
        if interval_s <= 0:
            raise ValueError("scrub interval must be positive")
        self.interval_s = interval_s

    def arm(self, ctx: FaultContext) -> None:
        cursor = [0]    # round-robin position, private to this arming

        def period() -> float:
            alive = sum(1 for d in range(ctx.engine.total_disks)
                        if not ctx.is_dead(d))
            return self.interval_s / max(alive, 1)

        ctx.sim.every(period, self._tick, ctx, cursor, until=ctx.horizon,
                      name="scrub-tick")

    # ------------------------------------------------------------------ #
    def _tick(self, ctx: FaultContext, cursor: list[int]) -> None:
        engine = ctx.engine
        n = engine.total_disks
        for _ in range(n):      # next surviving disk in id order
            disk = cursor[0] % n
            cursor[0] += 1
            if not ctx.is_dead(disk):
                break
        else:
            return      # everything is dead; nothing to verify
        ctx.stats.scrubs += 1
        tele = ctx.telemetry
        if tele is not None:
            tele.scrubs.inc()
        if not engine.alive[disk]:
            return      # offline: unreadable now; its turn comes again
        for grp_id, rep_id in sorted(engine.latent.get(disk, ())):
            if engine.discover_latent(disk, grp_id, rep_id):
                ctx.stats.scrub_discoveries += 1
                if tele is not None:
                    tele.scrub_discoveries.inc()
