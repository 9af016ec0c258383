"""Fault-injection substrate: context, statistics, injector protocol.

The paper's reliability results assume disks fail whole and loudly.  Real
fleets also suffer *latent sector errors* (silent corruption found only on
read), *transient outages* (a disk vanishes and returns with its data),
*correlated bursts* (a shelf or batch dying together) and *stragglers*
(healthy disks with degraded bandwidth).  Each of those is a small,
composable :class:`FaultInjector`; a scenario arms any subset against one
simulated system and the engine degrades gracefully through its fault
hooks (see :class:`~repro.reliability.simulation.ReliabilitySimulation`).

All stochastic choices draw from dedicated named streams
(``faults-latent``, ``faults-outages``, ...) so adding an injector never
perturbs the draw order of the base simulation.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

# Type-only imports: repro.reliability imports Scenario, which imports
# this module.
if TYPE_CHECKING:
    from ..reliability.simulation import ReliabilitySimulation
    from ..sim.engine import Simulator
    from ..sim.rng import RandomStreams
    from ..telemetry.handle import Telemetry


@dataclass
class FaultStats:
    """What the armed injectors actually did during one run."""

    latent_injected: int = 0
    outages_started: int = 0
    outages_ended: int = 0
    bursts: int = 0
    burst_failures: int = 0
    stragglers: int = 0
    scrubs: int = 0
    scrub_discoveries: int = 0
    # Failure-domain injectors (repro.faults.domains).
    domain_bursts: int = 0
    domain_burst_failures: int = 0
    domain_outages_started: int = 0
    domain_outages_ended: int = 0
    domain_stragglers: int = 0


@dataclass
class FaultContext:
    """Everything an injector needs to act on one simulated system."""

    engine: "ReliabilitySimulation"
    horizon: float
    stats: FaultStats = field(default_factory=FaultStats)
    #: nullable observability handle; injectors report through it when
    #: present.
    telemetry: "Telemetry | None" = None

    @property
    def sim(self) -> "Simulator":
        """The engine's event loop (read at call time: it may be swapped
        after construction, as :class:`Scenario` does for tracing)."""
        return self.engine.sim

    @property
    def streams(self) -> "RandomStreams":
        return self.engine.streams

    def is_dead(self, disk: int) -> bool:
        """Permanently failed (unreachable, and not in an outage)."""
        return not self.engine.alive[disk] and disk not in self.engine.offline


class FaultInjector(ABC):
    """One composable fault process.

    Subclasses implement :meth:`arm`, which installs the injector's events
    and timers on ``ctx.sim``.  Injectors report through ``ctx.stats``
    (their own bookkeeping) and act through ``ctx.engine``'s fault hooks,
    so the engine sees every fault through its normal callbacks — never
    by mutating group state behind its back.
    """

    #: short identifier used in trace-event names and reports.
    name: str = "fault"

    @abstractmethod
    def arm(self, ctx: FaultContext) -> None:
        """Install this injector's events on the simulator."""


def arm_all(injectors: Iterable[FaultInjector],
            ctx: FaultContext) -> FaultContext:
    """Arm several injectors against one context; returns the context."""
    for injector in injectors:
        injector.arm(ctx)
    return ctx
