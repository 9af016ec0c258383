"""Fault hooks left inert change nothing.

Each pinned lifetime of ``tests/test_flat_engine_pins.py`` runs again
with three injectors armed that can never change the trajectory: a
``Scrubber`` with no latent-error source, ``Stragglers`` at full speed
(factor 1.0 on every disk, which routes every rebuild start through the
engine's hooked path), and ``TransientOutages`` whose first arrival
falls past the horizon.  The statistics must equal the pin exactly, and
the event count must be the pin plus the scrubber's own ticks.
"""

from dataclasses import asdict

import pytest

from repro.faults import (FaultContext, Scrubber, Stragglers,
                          TransientOutages, arm_all)
from repro.reliability import ReliabilitySimulation
from repro.sim import Simulator, TraceRecorder
from repro.units import DAY, HOUR
from tests.test_flat_engine_pins import LIFETIMES, PINS


@pytest.mark.parametrize("name", sorted(LIFETIMES))
def test_inert_injectors_keep_the_pin(name):
    config, seed = LIFETIMES[name]
    engine = ReliabilitySimulation(config, seed=seed)
    ticks = TraceRecorder(prefixes=("scrub-tick",))
    engine.sim = Simulator(trace=ticks)
    ctx = FaultContext(engine=engine, horizon=config.duration)
    arm_all([Scrubber(30 * DAY),
             Stragglers(1.0, factor_range=(1.0, 1.0)),
             TransientOutages(1e-12, HOUR)], ctx)
    stats = engine.run()

    events, pinned = PINS[name]
    assert asdict(stats) == pinned
    assert engine.sim.events_fired == events + len(ticks)
    assert len(ticks) == ctx.stats.scrubs > 0
    assert ctx.stats.outages_started == ctx.stats.scrub_discoveries == 0
    assert ctx.stats.stragglers == engine.N0    # every initial disk...
    assert engine._hooked                       # ...on the hooked path
