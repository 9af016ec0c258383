"""Discrete-event simulation substrate (PARSEC substitute).

Public surface:

* :class:`~repro.sim.engine.Simulator` — the event loop.
* :class:`~repro.sim.events.Event` — scheduled callback.
* :class:`~repro.sim.rng.RandomStreams` — named reproducible RNG streams.
"""

from .engine import PeriodicTimer, SimulationError, Simulator
from .events import PRIORITY_HIGH, PRIORITY_LOW, PRIORITY_NORMAL, Event
from .rng import RandomStreams, stable_hash64
from .trace import TraceRecord, TraceRecorder

__all__ = [
    "Simulator", "SimulationError", "Event", "PeriodicTimer",
    "PRIORITY_HIGH", "PRIORITY_LOW", "PRIORITY_NORMAL",
    "RandomStreams", "stable_hash64",
    "TraceRecorder", "TraceRecord",
]
