"""Heap-based discrete-event simulation core.

The paper ran its experiments on PARSEC, a C discrete-event simulation tool.
This module is the Python substitute: a deterministic, timestamp-ordered
event loop.  It is intentionally simple — a binary heap of
:class:`~repro.sim.events.Event` entries and a clock — because the
reliability simulations schedule at most a few hundred thousand events per
run and the costly work (failure-time sampling, placement) is vectorized
outside the loop.

Example
-------
>>> sim = Simulator()
>>> fired = []
>>> _ = sim.schedule(5.0, fired.append, 'a')
>>> _ = sim.schedule(1.0, fired.append, 'b')
>>> sim.run()
>>> fired
['b', 'a']
>>> sim.now
5.0
"""

from __future__ import annotations

import heapq
import math
import sys
from typing import Any, Callable, Iterable, Iterator, NoReturn

from .events import PRIORITY_NORMAL, Event, next_seq


#: The latest finite time; events after it (at ``inf``) never fire.
_LATEST = sys.float_info.max


class SimulationError(RuntimeError):
    """Raised for invalid scheduling (e.g. scheduling in the past)."""


class Simulator:
    """A deterministic discrete-event simulator.

    The heap holds ``(time, priority, seq, event)`` tuples: ``seq`` is
    unique, so ordering never reaches the event and runs as C tuple
    comparison.  Cancelled events keep their heap entry and are skipped
    when they surface.

    Parameters
    ----------
    start_time:
        Initial value of the simulation clock (seconds).
    trace:
        Optional callable invoked as ``trace(event)`` just before each event
        fires; useful for debugging and for building event logs in tests.
    """

    def __init__(self, start_time: float = 0.0,
                 trace: Callable[[Event], None] | None = None) -> None:
        self._now = float(start_time)
        self._heap: list[tuple[float, int, int, Event]] = []
        self._trace = trace
        self._running = False
        self._events_fired = 0

    # ------------------------------------------------------------------ #
    # Clock and introspection
    # ------------------------------------------------------------------ #
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_fired(self) -> int:
        """Number of events executed so far (cancelled events excluded)."""
        return self._events_fired

    def __len__(self) -> int:
        """Number of pending (non-cancelled) events."""
        return sum(1 for entry in self._heap if not entry[3].cancelled)

    def pending(self) -> Iterator[Event]:
        """Iterate over pending events in arbitrary (heap) order."""
        return (entry[3] for entry in self._heap if not entry[3].cancelled)

    def peek(self) -> float:
        """Time of the next pending event, or ``inf`` if none."""
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)
        return heap[0][0] if heap else math.inf

    # ------------------------------------------------------------------ #
    # Scheduling
    # ------------------------------------------------------------------ #
    def schedule(self, delay: float, callback: Callable[..., Any],
                 *args: Any, priority: int = PRIORITY_NORMAL,
                 name: str = "") -> Event:
        """Schedule ``callback(*args)`` to fire ``delay`` seconds from now."""
        return self.schedule_at(self._now + delay, callback, *args,
                                priority=priority, name=name)

    def schedule_at(self, time: float, callback: Callable[..., Any],
                    *args: Any, priority: int = PRIORITY_NORMAL,
                    name: str = "") -> Event:
        """Schedule ``callback(*args)`` at absolute simulated ``time``."""
        if not time >= self._now:       # in the past, or NaN
            self._reject(time)
        time = float(time)
        seq = next_seq()
        ev = Event(time, priority, seq, callback, args, False, name)
        heapq.heappush(self._heap, (time, priority, seq, ev))
        return ev

    def schedule_many(self, delay: float, callback: Callable[..., Any],
                      arg_tuples: Iterable[tuple], *,
                      priority: int = PRIORITY_NORMAL,
                      name: str = "") -> list[Event]:
        """Schedule ``callback(*args)`` for each tuple in ``arg_tuples``,
        all ``delay`` seconds from now.

        The same as one :meth:`schedule` call per tuple, in order: the
        events take consecutive sequence numbers, so they fire in the
        order given.  The time is checked once, even for no tuples.
        """
        time = self._now + delay
        if not time >= self._now:       # in the past, or NaN
            self._reject(time)
        time = float(time)
        events = [Event(time, priority, next_seq(), callback, args, False,
                        name) for args in arg_tuples]
        heap = self._heap
        push = heapq.heappush
        for ev in events:
            push(heap, (time, priority, ev.seq, ev))
        return events

    def _reject(self, time: float) -> NoReturn:
        if math.isnan(time):
            raise SimulationError("cannot schedule at NaN time")
        raise SimulationError(f"cannot schedule at t={time} < now={self._now}")

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def step(self) -> Event | None:
        """Execute the next pending event; return it (or None if drained)."""
        while self._heap:
            ev = heapq.heappop(self._heap)[3]
            if ev.cancelled:
                continue
            self._now = ev.time
            if self._trace is not None:
                self._trace(ev)
            ev.fire()
            self._events_fired += 1
            return ev
        return None

    def run(self, until: float | None = None,
            max_events: int | None = None) -> None:
        """Run events in timestamp order.

        Parameters
        ----------
        until:
            Stop once the next event would fire after this time; the clock is
            advanced to ``until`` (standard end-of-horizon semantics).
        max_events:
            Safety valve: at most ``max_events`` events fire; a further
            pending event raises :class:`SimulationError`.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        heap = self._heap
        pop = heapq.heappop
        trace = self._trace
        # An event at t=inf never fires: it means "never".
        horizon = _LATEST if until is None else min(until, _LATEST)
        budget = math.inf if max_events is None else max_events
        fired = 0
        try:
            while heap:
                time, _, _, ev = heap[0]
                if ev.cancelled:
                    pop(heap)
                    continue
                if time > horizon:
                    break
                if fired >= budget:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; runaway model?")
                pop(heap)
                self._now = time
                if trace is not None:
                    trace(ev)
                ev.callback(*ev.args)
                self._events_fired += 1
                fired += 1
            if until is not None and until > self._now:
                self._now = float(until)
        finally:
            self._running = False

    # ------------------------------------------------------------------ #
    # Timers
    # ------------------------------------------------------------------ #
    def every(self, interval: float | Callable[[], float],
              callback: Callable[..., Any], *args: Any,
              until: float | None = None,
              name: str = "") -> "PeriodicTimer":
        """Run ``callback(*args)`` repeatedly, ``interval`` seconds apart.

        ``interval`` may be a zero-argument callable re-evaluated before
        each arming, for periods that depend on mutable state (e.g. a
        scrub cycle spread over a growing disk population).  The first
        firing is one interval from now; firings stop after ``until`` or
        when the returned timer is cancelled.
        """
        timer = PeriodicTimer(self, interval, callback, args, until, name)
        timer._arm()
        return timer


class PeriodicTimer:
    """A self-rescheduling timer (see :meth:`Simulator.every`)."""

    __slots__ = ("sim", "interval", "callback", "args", "until", "name",
                 "cancelled", "fired", "_event")

    def __init__(self, sim: Simulator,
                 interval: float | Callable[[], float],
                 callback: Callable[..., Any], args: tuple,
                 until: float | None, name: str) -> None:
        self.sim = sim
        self.interval = interval
        self.callback = callback
        self.args = args
        self.until = until
        self.name = name
        self.cancelled = False
        self.fired = 0
        self._event: Event | None = None

    def _period(self) -> float:
        dt = self.interval() if callable(self.interval) else self.interval
        if dt <= 0 or math.isnan(dt):
            raise SimulationError(f"timer period must be positive, got {dt}")
        return float(dt)

    def _arm(self) -> None:
        when = self.sim.now + self._period()
        if self.until is not None and when > self.until:
            self._event = None
            return
        self._event = self.sim.schedule_at(when, self._fire,
                                           name=self.name)

    def _fire(self) -> None:
        if self.cancelled:
            return
        self.fired += 1
        self.callback(*self.args)
        if not self.cancelled:
            self._arm()

    def cancel(self) -> None:
        """Stop the timer; any armed firing is cancelled."""
        self.cancelled = True
        if self._event is not None:
            self._event.cancel()
