"""Event primitives for the discrete-event simulation engine.

An :class:`Event` is a scheduled callback with a firing time, a tie-breaking
priority, and a monotonically increasing sequence number that makes the event
order total and deterministic.  Events may be cancelled before they fire;
cancellation is O(1) (the heap entry is left in place and skipped on pop).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable

#: Default priority for ordinary events.
PRIORITY_NORMAL = 0
#: Priority for bookkeeping events that must run before normal events at the
#: same timestamp (e.g. state snapshots).
PRIORITY_HIGH = -10
#: Priority for events that must run after normal events at the same
#: timestamp (e.g. invariant checks).
PRIORITY_LOW = 10

#: Next sequence number (process-wide, strictly increasing).
next_seq = itertools.count().__next__


@dataclass(order=True, slots=True)
class Event:
    """A single scheduled occurrence in simulated time.

    Events compare by ``(time, priority, seq)`` which gives a deterministic
    total order; callbacks and payload never participate in comparison.
    """

    time: float
    priority: int = PRIORITY_NORMAL
    seq: int = field(default_factory=next_seq)
    callback: Callable[..., Any] | None = field(default=None, compare=False)
    args: tuple = field(default=(), compare=False)
    cancelled: bool = field(default=False, compare=False)
    name: str = field(default="", compare=False)

    def cancel(self) -> None:
        """Mark this event so the engine skips it when popped."""
        self.cancelled = True

    def fire(self) -> Any:
        """Invoke the callback (no-op if cancelled or callback-less)."""
        if self.cancelled or self.callback is None:
            return None
        return self.callback(*self.args)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = self.name or getattr(self.callback, "__name__", "?")
        flag = " CANCELLED" if self.cancelled else ""
        return f"<Event t={self.time:.6g} prio={self.priority} {label}{flag}>"
