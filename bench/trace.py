"""In-memory spans recorded around the benchmark's calls into each layer.

A span is ``(name, start, end, parent, trace id)``.  Work too fine to keep
one span per call (the DES fires ~10^5 events a second) is kept as an
*aggregate* instead — a count and a total per name — and the span that
contains it records how much of its interval the aggregate covers, so the
self-time arithmetic still closes: self time is a span's duration minus
the part of it that child spans or aggregates cover.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Callable, Iterator


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None = None
    trace: str | None = None
    #: seconds of this span covered by aggregated (span-less) children
    covered: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans kept in memory; written out only when the benchmark ends.

    :meth:`span` nests by a stack, so it serves code where one thread
    at a time records; concurrent callers use :meth:`add` with an
    explicit parent.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, trace: str | None = None) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        s = Span(len(self.spans), name, self.clock(), float("nan"),
                 parent, trace)
        self.spans.append(s)
        self._stack.append(s.id)
        try:
            yield s
        finally:
            self._stack.pop()
            s.end = self.clock()

    def add(self, name: str, start: float, end: float,
            parent: int | None = None, trace: str | None = None) -> Span:
        s = Span(len(self.spans), name, start, end, parent, trace)
        self.spans.append(s)
        return s

    def to_list(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


class EventClock:
    """A ``Simulator`` trace hook charging host time to events.

    The time from one event's trace call to the next is charged to the
    earlier event (its handler plus the heap work that follows it);
    :meth:`stop` closes the last interval.  ``buckets`` maps an event
    name to ``[count, seconds]``.
    """

    __slots__ = ("buckets", "_bucket", "_t", "_first", "_clock")

    def __init__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self.buckets: dict[str, list] = {}
        self._clock = clock
        self._bucket: list | None = None
        self._t = 0.0
        self._first: float | None = None

    def tick(self, event) -> None:
        now = self._clock()
        bucket = self._bucket
        if bucket is None:
            self._first = now
        else:
            bucket[1] += now - self._t
        bucket = self.buckets.get(event.name)
        if bucket is None:
            bucket = self.buckets[event.name] = [0, 0.0]
        bucket[0] += 1
        self._bucket = bucket
        self._t = now

    def stop(self) -> float:
        """Close the open interval; returns the seconds charged since the
        first event after the last :meth:`stop`."""
        if self._bucket is None:
            return 0.0
        now = self._clock()
        self._bucket[1] += now - self._t
        covered = now - self._first
        self._bucket = None
        self._first = None
        return covered


def _union_length(intervals: list[tuple[float, float]], lo: float,
                  hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span],
               aggregates: dict[str, list] | None = None
               ) -> dict[str, dict]:
    """Per-name ``{count, total_s, self_s}``; aggregates are rows whose
    total is all self time."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    rows: dict[str, dict] = {}
    for s in spans:
        row = rows.setdefault(s.name, {"count": 0, "total_s": 0.0,
                                       "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += s.duration
        row["self_s"] += (s.duration
                          - _union_length(children[s.id], s.start, s.end)
                          - s.covered)
    for name, (count, seconds) in (aggregates or {}).items():
        rows[name] = {"count": count, "total_s": seconds,
                      "self_s": seconds}
    return rows


def root_wall(spans: list[Span]) -> float:
    """Traced wall time: the summed duration of parentless spans."""
    return sum(s.duration for s in spans if s.parent is None)


def render_table(rows: dict[str, dict], wall: float) -> str:
    """The per-layer self-time table, largest self time first."""
    lines = [f"{'layer':<44} {'count':>9} {'total_s':>9} {'self_s':>9} "
             f"{'self%':>6}"]
    for name, row in sorted(rows.items(), key=lambda kv: -kv[1]["self_s"]):
        share = 100.0 * row["self_s"] / wall if wall > 0 else 0.0
        lines.append(f"{name:<44} {row['count']:>9} {row['total_s']:>9.3f} "
                     f"{row['self_s']:>9.3f} {share:>6.1f}")
    total = sum(r["self_s"] for r in rows.values())
    lines.append(f"{'sum of self times / traced wall':<44} {'':>9} "
                 f"{wall:>9.3f} {total:>9.3f} "
                 f"{100.0 * total / wall if wall > 0 else 0.0:>6.1f}")
    return "\n".join(lines)
