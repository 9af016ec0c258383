"""Most-at-risk-first repair priority queue.

Lazy recovery (``SystemConfig.recovery_threshold``) holds a degraded
group's rebuilds back until enough redundancy is gone; when the trigger
fires, every held block of the group — and, on a multi-group failure
event, blocks of several groups at once — is *released* through this
queue so the most-at-risk work reaches the repair lane first.

Ordering (ascending): **surviving redundancy** (how many further block
losses the group can absorb — fewer means closer to data loss), then
**window age** (earlier ``failed_at`` means the block has been
vulnerable longer), then ``(grp_id, rep_id)`` for a deterministic total
order.  The invariant tests in ``tests/test_availability.py`` assert
that no block with lower surviving redundancy ever waits behind a
higher one.
"""

from __future__ import annotations

import heapq
from typing import Any, Iterator, NamedTuple


class RepairPriority(NamedTuple):
    """Sort key of one held rebuild; smaller sorts (and repairs) first.

    A named tuple: ordering and equality are tuple comparison in field
    order, run in C, and instances are immutable.
    """

    #: Further block losses the group survives (tolerance - missing).
    surviving: int
    #: When the block became unavailable (older = more urgent).
    failed_at: float
    grp_id: int
    rep_id: int


class RepairPriorityQueue:
    """Deterministic min-heap over :class:`RepairPriority` keys.

    Keys are unique per ``(grp_id, rep_id)`` at any instant, so the heap
    never compares payloads; a push sequence number breaks the (never
    expected) exact-duplicate tie deterministically anyway.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[RepairPriority, int, Any]] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def push(self, priority: RepairPriority, item: Any) -> None:
        heapq.heappush(self._heap, (priority, self._seq, item))
        self._seq += 1

    def pop(self) -> tuple[RepairPriority, Any]:
        """Remove and return the most urgent ``(priority, item)``."""
        priority, _, item = heapq.heappop(self._heap)
        return priority, item

    def peek(self) -> tuple[RepairPriority, Any]:
        priority, _, item = self._heap[0]
        return priority, item

    def drain(self) -> Iterator[tuple[RepairPriority, Any]]:
        """Yield every entry most-urgent-first, emptying the queue."""
        while self._heap:
            yield self.pop()
