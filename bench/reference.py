"""A fixed CPU kernel timed beside each workload.

Hosts shared with other tenants change speed by tens of percent over
minutes, more than any bound worth enforcing.  The workloads time this
kernel next to their own samples and report times scaled by
``REFERENCE_S / kernel seconds`` (rates by its inverse): what the sample
would have taken had the host run the kernel in :data:`REFERENCE_S`.
Raw, unscaled values are kept beside the scaled ones in the output.

The kernel is heap, dict and float work in the interpreter plus one
NumPy sort, the two kinds of work the workloads do.  It never touches
the program, so a change to the program cannot move it.
"""

from __future__ import annotations

import heapq
import random
import statistics
import time

import numpy as np

#: Kernel seconds on the reference host (2 vCPU Xeon, Python 3.11,
#: NumPy 2.4, quiet); scaled values read as seconds on that host.
REFERENCE_S = 0.027


def kernel() -> float:
    rng = random.Random(12345)
    heap: list[tuple[float, int]] = []
    sums: dict[int, float] = {}
    for i in range(30_000):
        heapq.heappush(heap, (rng.random(), i))
        if len(heap) > 512:
            t, j = heapq.heappop(heap)
            sums[j & 1023] = sums.get(j & 1023, 0.0) + t
    a = np.random.default_rng(1).random(150_000)
    return sum(sums.values()) + float(np.sort(a)[::7].sum())


def kernel_seconds() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def scale(samples: list[float]) -> float:
    """Factor turning raw seconds into reference-host seconds."""
    return REFERENCE_S / statistics.median(samples)
