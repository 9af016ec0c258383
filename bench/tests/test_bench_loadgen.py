import asyncio

import pytest

from bench.service_mix import (closed_loop, make_requests, open_loop,
                               window_rates)


class VirtualTime:
    """A clock that only moves when the load generator sleeps or the
    fake server works."""

    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    async def sleep(self, seconds: float) -> None:
        self.t += seconds
        await asyncio.sleep(0)

    def server(self, service_s):
        async def send(i: int) -> tuple[int, bytes]:
            self.t += service_s(i)
            await asyncio.sleep(0)
            return 200, b"{}"
        return send


def test_open_loop_times_requests_from_their_due_time():
    clock = VirtualTime()
    # 100 req/s; request 0 stalls the only connection for 25 ms.
    send = clock.server(lambda i: 0.025 if i == 0 else 0.005)
    sent = asyncio.run(open_loop(send, 6, rate=100.0, conns=1, clock=clock,
                                 sleep=clock.sleep))
    assert [s.index for s in sent] == list(range(6))
    assert [s.due for s in sent] == pytest.approx(
        [0.0, 0.01, 0.02, 0.03, 0.04, 0.05])
    # The stall is charged to the requests queued behind it, not hidden
    # as a closed loop would (which measures 5 ms for each of them).
    assert [s.latency for s in sent] == pytest.approx(
        [0.025, 0.020, 0.015, 0.010, 0.005, 0.005])
    assert [s.start - s.due for s in sent] == pytest.approx(
        [0.0, 0.015, 0.010, 0.005, 0.0, 0.0])


def test_failed_request_counts_as_missing_every_limit():
    clock = VirtualTime()

    async def send(i: int) -> tuple[int, bytes]:
        return (500 if i == 1 else 200), b""

    sent = asyncio.run(open_loop(send, 3, rate=10.0, conns=2, clock=clock,
                                 sleep=clock.sleep))
    assert [s.latency for s in sent] == [0.0, float("inf"), 0.0]


def test_closed_loop_sends_on_completion():
    clock = VirtualTime()
    sent = asyncio.run(closed_loop(
        clock.server(lambda i: 0.25), 1.0, limit=1000, conns=1,
        clock=clock))
    assert len(sent) == 4
    assert [s.latency for s in sent] == [0.25] * 4
    # Completions at 0.25 | 0.5, 0.75 | 1.0: a window holds its start,
    # and the one at 1.0 falls past the last whole window.
    assert window_rates([s.end for s in sent], 0.0, 1.0, 0.5) == [2.0, 4.0]


def test_request_mix_is_exact_per_block_and_seeded():
    requests = make_requests(7, 100)
    kinds = [r.kind for r in requests]
    assert {k: kinds.count(k) for k in set(kinds)} == {
        "markov": 30, "analytic": 30, "surrogate": 20, "live-hit": 15,
        "live-miss": 5}
    assert make_requests(7, 100) == requests
    assert make_requests(8, 100) != requests
    misses = [r.body for r in requests if r.kind == "live-miss"]
    assert len(set(misses)) == len(misses)
