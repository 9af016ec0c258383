from types import SimpleNamespace

import pytest

from bench.trace import EventClock, Tracer, root_wall, self_times


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


def test_self_time_is_duration_minus_children():
    clock = FakeClock()
    tracer = Tracer(clock)
    with tracer.span("root"):
        clock.t = 1.0
        with tracer.span("child"):
            clock.t = 3.0
        clock.t = 5.0
        with tracer.span("child"):
            clock.t = 6.0
            with tracer.span("grandchild"):
                clock.t = 8.5
            clock.t = 9.0
        clock.t = 10.0
    rows = self_times(tracer.spans)
    assert rows["root"] == {"count": 1, "total_s": 10.0, "self_s": 4.0}
    assert rows["child"] == {"count": 2, "total_s": 6.0, "self_s": 3.5}
    assert rows["grandchild"]["self_s"] == 2.5
    # Sequential spans: the self times add up to the traced wall.
    assert sum(r["self_s"] for r in rows.values()) == root_wall(tracer.spans)


def test_overlapping_children_cover_their_union_once():
    tracer = Tracer(FakeClock())
    root = tracer.add("loop", 0.0, 10.0)
    tracer.add("request", 1.0, 4.0, parent=root.id)
    tracer.add("request", 3.0, 6.0, parent=root.id)
    tracer.add("request", 8.0, 12.0, parent=root.id)   # clipped at 10
    rows = self_times(tracer.spans)
    assert rows["loop"]["self_s"] == pytest.approx(10.0 - 5.0 - 2.0)


def test_aggregated_children_and_event_clock():
    clock = FakeClock()
    events = EventClock(clock)
    tracer = Tracer(clock)
    with tracer.span("run") as run:
        for t, name in ((1.0, "a"), (3.0, "b"), (4.0, "a")):
            clock.t = t
            events.tick(SimpleNamespace(name=name))
        clock.t = 7.0
        run.covered = events.stop()
        clock.t = 8.0
    # Time from one event to the next is charged to the earlier one.
    assert events.buckets == {"a": [2, 2.0 + 3.0], "b": [1, 1.0]}
    assert run.covered == 6.0
    rows = self_times(tracer.spans, events.buckets)
    assert rows["run"]["self_s"] == 2.0
    assert rows["a"] == {"count": 2, "total_s": 5.0, "self_s": 5.0}
    assert sum(r["self_s"] for r in rows.values()) == root_wall(tracer.spans)
    assert events.stop() == 0.0
