"""Tests for the discrete-event engine (repro.sim.engine / events)."""

import math
import random

import pytest

from repro.sim import (PRIORITY_HIGH, PRIORITY_LOW, PRIORITY_NORMAL, Event,
                       SimulationError, Simulator)


@pytest.fixture
def sim():
    return Simulator()


class TestScheduling:
    def test_events_fire_in_time_order(self, sim):
        out = []
        sim.schedule(5.0, out.append, "late")
        sim.schedule(1.0, out.append, "early")
        sim.schedule(3.0, out.append, "mid")
        sim.run()
        assert out == ["early", "mid", "late"]

    def test_clock_advances_to_event_time(self, sim):
        times = []
        sim.schedule(2.5, lambda: times.append(sim.now))
        sim.schedule(7.25, lambda: times.append(sim.now))
        sim.run()
        assert times == [2.5, 7.25]

    def test_schedule_at_absolute_time(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.now == 1.0
        fired = []
        sim.schedule_at(4.0, fired.append, "x")
        sim.run()
        assert fired == ["x"] and sim.now == 4.0

    def test_schedule_in_past_raises(self, sim):
        sim.schedule(3.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    def test_schedule_nan_raises(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule_at(float("nan"), lambda: None)

    def test_same_time_fifo_by_insertion(self, sim):
        out = []
        for tag in "abc":
            sim.schedule(1.0, out.append, tag)
        sim.run()
        assert out == ["a", "b", "c"]

    def test_priority_overrides_insertion_order(self, sim):
        out = []
        sim.schedule(1.0, out.append, "normal")
        sim.schedule(1.0, out.append, "high", priority=PRIORITY_HIGH)
        sim.schedule(1.0, out.append, "low", priority=PRIORITY_LOW)
        sim.run()
        assert out == ["high", "normal", "low"]

    def test_events_scheduled_during_run_fire(self, sim):
        out = []

        def first():
            sim.schedule(1.0, out.append, "second")
            out.append("first")

        sim.schedule(1.0, first)
        sim.run()
        assert out == ["first", "second"]
        assert sim.now == 2.0

    def test_zero_delay_event_fires_at_same_time(self, sim):
        times = []
        sim.schedule(3.0, lambda: sim.schedule(
            0.0, lambda: times.append(sim.now)))
        sim.run()
        assert times == [3.0]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, sim):
        out = []
        ev = sim.schedule(1.0, out.append, "x")
        ev.cancel()
        sim.run()
        assert out == []

    def test_cancel_during_run(self, sim):
        out = []
        later = sim.schedule(2.0, out.append, "later")
        sim.schedule(1.0, later.cancel)
        sim.run()
        assert out == []

    def test_cancelled_events_excluded_from_len(self, sim):
        ev1 = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert len(sim) == 2
        ev1.cancel()
        assert len(sim) == 1

    def test_peek_skips_cancelled(self, sim):
        ev = sim.schedule(1.0, lambda: None)
        sim.schedule(5.0, lambda: None)
        ev.cancel()
        assert sim.peek() == 5.0


class TestRunControl:
    def test_run_until_stops_before_later_events(self, sim):
        out = []
        sim.schedule(1.0, out.append, "in")
        sim.schedule(10.0, out.append, "out")
        sim.run(until=5.0)
        assert out == ["in"]
        assert sim.now == 5.0          # clock advances to the horizon

    def test_run_until_then_resume(self, sim):
        out = []
        sim.schedule(10.0, out.append, "late")
        sim.run(until=5.0)
        sim.run()
        assert out == ["late"]

    def test_event_exactly_at_horizon_fires(self, sim):
        out = []
        sim.schedule(5.0, out.append, "edge")
        sim.run(until=5.0)
        assert out == ["edge"]

    def test_event_at_infinity_never_fires(self, sim):
        out = []
        sim.schedule_at(math.inf, out.append, "never")
        sim.schedule(1.0, out.append, "once")
        sim.run()
        assert out == ["once"] and sim.now == 1.0 and len(sim) == 1

    def test_empty_run_advances_to_until(self, sim):
        sim.run(until=42.0)
        assert sim.now == 42.0

    def test_peek_empty_is_inf(self, sim):
        assert sim.peek() == math.inf

    def test_step_returns_event_then_none(self, sim):
        sim.schedule(1.0, lambda: None)
        ev = sim.step()
        assert isinstance(ev, Event)
        assert sim.step() is None

    def test_max_events_guard(self, sim):
        def loop():
            sim.schedule(1.0, loop)

        sim.schedule(1.0, loop)
        with pytest.raises(SimulationError, match="max_events"):
            sim.run(max_events=100)

    def test_max_events_exact_budget_is_fine(self, sim):
        """Exactly ``max_events`` pending events drain without raising."""
        out = []
        for i in range(5):
            sim.schedule(float(i + 1), out.append, i)
        sim.run(max_events=5)
        assert out == [0, 1, 2, 3, 4]

    def test_max_events_boundary_raises_on_next_event(self, sim):
        """An (N+1)th pending event must raise with exactly N fired —
        the guard used to fire N+1 events before noticing."""
        out = []
        for i in range(6):
            sim.schedule(float(i + 1), out.append, i)
        with pytest.raises(SimulationError, match="max_events=5"):
            sim.run(max_events=5)
        assert out == [0, 1, 2, 3, 4]
        assert sim.events_fired == 5

    def test_not_reentrant(self, sim):
        def nested():
            sim.run()

        sim.schedule(1.0, nested)
        with pytest.raises(SimulationError, match="reentrant"):
            sim.run()

    def test_events_fired_counter(self, sim):
        for i in range(5):
            sim.schedule(float(i + 1), lambda: None)
        sim.run()
        assert sim.events_fired == 5

        count = [0]

        def tick():                 # a handler that reschedules itself
            count[0] += 1
            if count[0] < 20_000:
                sim.schedule(1.0, tick)

        sim.schedule(1.0, tick)
        sim.run()
        assert count[0] == 20_000
        assert sim.events_fired == 20_005

    def test_clear_drops_pending(self, sim):
        out = []
        sim.schedule(1.0, out.append, "x")
        sim.clear()
        sim.run()
        assert out == [] and len(sim) == 0

    def test_trace_hook_sees_events(self):
        seen = []
        sim = Simulator(trace=seen.append)
        sim.schedule(1.0, lambda: None, name="traced")
        sim.run()
        assert [e.name for e in seen] == ["traced"]

    def test_start_time(self):
        sim = Simulator(start_time=100.0)
        assert sim.now == 100.0
        out = []
        sim.schedule(5.0, lambda: out.append(sim.now))
        sim.run()
        assert out == [105.0]


class TestEventObject:
    def test_ordering_by_time_priority_seq(self):
        a = Event(time=1.0)
        b = Event(time=2.0)
        c = Event(time=1.0, priority=PRIORITY_HIGH)
        assert a < b and c < a

    def test_fire_respects_cancel(self):
        out = []
        ev = Event(time=0.0, callback=out.append, args=("x",))
        ev.cancel()
        assert ev.fire() is None and out == []

    def test_fire_passes_args(self):
        out = []
        ev = Event(time=0.0, callback=out.append, args=("y",))
        ev.fire()
        assert out == ["y"]


class TestPeriodicTimer:
    def test_fires_at_fixed_interval(self, sim):
        times = []
        sim.every(10.0, lambda: times.append(sim.now))
        sim.run(until=45.0)
        assert times == [10.0, 20.0, 30.0, 40.0]

    def test_until_bounds_firings(self, sim):
        timer = sim.every(10.0, lambda: None, until=25.0)
        sim.run(until=100.0)
        assert timer.fired == 2

    def test_cancel_stops_rearming(self, sim):
        timer = sim.every(5.0, lambda: None)
        sim.schedule_at(12.0, timer.cancel)
        sim.run(until=50.0)
        assert timer.fired == 2 and timer.cancelled

    def test_callable_interval_reevaluated(self, sim):
        periods = [5.0, 10.0, 20.0]
        times = []
        sim.every(lambda: periods[min(len(times), 2)],
                  lambda: times.append(sim.now))
        sim.run(until=40.0)
        assert times == [5.0, 15.0, 35.0]

    def test_nonpositive_period_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.every(0.0, lambda: None)
        with pytest.raises(SimulationError):
            sim.every(math.nan, lambda: None)

    def test_args_passed_through(self, sim):
        out = []
        sim.every(1.0, out.append, "tick", until=3.5)
        sim.run(until=10.0)
        assert out == ["tick", "tick", "tick"]


class TestPeriodicCadence:
    """Pins the probe-cadence contract repro.telemetry relies on: a timer
    at interval T over horizon H fires exactly floor(H / T) times (first
    firing one interval from now; a firing exactly at the horizon is
    included), and same-instant firings run in scheduling order."""

    @pytest.mark.parametrize("horizon,interval", [
        (100.0, 10.0),      # divides exactly: firing at the horizon counts
        (100.0, 7.0),       # does not divide
        (99.5, 10.0),       # fractional horizon
        (10.0, 10.0),       # single firing, exactly at the horizon
        (9.75, 10.0),       # horizon shorter than one interval: no firing
        (512.0, 1.0),       # many firings, exact float accumulation
    ])
    def test_exactly_floor_horizon_over_interval_firings(
            self, sim, horizon, interval):
        timer = sim.every(interval, lambda: None, until=horizon)
        sim.run(until=horizon)
        assert timer.fired == math.floor(horizon / interval)

    def test_until_truncates_but_horizon_equality_fires(self, sim):
        times = []
        sim.every(10.0, lambda: times.append(sim.now), until=30.0)
        sim.run(until=100.0)
        assert times == [10.0, 20.0, 30.0]

    def test_same_instant_timer_fires_in_schedule_order(self, sim):
        order = []
        sim.every(10.0, order.append, "timer", until=10.0)
        sim.schedule_at(10.0, order.append, "event")
        sim.run(until=10.0)
        assert order == ["timer", "event"]

    def test_same_instant_timer_armed_later_fires_later(self, sim):
        order = []
        sim.schedule_at(10.0, order.append, "event")
        sim.every(10.0, order.append, "timer", until=10.0)
        sim.run(until=10.0)
        assert order == ["event", "timer"]

    def test_read_only_timer_preserves_other_event_order(self):
        def run(with_probe: bool) -> list[str]:
            sim = Simulator()
            order = []
            if with_probe:
                sim.every(1.0, lambda: None, until=50.0)
            sim.schedule_at(10.0, order.append, "a")
            sim.schedule_at(10.0, order.append, "b")
            sim.schedule_at(25.0, order.append, "c")
            sim.run(until=50.0)
            return order

        assert run(False) == run(True) == ["a", "b", "c"]


class _RandomModel:
    """A random schedule and its reference order.

    Times lie on a coarse grid and priorities take three values, so keys
    tie often.  Callbacks schedule children and cancel random events,
    fired or not.  Every child's key ``(time, priority, insertion
    order)`` exceeds its parent's, so the engine must fire exactly the
    uncancelled events sorted by that key.

    With ``batches`` set, the schedule also holds batches of same-time
    events, some with a member cancelled at once, scheduled through
    ``schedule_many`` (``"many"``) or one ``schedule`` call per event
    (``"one-by-one"``); both modes draw the same random schedule.
    """

    PRIORITIES = (PRIORITY_HIGH, PRIORITY_NORMAL, PRIORITY_LOW)
    LIMIT = 400

    def __init__(self, seed: int, trace=None,
                 batches: str | None = None) -> None:
        self.rnd = random.Random(seed)
        self.sim = Simulator(trace=trace)
        self.batches = batches
        self.n_batches = 0
        self.keys: list[tuple[float, int, int]] = []
        self.events: list[Event] = []
        self.cancelled: set[int] = set()
        self.fired: list[int] = []
        for _ in range(60):
            self.add(self.rnd.randrange(11) / 2,
                     self.rnd.choice(self.PRIORITIES))
            if batches and self.rnd.random() < 0.2:
                self.add_batch(self.rnd.randrange(11) / 2,
                               self.rnd.choice(self.PRIORITIES))
        for _ in range(10):
            self.cancel(self.rnd.randrange(len(self.keys)))

    def add(self, time: float, priority: int) -> None:
        order = len(self.keys)
        self.keys.append((time, priority, order))
        self.events.append(self.sim.schedule_at(time, self.fire, order,
                                                priority=priority))

    def add_batch(self, delay: float, priority: int) -> None:
        """Schedule 1-6 events ``delay`` from now, as one batch."""
        size = self.rnd.randint(1, 6)
        first = len(self.keys)
        time = self.sim.now + delay
        self.keys.extend((time, priority, first + i) for i in range(size))
        if self.batches == "many":
            events = self.sim.schedule_many(
                delay, self.fire, [(first + i,) for i in range(size)],
                priority=priority)
            assert [ev.seq for ev in events] == list(
                range(events[0].seq, events[0].seq + size))
        else:
            events = [self.sim.schedule(delay, self.fire, first + i,
                                        priority=priority)
                      for i in range(size)]
        self.events.extend(events)
        self.n_batches += 1
        if size > 1 and self.rnd.random() < 0.5:
            self.cancel(first + self.rnd.randrange(size))

    def cancel(self, order: int) -> None:
        if order not in self.fired:
            self.cancelled.add(order)
        self.events[order].cancel()

    def fire(self, order: int) -> None:
        self.fired.append(order)
        rnd, now = self.rnd, self.sim.now
        if len(self.keys) < self.LIMIT and rnd.random() < 0.6:
            self.add(now + rnd.choice((0.5, 1.0, 2.0)),
                     rnd.choice(self.PRIORITIES))
            # Same instant: only at or after the parent's priority.
            parent = self.keys[order][1]
            self.add(now, rnd.choice([p for p in self.PRIORITIES
                                      if p >= parent]))
            if self.batches and rnd.random() < 0.3:
                later = [p for p in self.PRIORITIES if p >= parent]
                delay = rnd.choice((0.0, 0.5, 1.0))
                self.add_batch(delay, rnd.choice(
                    later if delay == 0.0 else self.PRIORITIES))
        if rnd.random() < 0.2:
            self.cancel(rnd.randrange(len(self.keys)))

    def reference(self, until: float = math.inf) -> list[int]:
        return [order for time, _, order in sorted(self.keys)
                if order not in self.cancelled and time <= until]

    def pending_orders(self) -> set[int]:
        return {ev.args[0] for ev in self.sim.pending()}


class TestRandomizedSchedules:
    """The run loop against a reference sort, with ties, cancellations
    (also from callbacks) and events scheduled from callbacks."""

    SEEDS = range(8)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_fire_order_matches_reference_sort(self, seed):
        model = _RandomModel(seed)
        live = set(range(len(model.keys))) - model.cancelled
        assert len(model.sim) == len(live)
        assert model.pending_orders() == live
        model.sim.run()
        assert model.fired == model.reference()
        assert model.sim.events_fired == len(model.fired)
        assert len(model.sim) == 0 and not model.pending_orders()
        assert model.cancelled          # the schedule did cancel events
        assert len(model.keys) > 60     # and callbacks added children

    @pytest.mark.parametrize("seed", SEEDS)
    def test_trace_sees_each_fired_event_once(self, seed):
        traced: list[Event] = []
        model = _RandomModel(seed, trace=traced.append)
        model.sim.run()
        assert [ev.args[0] for ev in traced] == model.fired
        assert len({id(ev) for ev in traced}) == len(traced)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_until_stops_at_horizon_then_resumes(self, seed):
        horizon = 2.0                   # a grid time: ties at the edge
        model = _RandomModel(seed)
        model.sim.run(until=horizon)
        assert model.fired == model.reference(until=horizon)
        assert model.sim.now == horizon
        later = {order for time, _, order in model.keys
                 if time > horizon and order not in model.cancelled}
        assert model.pending_orders() == later
        assert len(model.sim) == len(later)
        model.sim.run()
        assert model.fired == model.reference()
        assert model.sim.events_fired == len(model.fired)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_max_events_boundary(self, seed):
        full = _RandomModel(seed)
        full.sim.run()
        total = len(full.fired)
        exact = _RandomModel(seed)
        exact.sim.run(max_events=total)         # exactly enough: no raise
        assert exact.fired == full.fired
        short = _RandomModel(seed)
        with pytest.raises(SimulationError, match="max_events"):
            short.sim.run(max_events=total - 1)
        assert short.sim.events_fired == len(short.fired) == total - 1
        short.sim.run()
        assert short.fired == full.fired == short.reference()

    @staticmethod
    def _batched_pair(seed: int) -> tuple[dict, dict]:
        """The same batched schedule through ``schedule_many`` and one
        event at a time, each with a trace hook."""
        models, traces = {}, {}
        for mode in ("many", "one-by-one"):
            traces[mode] = []
            models[mode] = _RandomModel(seed, trace=traces[mode].append,
                                        batches=mode)
        return models, traces

    @staticmethod
    def _assert_same(models: dict, traces: dict) -> None:
        many, single = models["many"], models["one-by-one"]
        assert many.fired == single.fired
        assert many.sim.events_fired == single.sim.events_fired \
            == len(many.fired)
        assert [ev.args for ev in traces["many"]] \
            == [ev.args for ev in traces["one-by-one"]] \
            == [(order,) for order in many.fired]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_batches_fire_as_if_scheduled_one_at_a_time(self, seed):
        models, traces = self._batched_pair(seed)
        for model in models.values():
            model.sim.run()
        self._assert_same(models, traces)
        many = models["many"]
        assert many.fired == many.reference()
        assert many.n_batches > 5
        batched = set(range(60, len(many.keys))) & many.cancelled
        assert batched                  # cancellations hit batch members

    @pytest.mark.parametrize("seed", SEEDS)
    def test_batches_across_until_and_max_events(self, seed):
        horizon = 2.0
        models, traces = self._batched_pair(seed)
        for model in models.values():
            model.sim.run(until=horizon)
            assert model.sim.now == horizon
            assert model.fired == model.reference(until=horizon)
        self._assert_same(models, traces)
        budget = len(models["many"].sim) // 2     # stops mid-schedule
        assert budget > 0
        for model in models.values():
            with pytest.raises(SimulationError, match="max_events"):
                model.sim.run(max_events=budget)
        self._assert_same(models, traces)
        for model in models.values():
            model.sim.run()
            assert model.fired == model.reference()
        self._assert_same(models, traces)

    def test_batch_in_the_past_or_at_nan_raises(self, sim):
        sim.schedule(3.0, lambda: None)
        sim.run()
        for delay, match in ((-1.0, "now="), (math.nan, "NaN")):
            for args in ([(1,), (2,)], []):
                with pytest.raises(SimulationError, match=match):
                    sim.schedule_many(delay, lambda x: None, args)
        assert len(sim) == 0
