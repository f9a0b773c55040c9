"""Event queue and simulator engine."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import SimulationError
from repro.sim.engine import Simulator
from repro.sim.events import EventQueue


class TestEventQueue:
    def test_pops_in_time_order(self):
        queue = EventQueue()
        order = []
        queue.push(3.0, order.append, ("c",))
        queue.push(1.0, order.append, ("a",))
        queue.push(2.0, order.append, ("b",))
        while queue:
            event = queue.pop()
            event.fn(*event.args)
        assert order == ["a", "b", "c"]

    def test_ties_break_by_schedule_order(self):
        queue = EventQueue()
        first = queue.push(1.0, lambda: None)
        second = queue.push(1.0, lambda: None)
        assert queue.pop() is first
        assert queue.pop() is second

    def test_cancelled_events_are_skipped(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        keeper = queue.push(2.0, lambda: None)
        assert queue.cancel(event)
        assert len(queue) == 1
        assert queue.pop() is keeper
        assert queue.pop() is None

    def test_peek_time_skips_cancelled(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        queue.push(5.0, lambda: None)
        event.cancel()
        assert queue.peek_time() == 5.0

    def test_cancel_is_idempotent_and_live_count_never_goes_negative(self):
        # Regression: the old ``note_cancelled`` escape hatch decremented
        # the live count unconditionally, so cancelling a fired or
        # already-cancelled handle drove ``len(queue)`` negative and made
        # ``__bool__`` lie. ``cancel()`` must refuse non-pending entries.
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        assert queue.cancel(event)
        assert not queue.cancel(event)  # second cancel is a no-op
        event.cancel()  # handle-side cancel is a no-op too
        assert len(queue) == 0
        assert not queue

        fired = queue.push(2.0, lambda: None)
        assert queue.pop() is fired
        assert not queue.cancel(fired)  # cancelling a fired handle is a no-op
        assert len(queue) == 0
        assert not queue
        assert queue.pop() is None

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=200))
    def test_pop_order_is_sorted_for_any_times(self, times):
        queue = EventQueue()
        for t in times:
            queue.push(t, lambda: None)
        popped = []
        while queue:
            popped.append(queue.pop().time)
        assert popped == sorted(times)


class TestSimulator:
    def test_clock_advances_monotonically(self):
        sim = Simulator()
        seen = []
        sim.schedule(5.0, lambda: seen.append(sim.now))
        sim.schedule(1.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [1.0, 5.0]
        assert sim.now == 5.0

    def test_zero_delay_runs_after_current_instant_events(self):
        sim = Simulator()
        order = []

        def first():
            order.append("first")
            sim.schedule(0.0, lambda: order.append("zero"))

        sim.schedule(1.0, first)
        sim.schedule(1.0, lambda: order.append("second"))
        sim.run()
        assert order == ["first", "second", "zero"]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(10.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(5.0, lambda: None)

    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(10.0, lambda: fired.append(10))
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.now == 5.0
        sim.run()
        assert fired == [1, 10]

    def test_cancel_prevents_firing(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, lambda: fired.append(1))
        sim.cancel(event)
        sim.run()
        assert fired == []
        assert sim.pending == 0

    def test_step_fires_single_event(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(2.0, lambda: fired.append(2))
        assert sim.step()
        assert fired == [1]
        assert sim.step()
        assert not sim.step()

    def test_events_fired_counter(self):
        sim = Simulator()
        for _ in range(5):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_fired == 5

    def test_hundred_chains_fire_every_event(self):
        sim = Simulator()

        def chain(n):
            if n:
                sim.schedule(0.1, chain, n - 1)

        for _ in range(100):
            sim.schedule(0.0, chain, 100)
        sim.run()
        assert sim.events_fired == 100 * 101

    def test_chained_scheduling(self):
        sim = Simulator()
        ticks = []

        def tick(n):
            ticks.append(sim.now)
            if n > 0:
                sim.schedule(2.0, tick, n - 1)

        sim.schedule(0.0, tick, 3)
        sim.run()
        assert ticks == [0.0, 2.0, 4.0, 6.0]


class TestRunUntilDrainRegression:
    """run(until=T) must land on T even when the queue drains early."""

    def test_clock_reaches_horizon_after_drain(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        assert sim.run(until=5.0) == 5.0
        assert sim.now == 5.0

    def test_empty_queue_still_advances_to_horizon(self):
        sim = Simulator()
        assert sim.run(until=3.0) == 3.0

    def test_past_horizon_never_rewinds_the_clock(self):
        sim = Simulator()
        sim.schedule(10.0, lambda: None)
        sim.run()
        assert sim.run(until=5.0) == 10.0

    def test_resumed_run_continues_from_idled_clock(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(sim.now))
        sim.run(until=5.0)
        sim.schedule(1.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [1.0, 6.0]


class TestStepReentrancyRegression:
    """step() from inside a firing callback must raise, not interleave."""

    def test_nested_step_raises(self):
        sim = Simulator()
        caught = []

        def nested():
            with pytest.raises(SimulationError):
                sim.step()
            caught.append(sim.now)

        sim.schedule(1.0, nested)
        sim.schedule(2.0, lambda: caught.append(sim.now))
        assert sim.step()
        assert caught == [1.0]
        # the engine stays usable after the rejected nested call
        assert sim.step()
        assert caught == [1.0, 2.0]
        assert not sim.step()

    def test_step_inside_run_callback_raises(self):
        sim = Simulator()
        caught = []

        def nested():
            with pytest.raises(SimulationError):
                sim.step()
            caught.append(True)

        sim.schedule(1.0, nested)
        sim.run()
        assert caught == [True]


class TestEventQueueStress:
    """Interleaved push/pop/cancel/peek against a reference model.

    The queue's lazy deletion, fast-path entries without handles, and
    the shared live counter all have to agree with a brute-force model
    that sorts live entries by (time, push order).
    """

    @pytest.mark.parametrize("seed", [0, 1, 20260808])
    def test_randomized_interleaving_matches_model(self, seed):
        import random

        rnd = random.Random(seed)
        queue = EventQueue()
        fired = []
        # push_index -> (time, handle or None); None marks push_fast
        # entries, which can never be cancelled.
        live = {}
        push_index = 0

        for _ in range(3000):
            op = rnd.random()
            if op < 0.45 or not live:
                t = rnd.randrange(0, 400) / 4.0
                if rnd.random() < 0.25:
                    queue.push_fast(t, fired.append, (push_index,))
                    live[push_index] = (t, None)
                else:
                    handle = queue.push(t, fired.append, (push_index,))
                    live[push_index] = (t, handle)
                push_index += 1
            elif op < 0.65:
                cancellable = [
                    i for i, (_, h) in live.items() if h is not None
                ]
                if not cancellable:
                    continue
                idx = rnd.choice(cancellable)
                _, handle = live.pop(idx)
                if rnd.random() < 0.5:
                    assert queue.cancel(handle)
                else:
                    handle.cancel()
                assert handle.cancelled
                # double cancellation is a refused no-op, not a
                # live-count corruption
                assert not queue.cancel(handle)
            elif op < 0.85:
                expected = (
                    min(live.items(), key=lambda kv: (kv[1][0], kv[0]))
                    if live
                    else None
                )
                event = queue.pop()
                if expected is None:
                    assert event is None
                else:
                    idx, (t, handle) = expected
                    assert event.time == t
                    assert event.args == (idx,)
                    if handle is not None:
                        assert event is handle
                    assert event.fired
                    del live[idx]
            else:
                head = min(
                    (t for t, _ in live.values()), default=None
                )
                assert queue.peek_time() == head
            assert len(queue) == len(live)
            assert bool(queue) == bool(live)

        # Drain: the survivors come out in (time, push order).
        expected_order = sorted(live.items(), key=lambda kv: (kv[1][0], kv[0]))
        drained = []
        while queue:
            drained.append(queue.pop().args[0])
        assert drained == [idx for idx, _ in expected_order]
        assert queue.pop() is None
        assert len(queue) == 0
