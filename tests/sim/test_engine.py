"""Unit tests for the discrete-event engine."""

import pytest

from repro.errors import SimError
from repro.sim import Engine


def test_clock_starts_at_zero():
    assert Engine().now == 0.0


def test_clock_custom_start():
    assert Engine(start=10.0).now == 10.0


def test_schedule_and_run_fires_callback(engine):
    fired = []
    engine.schedule(5.0, fired.append, "x")
    end = engine.run()
    assert fired == ["x"]
    assert end == 5.0
    assert engine.now == 5.0


def test_events_fire_in_time_order(engine):
    order = []
    engine.schedule(3.0, order.append, "b")
    engine.schedule(1.0, order.append, "a")
    engine.schedule(7.0, order.append, "c")
    engine.run()
    assert order == ["a", "b", "c"]


def test_same_time_events_fire_in_scheduling_order(engine):
    order = []
    for tag in "abcde":
        engine.schedule(2.0, order.append, tag)
    engine.run()
    assert order == list("abcde")


def test_schedule_at_absolute_time(engine):
    times = []
    engine.schedule_at(4.0, lambda: times.append(engine.now))
    engine.run()
    assert times == [4.0]


def test_call_soon_runs_at_current_time(engine):
    seen = []
    engine.schedule(2.0, lambda: engine.call_soon(lambda: seen.append(engine.now)))
    engine.run()
    assert seen == [2.0]


def test_call_soon_is_a_plain_entry_after_pending_same_time_events(engine):
    order = []

    def at_two():
        engine.schedule_at(2.0, order.append, "timer")
        assert engine.call_soon(order.append, "soon") is None
        engine.post_at(2.0, order.append, "post")

    engine.schedule(2.0, at_two)
    engine.run()
    assert order == ["timer", "soon", "post"]
    # The inner schedule_at recycles the outer timer's slot; call_soon
    # takes none, so one slot ever existed.
    assert len(engine._slot_epoch) == 1


def test_negative_delay_rejected(engine):
    with pytest.raises(SimError):
        engine.schedule(-1.0, lambda: None)


def test_schedule_at_past_rejected(engine):
    engine.schedule(5.0, lambda: None)
    engine.run()
    with pytest.raises(SimError):
        engine.schedule_at(1.0, lambda: None)


def test_cancel_prevents_callback(engine):
    fired = []
    timer = engine.schedule(1.0, fired.append, "x")
    timer.cancel()
    engine.run()
    assert fired == []


def test_cancel_is_idempotent(engine):
    timer = engine.schedule(1.0, lambda: None)
    timer.cancel()
    timer.cancel()
    engine.run()


def test_run_until_horizon_leaves_future_events(engine):
    fired = []
    engine.schedule(1.0, fired.append, "early")
    engine.schedule(10.0, fired.append, "late")
    engine.run(until=5.0)
    assert fired == ["early"]
    assert engine.now == 5.0
    engine.run()
    assert fired == ["early", "late"]


def test_run_until_advances_clock_even_when_idle(engine):
    engine.run(until=42.0)
    assert engine.now == 42.0


def test_stop_halts_run(engine):
    fired = []
    engine.schedule(1.0, engine.stop)
    engine.schedule(2.0, fired.append, "x")
    engine.run()
    assert fired == []
    assert engine.now == 1.0
    # A subsequent run picks the pending event back up.
    engine.run()
    assert fired == ["x"]


def test_run_is_not_reentrant(engine):
    def reenter():
        with pytest.raises(SimError):
            engine.run()

    engine.schedule(1.0, reenter)
    engine.run()


def test_max_events_safety_valve(engine):
    def loop():
        engine.call_soon(loop)

    engine.call_soon(loop)
    with pytest.raises(SimError, match="max_events"):
        engine.run(max_events=100)


def test_max_events_executes_exactly_the_budget(engine):
    """The valve trips after max_events events, not max_events + 1."""
    fired = []
    for i in range(5):
        engine.schedule(float(i + 1), fired.append, i)
    with pytest.raises(SimError, match="max_events"):
        engine.run(max_events=3)
    assert fired == [0, 1, 2]


def test_max_events_equal_to_workload_completes(engine):
    """A run needing exactly max_events events finishes without raising."""
    fired = []
    for i in range(3):
        engine.schedule(float(i + 1), fired.append, i)
    engine.run(max_events=3)
    assert fired == [0, 1, 2]


def test_events_executed_counter(engine):
    for i in range(4):
        engine.schedule(float(i + 1), lambda: None)
    cancelled = engine.schedule(0.5, lambda: None)
    cancelled.cancel()
    engine.run()
    assert engine.events_executed == 4


def test_callbacks_can_schedule_more_events(engine):
    seen = []

    def chain(n):
        seen.append(n)
        if n < 3:
            engine.schedule(1.0, chain, n + 1)

    engine.schedule(1.0, chain, 0)
    engine.run()
    assert seen == [0, 1, 2, 3]
    assert engine.now == 4.0


def test_peek_returns_next_event_time(engine):
    assert engine.peek() is None
    engine.schedule(3.0, lambda: None)
    assert engine.peek() == 3.0


def test_pending_count_excludes_cancelled(engine):
    t1 = engine.schedule(1.0, lambda: None)
    engine.schedule(2.0, lambda: None)
    assert engine.pending_count() == 2
    t1.cancel()
    assert engine.pending_count() == 1


def test_step_executes_single_event(engine):
    fired = []
    engine.schedule(1.0, fired.append, 1)
    engine.schedule(2.0, fired.append, 2)
    assert engine.step() is True
    assert fired == [1]
    assert engine.now == 1.0
    assert engine.step() is True
    assert engine.step() is False


def test_timeout_event(engine):
    ev = engine.timeout(4.0, "done")
    engine.run()
    assert ev.triggered and ev.value == "done"
    assert engine.now == 4.0


def test_determinism_across_identical_engines():
    def build():
        eng = Engine()
        log = []
        for i in range(50):
            eng.schedule((i * 7) % 13, log.append, i)
        eng.run()
        return log

    assert build() == build()
