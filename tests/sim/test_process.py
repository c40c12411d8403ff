"""Unit tests for generator-based processes."""

import gc
import weakref

import pytest

from repro.errors import ProcessKilled, SimError
from repro.sim import Engine


def test_process_sleeps_for_yielded_delay(engine):
    log = []

    def proc():
        log.append(engine.now)
        yield 5.0
        log.append(engine.now)

    engine.process(proc())
    engine.run()
    assert log == [0.0, 5.0]


def test_process_return_value_becomes_event_value(engine):
    def proc():
        yield 1.0
        return "result"

    p = engine.process(proc())
    engine.run()
    assert p.triggered and p.value == "result"


def test_process_waits_on_event(engine):
    ev = engine.event()

    def proc():
        got = yield ev
        return got

    p = engine.process(proc())
    engine.schedule(3.0, ev.succeed, "payload")
    engine.run()
    assert p.value == "payload"
    assert engine.now == 3.0


def test_process_waits_on_already_triggered_event(engine):
    ev = engine.event()
    ev.succeed("early")

    def proc():
        got = yield ev
        return got

    p = engine.process(proc())
    engine.run()
    assert p.value == "early"


def test_process_joins_child_process(engine):
    def child():
        yield 4.0
        return "child-done"

    def parent():
        result = yield engine.process(child())
        return result

    p = engine.process(parent())
    engine.run()
    assert p.value == "child-done"
    assert engine.now == 4.0


def test_yield_none_resumes_same_timestamp(engine):
    times = []

    def proc():
        times.append(engine.now)
        yield None
        times.append(engine.now)

    engine.process(proc())
    engine.run()
    assert times == [0.0, 0.0]


def test_failed_event_raises_inside_generator(engine):
    ev = engine.event()
    caught = []

    def proc():
        try:
            yield ev
        except RuntimeError as err:
            caught.append(str(err))

    engine.process(proc())
    engine.schedule(1.0, ev.fail, RuntimeError("boom"))
    engine.run()
    assert caught == ["boom"]


def test_uncaught_exception_with_waiter_fails_event(engine):
    def bad():
        yield 1.0
        raise ValueError("oops")

    def parent():
        try:
            yield engine.process(bad())
        except ValueError:
            return "handled"

    p = engine.process(parent())
    engine.run()
    assert p.value == "handled"


def test_uncaught_exception_without_waiter_raises_loudly(engine):
    def bad():
        yield 1.0
        raise ValueError("oops")

    engine.process(bad())
    with pytest.raises(ValueError, match="oops"):
        engine.run()


def test_interrupt_sleeping_process(engine):
    log = []

    def sleeper():
        try:
            yield 100.0
        except ProcessKilled:
            log.append(("killed", engine.now))

    p = engine.process(sleeper())
    engine.schedule(2.0, p.interrupt)
    engine.run()
    assert log == [("killed", 2.0)]
    assert p.triggered


def test_interrupt_waiting_process_abandons_event(engine):
    ev = engine.event()
    log = []

    def waiter():
        try:
            yield ev
        except ProcessKilled:
            log.append("killed")
            return
        log.append("woke")

    p = engine.process(waiter())
    engine.schedule(1.0, p.interrupt)
    engine.schedule(2.0, ev.succeed, "late")
    engine.run()
    assert log == ["killed"]


def test_interrupt_completed_process_is_noop(engine):
    def quick():
        yield 1.0

    p = engine.process(quick())
    engine.run()
    p.interrupt()  # must not raise
    engine.run()


def test_unhandled_interrupt_completes_quietly(engine):
    def sleeper():
        yield 100.0

    p = engine.process(sleeper())
    engine.schedule(1.0, p.interrupt)
    engine.run()
    assert p.triggered and p.value is None


def test_yielding_garbage_raises(engine):
    def bad():
        yield object()

    engine.process(bad())
    with pytest.raises(SimError, match="unsupported"):
        engine.run()


def test_process_requires_generator(engine):
    with pytest.raises(SimError):
        engine.process(lambda: None)


def test_nested_yield_from(engine):
    def inner():
        yield 2.0
        return 10

    def outer():
        val = yield from inner()
        yield 3.0
        return val + 1

    p = engine.process(outer())
    engine.run()
    assert p.value == 11
    assert engine.now == 5.0


def test_two_processes_interleave_deterministically(engine):
    log = []

    def ticker(name, period):
        for _ in range(3):
            yield period
            log.append((name, engine.now))

    engine.process(ticker("a", 2.0))
    engine.process(ticker("b", 3.0))
    engine.run()
    # At t=6 both tick; "b" scheduled its wakeup earlier (at t=3 vs t=4),
    # so it deterministically fires first.
    assert log == [
        ("a", 2.0),
        ("b", 3.0),
        ("a", 4.0),
        ("b", 6.0),
        ("a", 6.0),
        ("b", 9.0),
    ]


def test_interrupted_process_leaves_no_cyclic_garbage():
    # The killed generator's re-raised ProcessKilled holds a traceback
    # whose frames must not hold the exception back: reference counting
    # frees the process, its exception and its frames.
    def sleeper():
        yield 10.0

    gc.collect()
    gc.disable()
    try:
        eng = Engine()
        proc = eng.process(sleeper())
        eng.run(until=1.0)
        proc.interrupt()
        eng.run()
        assert proc.triggered
        del proc, eng
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_engine_keeps_no_finished_process_alive():
    def sleeper():
        yield 1.0

    gc.collect()
    gc.disable()
    try:
        eng = Engine()
        proc = eng.process(sleeper())
        alive = weakref.ref(proc)
        eng.run()
        assert proc.triggered
        del proc
        assert alive() is None
    finally:
        gc.enable()
