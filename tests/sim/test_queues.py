"""Unit tests for the Queue primitive."""

import pytest

from repro.sim import Queue


@pytest.fixture
def queue(engine):
    return Queue(engine, name="q")


def test_put_then_get_immediate(engine, queue):
    queue.put("a")
    ev = queue.get()
    assert ev.triggered and ev.value == "a"


def test_get_blocks_until_put(engine, queue):
    got = []

    def getter():
        item = yield queue.get()
        got.append((item, engine.now))

    engine.process(getter())
    engine.schedule(5.0, queue.put, "x")
    engine.run()
    assert got == [("x", 5.0)]


def test_fifo_order_of_items(engine, queue):
    for item in [1, 2, 3]:
        queue.put(item)
    values = [queue.get().value for _ in range(3)]
    assert values == [1, 2, 3]


def test_fifo_order_of_waiters(engine, queue):
    got = []

    def getter(name):
        item = yield queue.get()
        got.append((name, item))

    engine.process(getter("first"))
    engine.process(getter("second"))
    engine.schedule(1.0, queue.put, "a")
    engine.schedule(2.0, queue.put, "b")
    engine.run()
    assert got == [("first", "a"), ("second", "b")]


def test_len_and_waiting(engine, queue):
    assert len(queue) == 0
    queue.put(1)
    assert len(queue) == 1
    queue.get()
    assert len(queue) == 0
    queue.get()
    assert queue.waiting == 1


def test_drain_and_clear(engine, queue):
    for i in range(4):
        queue.put(i)
    assert queue.drain() == [0, 1, 2, 3]
    for i in range(3):
        queue.put(i)
    assert queue.clear() == 3
    assert len(queue) == 0
