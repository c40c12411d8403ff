"""Generator-based simulation processes.

A process is a Python generator driven by the engine.  The generator yields
*wait requests* and is resumed when they complete:

``yield 5.0``
    Sleep five virtual seconds.

``yield event``
    Wait for an :class:`~repro.sim.events.Event`; the ``yield`` expression
    evaluates to the event's value (or raises its failure exception inside
    the generator, where it can be caught).

``yield other_process``
    Join another process (a :class:`Process` *is* an event that fires with
    the generator's return value).

``yield None``
    Yield control; resume at the same timestamp after pending events.

Processes may be interrupted with :meth:`Process.interrupt`, which raises
:class:`~repro.errors.ProcessKilled` inside the generator at its current
wait point.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from ..errors import ProcessKilled, SimError
from .events import Event

__all__ = ["Process"]


class Process(Event):
    """A running generator coroutine inside the simulation.

    The process itself is an event: it triggers with the generator's return
    value when the generator finishes, or fails with the generator's
    uncaught exception.  Uncaught process failures with no waiters are
    re-raised out of :meth:`Engine.run` to keep bugs loud.
    """

    def __init__(self, engine, generator: Generator, name: Optional[str] = None):
        if not hasattr(generator, "send"):
            raise SimError(
                f"Engine.process() requires a generator, got {type(generator).__name__}"
            )
        super().__init__(engine, name=name or getattr(generator, "__name__", "process"))
        self.generator = generator
        self._waiting_on: Optional[Event] = None
        self._sleep_timer = None
        self._interrupted = False
        # Start the process at the current time, after already-queued events.
        engine.call_soon(self._resume, None, None)

    # ------------------------------------------------------------------
    # Control
    # ------------------------------------------------------------------

    def interrupt(self, reason: str = "interrupted") -> None:
        """Raise :class:`ProcessKilled` inside the generator.

        If the process is sleeping, the sleep timer is cancelled.  If it is
        waiting on an event, the wait is abandoned.  A completed process is
        left untouched.
        """
        if self.triggered:
            return
        self._interrupted = True
        if self._sleep_timer is not None:
            self._sleep_timer.cancel()
            self._sleep_timer = None
        self._waiting_on = None
        self.engine.call_soon(self._resume, None, ProcessKilled(reason))

    # ------------------------------------------------------------------
    # Driver
    # ------------------------------------------------------------------

    def _resume(self, value: Any, exc: Optional[BaseException]) -> None:
        if self.triggered:
            return
        self._sleep_timer = None
        self._waiting_on = None
        try:
            if exc is not None:
                item = self.generator.throw(exc)
            else:
                item = self.generator.send(value)
        except StopIteration as stop:
            self.succeed(getattr(stop, "value", None))
            return
        except ProcessKilled:
            # Process chose not to handle its interruption: treat as a
            # clean cancellation rather than an error.  The re-raised
            # exception's traceback holds this frame, whose ``exc`` holds
            # the exception: drop it, so reference counting frees both.
            exc = None
            self.succeed(None)
            return
        except BaseException as err:  # noqa: BLE001 - deliberate catch-all
            self._fail_loudly(err)
            return
        self._handle_yield(item)

    def _handle_yield(self, item: Any) -> None:
        if item is None:
            self.engine.call_soon(self._resume, None, None)
        elif isinstance(item, (int, float)):
            self._sleep_timer = self.engine.schedule(float(item), self._resume, None, None)
        elif isinstance(item, Event):
            self._waiting_on = item
            item.add_callback(self._on_event)
        else:
            self._fail_loudly(
                SimError(
                    f"process {self.name!r} yielded unsupported value {item!r}; "
                    "expected a delay, an Event, a Process, or None"
                )
            )

    def _on_event(self, ev: Event) -> None:
        if self.triggered or self._waiting_on is not ev:
            return  # stale wakeup after interrupt
        if ev.exception is not None:
            self.engine.call_soon(self._resume, None, ev.exception)
        else:
            self.engine.call_soon(self._resume, ev.value, None)

    def _fail_loudly(self, err: BaseException) -> None:
        if self._callbacks:
            self.fail(err)
        else:
            # No waiter will observe the failure; surface it immediately so
            # simulations never silently swallow bugs.
            raise err

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.triggered else "running"
        return f"<Process {self.name!r} {state}>"
