"""Discrete-event simulation engine.

The engine is the substrate for every virtual-time component in this
repository: the Kubernetes cluster, the Charm++ runtime, the operator, and
the scheduler experiments all run as callbacks and generator-based processes
over one shared :class:`Engine`.

Design notes
------------
* Events are ordered by ``(time, sequence)`` so simulations are fully
  deterministic: two events at the same timestamp fire in scheduling order.
* Heap entries are plain tuples ``(time, seq, slot, epoch, fn, args)``:
  ordering resolves by C-level tuple comparison and, because ``seq`` is
  unique, the comparison never reaches the callback fields.  The pre-PR-5
  engine kept a ``Timer`` *object* per entry whose Python ``__lt__`` built
  two tuples per heap comparison — at trace scale that comparison cost,
  not the policy logic, dominated the simulator profile.
* Cancellation is epoch-validated rather than flagged: each cancellable
  timer owns a slot in a free-list-recycled epoch array, and cancelling
  (or rescheduling) bumps the slot's epoch so the stale heap entry is
  recognized and dropped when it surfaces.  Nothing is ever removed from
  the middle of the heap.
* The never-cancelled majority of events (workload arrivals, one-shot
  timeouts) can skip the slot machinery entirely via :meth:`Engine.post`
  / :meth:`Engine.post_at` — no handle, no slot, just the tuple.
* :meth:`Engine.call_soon` is one of them: it posts a plain entry at the
  current time and returns ``None``, so it cannot be cancelled.  Process
  resumptions and event callbacks go through it, and the k8s watch hub
  posts the same plain entries.  A same-instant event that may have to be
  taken back needs ``schedule_at(engine.now, ...)`` instead.
* A live-timer counter makes :meth:`Engine.pending_count` O(1).
* The engine keeps no registry of processes: only its heap entries and
  the events a process waits on reference it, so a finished (or killed)
  process is freed by reference counting, not by the cyclic collector.
* The engine is single-threaded and re-entrant: callbacks may schedule
  further events, create processes, or stop the simulation.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional

from ..errors import SimError, StopSimulation
from ..obs.metrics import active_registry

__all__ = ["Engine", "Timer"]

#: Cohort = all events sharing one timestamp; buckets sized for the
#: schedulers' typical same-instant decision fan-out.
_COHORT_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128)

#: Slot value marking a non-cancellable (plain ``post``) heap entry.
_NO_SLOT = -1


class Timer:
    """Handle for a scheduled callback; supports cancellation.

    Instances are returned by :meth:`Engine.schedule` /
    :meth:`Engine.schedule_at`.  The handle holds ``(slot, epoch)`` into
    the engine's epoch array — it never sits in the heap itself, so
    cancelling is an O(1) epoch bump and the dead entry is dropped lazily
    when it reaches the heap head.
    """

    __slots__ = ("_engine", "slot", "epoch", "time", "seq")

    def __init__(self, engine: "Engine", slot: int, epoch: int, time: float, seq: int):
        self._engine = engine
        self.slot = slot
        self.epoch = epoch
        self.time = time
        self.seq = seq

    @property
    def cancelled(self) -> bool:
        """True once the timer fired, was cancelled, or was rescheduled."""
        return self._engine._slot_epoch[self.slot] != self.epoch

    def cancel(self) -> None:
        """Prevent the callback from firing.  Idempotent."""
        self._engine._cancel_slot(self.slot, self.epoch)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<Timer t={self.time:.6g} seq={self.seq} {state}>"


class Engine:
    """A deterministic discrete-event simulation engine.

    Parameters
    ----------
    start:
        Initial virtual time (seconds).  Defaults to ``0.0``.

    Examples
    --------
    >>> eng = Engine()
    >>> fired = []
    >>> _ = eng.schedule(5.0, fired.append, "hello")
    >>> eng.run()
    5.0
    >>> fired
    ['hello']
    """

    def __init__(self, start: float = 0.0):
        self._now = float(start)
        self._seq = 0
        #: Entries are ``(time, seq, slot, epoch, fn, args)``; ``slot``
        #: is ``_NO_SLOT`` for plain non-cancellable events.
        self._heap: List[tuple] = []
        #: Current epoch per timer slot; an entry whose epoch no longer
        #: matches its slot's is dead.
        self._slot_epoch: List[int] = []
        self._free_slots: List[int] = []
        #: Live (armed, non-cancelled) pending events — O(1) pending_count.
        self._live = 0
        self._running = False
        self._stopped = False
        #: Total events executed over the engine's lifetime (all runs);
        #: the benchmark harness divides this by wall time for events/sec.
        self.events_executed: int = 0
        #: Dead heap entries dropped (cancelled/rescheduled timers that
        #: surfaced at the head); maintained on the rare drop path only.
        self.stale_drops: int = 0
        # Telemetry binds at construction (the zero-overhead contract):
        # with the registry disabled both attributes are None and the hot
        # loop's only cost is one pre-hoisted boolean per event.
        registry = active_registry()
        if registry.enabled:
            self._obs = registry
            self._cohort_hist = registry.histogram(
                "sim.cohort_size", buckets=_COHORT_BUCKETS
            )
        else:
            self._obs = None
            self._cohort_hist = None

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    # ------------------------------------------------------------------
    # Scheduling primitives
    # ------------------------------------------------------------------

    def schedule(self, delay: float, fn: Callable, *args: Any) -> Timer:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimError(f"cannot schedule into the past (delay={delay!r})")
        return self.schedule_at(self._now + delay, fn, *args)

    def schedule_at(self, time: float, fn: Callable, *args: Any) -> Timer:
        """Schedule ``fn(*args)`` at absolute virtual ``time``; cancellable."""
        if time < self._now:
            raise SimError(
                f"cannot schedule into the past (time={time!r} < now={self._now!r})"
            )
        if self._free_slots:
            slot = self._free_slots.pop()
            epoch = self._slot_epoch[slot]
        else:
            slot = len(self._slot_epoch)
            epoch = 0
            self._slot_epoch.append(0)
        time = float(time)
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (time, seq, slot, epoch, fn, args))
        self._live += 1
        return Timer(self, slot, epoch, time, seq)

    def post(self, delay: float, fn: Callable, *args: Any) -> None:
        """Schedule a *non-cancellable* ``fn(*args)`` ``delay`` seconds out.

        The low-allocation fast path for the never-cancelled majority of
        events (workload arrivals, fire-and-forget notifications): no
        :class:`Timer` handle, no epoch slot — just the heap tuple.
        """
        if delay < 0:
            raise SimError(f"cannot schedule into the past (delay={delay!r})")
        self.post_at(self._now + delay, fn, *args)

    def post_at(self, time: float, fn: Callable, *args: Any) -> None:
        """Non-cancellable :meth:`schedule_at` (see :meth:`post`)."""
        if time < self._now:
            raise SimError(
                f"cannot schedule into the past (time={time!r} < now={self._now!r})"
            )
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (float(time), seq, _NO_SLOT, 0, fn, args))
        self._live += 1

    def reschedule_at(self, timer: Timer, time: float, fn: Callable, *args: Any) -> Timer:
        """Atomically cancel ``timer`` and re-arm it at ``time``.

        While the timer is still armed its slot is re-used in place — one
        epoch bump plus one heap push, no handle or slot allocation —
        which is what lets a per-job finish timer be moved on every
        rescale without the cancel/allocate/push churn.  A timer that
        already fired or was cancelled no longer owns its slot, so a
        fresh one is returned instead; callers must keep the returned
        handle either way.
        """
        if time < self._now:
            raise SimError(
                f"cannot schedule into the past (time={time!r} < now={self._now!r})"
            )
        slot = timer.slot
        epoch = timer.epoch
        if self._slot_epoch[slot] != epoch:
            return self.schedule_at(time, fn, *args)
        epoch += 1
        self._slot_epoch[slot] = epoch
        timer.epoch = epoch
        timer.time = time = float(time)
        seq = self._seq
        self._seq = seq + 1
        timer.seq = seq
        heapq.heappush(self._heap, (time, seq, slot, epoch, fn, args))
        # _live is unchanged: one armed entry replaced another.
        return timer

    def call_soon(self, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` at the current time, after the events already
        pending there.  Non-cancellable: a plain :meth:`post_at` entry."""
        self.post_at(self._now, fn, *args)

    def _cancel_slot(self, slot: int, epoch: int) -> None:
        """Invalidate a slot's pending entry and recycle the slot."""
        if self._slot_epoch[slot] == epoch:
            self._slot_epoch[slot] = epoch + 1
            self._free_slots.append(slot)
            self._live -= 1

    # ------------------------------------------------------------------
    # Processes (defined in repro.sim.process; imported lazily to avoid a
    # circular dependency)
    # ------------------------------------------------------------------

    def process(self, generator, name: Optional[str] = None):
        """Start a generator-based process; returns a :class:`Process`.

        The process begins executing at the current virtual time (after any
        already-queued events at this timestamp).
        """
        from .process import Process

        return Process(self, generator, name=name)

    def event(self):
        """Create a fresh one-shot :class:`~repro.sim.events.Event`."""
        from .events import Event

        return Event(self)

    def timeout(self, delay: float, value: Any = None):
        """Return an event that fires ``delay`` seconds from now."""
        from .events import Event

        ev = Event(self)
        self.post(delay, ev.succeed, value)
        return ev

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def peek(self) -> Optional[float]:
        """Time of the next pending event, or ``None`` if the heap is empty."""
        self._drop_cancelled()
        return self._heap[0][0] if self._heap else None

    def step(self) -> bool:
        """Execute the next pending event.  Returns ``False`` when idle."""
        self._drop_cancelled()
        if not self._heap:
            return False
        self._execute_next()
        return True

    def _execute_next(self) -> None:
        """Pop and run the head entry (caller has dropped cancelled heads)."""
        time, _seq, slot, epoch, fn, args = heapq.heappop(self._heap)
        self._now = time
        if slot >= 0:
            # Retire the slot so the handle reads as consumed and the
            # slot can be recycled.
            self._slot_epoch[slot] = epoch + 1
            self._free_slots.append(slot)
        self._live -= 1
        self.events_executed += 1
        fn(*args)

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run until the event heap drains, ``until`` is reached, or stopped.

        Parameters
        ----------
        until:
            Optional virtual-time horizon.  Events scheduled strictly after
            ``until`` are left pending and the clock is advanced to ``until``.
        max_events:
            Optional safety valve for runaway simulations: at most
            ``max_events`` events execute; :class:`SimError` is raised as
            soon as a further live event is due.

        Returns
        -------
        float
            The virtual time when the run ended.
        """
        if self._running:
            raise SimError("Engine.run() is not re-entrant")
        self._running = True
        self._stopped = False
        count = 0
        # The hot loop binds the heap, the epoch array, and the free list
        # once: all three are mutated in place (never rebound) by the
        # scheduling calls that run inside callbacks.
        heap = self._heap
        epochs = self._slot_epoch
        free = self._free_slots
        heappop = heapq.heappop
        bounded = until is not None or max_events is not None
        # Cohort telemetry: with the registry disabled ``track`` is False
        # and the loop pays one local-boolean test per event, nothing more.
        cohort_hist = self._cohort_hist
        track = cohort_hist is not None
        cohort_time = None
        cohort_n = 0
        try:
            while True:
                if self._stopped:
                    break
                # Drop dead heads (epoch mismatch = cancelled/rescheduled).
                while heap:
                    head = heap[0]
                    slot = head[2]
                    if slot < 0 or epochs[slot] == head[3]:
                        break
                    heappop(heap)
                    self.stale_drops += 1
                if not heap:
                    break
                if bounded:
                    if until is not None and head[0] > until:
                        self._now = float(until)
                        break
                    if max_events is not None and count >= max_events:
                        raise SimError(f"exceeded max_events={max_events}")
                time, _seq, slot, epoch, fn, args = heappop(heap)
                self._now = time
                if track:
                    if time == cohort_time:
                        cohort_n += 1
                    else:
                        if cohort_n:
                            cohort_hist.observe(cohort_n)
                        cohort_time = time
                        cohort_n = 1
                if slot >= 0:
                    epochs[slot] = epoch + 1
                    free.append(slot)
                self._live -= 1
                count += 1
                fn(*args)
        except StopSimulation:
            pass
        finally:
            self._running = False
            self.events_executed += count
            if track:
                if cohort_n:
                    cohort_hist.observe(cohort_n)
                obs = self._obs
                obs.gauge("sim.heap_pushes").set(self._seq)
                obs.gauge("sim.stale_drops").set(self.stale_drops)
                obs.gauge("sim.events_executed").set(self.events_executed)
        if until is not None and self._now < until and self.peek() is None:
            # Nothing left to do; advance the clock to the horizon so
            # repeated run(until=...) calls observe monotonic time.
            self._now = float(until)
        return self._now

    def stop(self) -> None:
        """Stop :meth:`run` after the current event completes."""
        self._stopped = True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def pending_count(self) -> int:
        """Number of live (non-cancelled) pending timers.  O(1)."""
        return self._live

    @property
    def heap_pushes(self) -> int:
        """Total heap entries ever pushed (the sequence counter doubles
        as the push count: every entry consumes one sequence number)."""
        return self._seq

    def _drop_cancelled(self) -> None:
        heap = self._heap
        epochs = self._slot_epoch
        while heap:
            head = heap[0]
            slot = head[2]
            if slot < 0 or epochs[slot] == head[3]:
                return
            heapq.heappop(heap)
            self.stale_drops += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Engine now={self._now:.6g} pending={self.pending_count()}>"
