"""Threads a :class:`FaultPlan` through a live provider + engine.

The injector is deliberately provider-shaped rather than
provider-importing: it drives the ``CloudProvider`` through its public
fault hooks (``fault_victim``, ``crash_node``, ``interrupt_with_notice``)
so this package never imports the cloud layer and the cloud layer can
import this one without a cycle.

One injector serves one simulation: point events (crashes, noticed
interruptions) are posted on the engine at bind time, window events
(provisioning failures/timeouts, capacity shortages) are consulted
synchronously by ``CloudProvider`` on every boot attempt via
:meth:`provision_outcome`.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..errors import FaultPlanError
from ..sim.rng import stream
from .plan import WINDOW_KINDS, FaultEvent, FaultPlan
from .recovery import RetryPolicy

__all__ = ["FaultInjector"]


class _Window:
    """A window entry plus its remaining affected-attempt budget."""

    __slots__ = ("entry", "remaining")

    def __init__(self, entry: FaultEvent):
        self.entry = entry
        self.remaining = entry.count  # None = unlimited

    def matches(self, pool_name: str) -> bool:
        """Whether an attempt on ``pool_name`` inside the window is hit."""
        pool = self.entry.pool
        if pool is not None and pool != pool_name:
            return False
        return self.remaining is None or self.remaining > 0

    def consume(self) -> None:
        if self.remaining is not None:
            self.remaining -= 1


class FaultInjector:
    """Replays one fault plan against one provider/engine pair."""

    def __init__(self, plan: FaultPlan,
                 retry: Optional[RetryPolicy] = None):
        self.plan = plan
        self.retry = RetryPolicy() if retry is None else retry
        self._windows = [_Window(e) for e in plan.entries
                         if e.kind in WINDOW_KINDS]
        #: Windows not yet closed, in start order.  Boot attempts arrive
        #: in time order, so a closed window is dropped for good and the
        #: scan stops at the first window that has not opened.
        self._open = list(self._windows)
        self._last_attempt = float("-inf")
        self._points = [e for e in plan.entries
                        if e.kind not in WINDOW_KINDS]
        self._retry_rng = stream(plan.seed, "faults.retry")
        self._provider = None
        #: Point events that found no live node to strike.
        self.skipped_events = 0

    def bind(self, provider, engine) -> None:
        """Schedule the point events; called once by ``CloudProvider``."""
        if self._provider is not None:
            raise FaultPlanError("fault injector is already bound")
        self._provider = provider
        for entry in self._points:
            engine.post_at(entry.time, self._fire, entry)

    # -- provisioning outcomes -----------------------------------------

    def provision_outcome(
        self, pool, now: float
    ) -> Optional[Tuple[str, float]]:
        """Fate of a boot attempt on ``pool`` at ``now``.

        Returns ``None`` (healthy boot) or ``(kind, delay)`` where
        ``kind`` is ``"fail"``/``"timeout"``/``"shortage"`` and
        ``delay`` is how long the attempt burns before the failure is
        observed.  Windows are consulted in timeline order; the first
        match wins and consumes one unit of its ``count`` budget.
        Attempts must come in time order (``now`` never decreases).
        """
        if now < self._last_attempt:
            raise FaultPlanError(
                f"boot attempt at {now} after one at {self._last_attempt}"
            )
        self._last_attempt = now
        hit = None
        closed = False
        for window in self._open:
            entry = window.entry
            if entry.time > now:
                break  # this window and every later one have not opened
            if entry.end <= now:
                closed = True
            elif window.matches(pool.name):
                hit = window
                break
        if closed:
            self._open = [w for w in self._open if w.entry.end > now]
        if hit is None:
            return None
        hit.consume()
        entry = hit.entry
        if entry.kind == "capacity_shortage":
            return ("shortage", 0.0)
        if entry.kind == "provision_timeout":
            delay = (entry.delay if entry.delay is not None
                     else 3.0 * pool.provision_delay)
            return ("timeout", delay)
        delay = (entry.delay if entry.delay is not None
                 else 0.5 * pool.provision_delay)
        return ("fail", delay)

    def backoff(self, attempt: int) -> float:
        """Deterministic retry delay for the given (0-based) attempt."""
        return self.retry.backoff(attempt, self._retry_rng)

    def window_closings(self) -> List[float]:
        """When degraded-provisioning windows end.

        The simulator wakes itself at these instants so a queue stalled
        behind a shortage re-provisions as soon as capacity returns,
        even if the tick clock has wound down.
        """
        return sorted({w.entry.end for w in self._windows})

    # -- point events ---------------------------------------------------

    def _fire(self, entry: FaultEvent) -> None:
        provider = self._provider
        node = provider.fault_victim(entry.pool)
        if node is None:
            self.skipped_events += 1
            return
        if entry.kind == "node_crash":
            provider.crash_node(node)
        else:
            provider.interrupt_with_notice(node, entry.notice)
