"""Counters, gauges, and histograms with a no-op fast path when disabled.

The observability contract of this repository is *zero overhead when
off*: the blocking perf gate (``benchmarks/perf_gate.py``) runs with
telemetry disabled, so instrumented components must cost nothing
measurable there.  The design that achieves it:

* Components fetch their instruments **once, at construction**, from the
  process-wide active registry (:func:`active_registry`).  A disabled
  registry hands out shared null instruments — or, for hot paths that
  guard with ``if self._obs is not None``, the component stores ``None``
  and the instrumented branch never executes.
* The null instruments are module-level singletons with empty
  ``__slots__``: a disabled histogram allocates **no bucket storage**
  (the property test in ``tests/obs`` pins this).
* Enabling is explicit (:func:`enable`, or the ``REPRO_OBS``
  environment variable) and must happen *before* the components under
  observation are constructed — binding at ``__init__`` is exactly what
  keeps the disabled path branch-free.

Instrument names are dotted (``engine.redistribute_calls``,
``sim.cohort_size``); :meth:`MetricsRegistry.snapshot` flattens the
registry into one plain dict for reports and tests.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "active_registry",
    "enable",
    "disable",
    "OBS_ENV",
]

#: Environment toggle: any value other than empty/``0``/``off`` enables a
#: fresh registry for the whole process at import time.
OBS_ENV = "REPRO_OBS"

#: Default histogram bucket upper bounds (seconds-ish scale); callers
#: instrumenting counts pass their own.
_DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.01, 0.1, 1.0, 10.0, 60.0, 300.0, 3600.0,
)


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """A last-value-wins scalar."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, n: float = 1.0) -> None:
        self.value += n


class Histogram:
    """Fixed-bucket distribution: counts per upper bound plus summary stats.

    ``bounds`` are inclusive upper bounds in increasing order; one
    overflow bucket catches everything above the last bound.
    """

    __slots__ = ("name", "bounds", "bucket_counts", "count", "total", "min", "max")

    def __init__(self, name: str, buckets: Sequence[float] = _DEFAULT_BUCKETS):
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"histogram buckets must strictly increase: {buckets!r}")
        self.name = name
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)  # +1 overflow
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[i] += 1
                return
        self.bucket_counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> Dict:
        return {
            "count": self.count,
            "mean": round(self.mean, 6),
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "buckets": dict(zip([*map(str, self.bounds), "+inf"], self.bucket_counts)),
        }


class _NullCounter:
    """Shared do-nothing counter (also serves as the null gauge)."""

    __slots__ = ()
    name = ""
    value = 0

    def inc(self, n: int = 1) -> None:
        return

    def set(self, value: float) -> None:
        return


class _NullHistogram:
    """Shared do-nothing histogram; allocates no bucket storage."""

    __slots__ = ()
    name = ""
    count = 0
    total = 0.0
    mean = 0.0

    def observe(self, value: float) -> None:
        return

    def as_dict(self) -> Dict:
        return {"count": 0}


NULL_COUNTER = _NullCounter()
NULL_HISTOGRAM = _NullHistogram()


class MetricsRegistry:
    """A named collection of instruments, or a no-op stand-in.

    A disabled registry (``MetricsRegistry(enabled=False)``) returns the
    shared null instruments from every accessor, registers nothing, and
    snapshots empty — the module-level default, so an uninstrumented
    process never pays for telemetry it did not ask for.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = bool(enabled)
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------

    def counter(self, name: str) -> Counter:
        if not self.enabled:
            return NULL_COUNTER  # type: ignore[return-value]
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        if not self.enabled:
            return NULL_COUNTER  # type: ignore[return-value]
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str, buckets: Sequence[float] = _DEFAULT_BUCKETS) -> Histogram:
        if not self.enabled:
            return NULL_HISTOGRAM  # type: ignore[return-value]
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name, buckets)
        return instrument

    # ------------------------------------------------------------------

    def snapshot(self, prefix: Optional[str] = None) -> Dict[str, object]:
        """Every instrument's current value, flattened to one dict.

        ``prefix`` keeps only dotted names starting with it — e.g.
        ``snapshot("faults.")`` isolates the fault-injection counters
        for a report without copying the whole registry.
        """
        out: Dict[str, object] = {}
        for name, counter in self._counters.items():
            out[name] = counter.value
        for name, gauge in self._gauges.items():
            out[name] = gauge.value
        for name, hist in self._histograms.items():
            out[name] = hist.as_dict()
        if prefix is not None:
            out = {k: v for k, v in out.items() if k.startswith(prefix)}
        return out

    def format_lines(self) -> list:
        """Human-readable ``name = value`` lines, sorted by name."""
        lines = []
        for name, value in sorted(self.snapshot().items()):
            if isinstance(value, dict):
                mean = value.get("mean", 0.0)
                lines.append(f"{name} = n={value['count']} mean={mean}")
            else:
                lines.append(f"{name} = {value}")
        return lines

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "enabled" if self.enabled else "disabled"
        n = len(self._counters) + len(self._gauges) + len(self._histograms)
        return f"<MetricsRegistry {state}, {n} instruments>"


#: The process-wide disabled default; :func:`enable` swaps it out.
_DISABLED = MetricsRegistry(enabled=False)
_active = _DISABLED


def active_registry() -> MetricsRegistry:
    """The registry components bind their instruments from at ``__init__``."""
    return _active


def enable(registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Install (and return) an enabled registry as the process-wide active one.

    Must be called before constructing the components to observe: the
    zero-overhead contract binds instruments at construction time.
    """
    global _active
    _active = registry if registry is not None else MetricsRegistry(enabled=True)
    return _active


def disable() -> None:
    """Restore the shared disabled registry (the no-op fast path)."""
    global _active
    _active = _DISABLED


if os.environ.get(OBS_ENV, "").strip().lower() not in ("", "0", "off", "none"):
    enable()
