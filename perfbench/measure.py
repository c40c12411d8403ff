"""Speed-corrected timing: the frozen reference slice and its bookkeeping.

On a shared machine the same Python loop can take twice as long from one
tenth of a second to the next.  The benchmark therefore interleaves its
work with a *frozen reference slice* — a ~3 ms pure-Python loop that
mimics the simulator's mix of a tuple heap, slotted objects and dict
churn, and that no program change can move — and expresses every timing
in units of that slice:

    corrected = raw × (NOMINAL_SLICE_S / reference slice near the timing)

The slices run between work segments, add no simulated event, and their
own time is excluded from the work.  Raw timings are kept as
diagnostics.

Do not edit :func:`reference_slice` or :data:`NOMINAL_SLICE_S`: doing so
rescales every corrected number the benchmark has ever reported.
"""

from __future__ import annotations

import heapq
import math
import statistics
from time import perf_counter
from typing import Dict, List, Sequence

#: Corrected timings are expressed as if every reference slice took this.
NOMINAL_SLICE_S = 3.0e-3

#: Loop trips of one reference slice (~3 ms on a 2020s x86 core).
_SLICE_TRIPS = 2_400

#: Work time between two slices the chunked engine aims for.
TARGET_SEGMENT_S = 0.025

#: The fewest samples a percentile q may be computed from: at least ten
#: samples must lie beyond it (so a p99 needs 1000 samples).
_MIN_BEYOND = 10


class _Entry:
    __slots__ = ("key", "count", "owner")

    def __init__(self, key, count, owner):
        self.key = key
        self.count = count
        self.owner = owner


def reference_slice() -> float:
    """Run the frozen reference loop once; returns its wall time (s)."""
    begin = perf_counter()
    heap: list = []
    table: Dict[int, _Entry] = {}
    total = 0
    for i in range(_SLICE_TRIPS):
        key = (i * 2654435761) & 0xFFFF
        heapq.heappush(heap, (key * 0.5, i, None))
        entry = table.get(key & 255)
        if entry is None:
            table[key & 255] = _Entry(key, 1, "ref")
        else:
            entry.count += 1
            total += entry.key
            if entry.count > 4:
                del table[key & 255]
        if len(heap) > 64:
            total += heapq.heappop(heap)[1]
    if total < 0:  # keeps the loop's result observable
        raise AssertionError("unreachable")
    return perf_counter() - begin


class Meter:
    """Splits timed work into segments, each bracketed by reference slices.

    ``begin()`` runs a slice and opens a segment; ``tick()`` closes the
    open segment, runs a slice, and opens the next; ``end()`` closes the
    last one with a slice.  Only segment time counts as work.  Segments
    of separate ``begin``/``end`` blocks are pooled.
    """

    def __init__(self):
        #: (raw seconds, index of the slice run just before it).
        self.segments: List[tuple] = []
        self.slices: List[float] = []
        self._mark = None
        #: Latency series filled by the timed policy engine.
        self.samples: Dict[str, List[float]] = {"submit": [], "complete": []}
        #: Per-segment end offsets into each latency series.
        self._sample_marks: List[tuple] = []

    def begin(self) -> None:
        self.slices.append(reference_slice())
        self._mark = perf_counter()

    def tick(self) -> float:
        """Close the open segment; returns its raw length (seconds)."""
        seg = perf_counter() - self._mark
        self.segments.append((seg, len(self.slices) - 1))
        self._sample_marks.append(
            tuple(len(series) for series in self.samples.values())
        )
        self.slices.append(reference_slice())
        self._mark = perf_counter()
        return seg

    def end(self) -> None:
        self.tick()
        self._mark = None

    # -- corrected views -------------------------------------------------

    def reference_for(self, before: int) -> float:
        """The reference slice time for the segment after slice ``before``.

        The median of the eight slices nearest the segment (four on each
        side, ~0.2 s of run): it follows the machine's speed phases, while
        one slice that caught an interrupt does not rescale its
        neighbours' work.
        """
        return statistics.median(self.slices[max(0, before - 3): before + 5])

    def scales(self) -> List[float]:
        return [NOMINAL_SLICE_S / self.reference_for(before)
                for _seg, before in self.segments]

    def work_seconds(self) -> float:
        return sum(seg for seg, _ in self.segments)

    def corrected_seconds(self) -> float:
        return sum(seg * scale
                   for (seg, _), scale in zip(self.segments, self.scales()))

    def corrected_samples(self, series: str) -> List[float]:
        """Latency samples of ``series``, each scaled by its segment's
        reference slice."""
        index = list(self.samples).index(series)
        raw = self.samples[series]
        out: List[float] = []
        start = 0
        for marks, scale in zip(self._sample_marks, self.scales()):
            stop = marks[index]
            out.extend(value * scale for value in raw[start:stop])
            start = stop
        return out


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0 < q < 1) by the nearest-rank rule.

    Refuses to read a tail from too few samples: at least ten must lie
    beyond the requested quantile, so a p99 needs 1000 samples.
    """
    n = len(samples)
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must be in (0, 1), got {q}")
    if n * (1.0 - q) < _MIN_BEYOND - 1e-9:
        need = math.ceil(_MIN_BEYOND / (1.0 - q) - 1e-9)
        raise ValueError(f"p{q * 100:g} needs at least {need} samples, got {n}")
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(q * n - 1e-9)) - 1]


def quartiles(values: Sequence[float]) -> tuple:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3
