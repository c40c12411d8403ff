"""Composable synthetic workload generators.

A synthetic workload is the product of two independent choices: *when*
jobs arrive (an :class:`ArrivalProcess`) and *what* each job looks like
(a :class:`JobMix`).  The paper's §4.3.1 draw is one point in this space
(fixed-gap arrivals x uniform mix); this module adds Poisson, diurnal,
and bursty arrival processes and a heavy-tailed mix, all deterministic
under a fixed seed via the repo's named RNG streams.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import SchedulingError
from ..perfmodel.datasets import JOB_SIZE_CLASSES, JobSizeClass
from ..schedsim.workload import Submission
from ..sim.rng import stream
from .base import make_request

#: Jobs drawn per vectorized RNG call in the chunked generation paths —
#: large enough to amortize the per-call NumPy overhead, small enough
#: that lazy sources keep their O(1)-ish memory profile.
_DRAW_CHUNK = 1024

__all__ = [
    "ArrivalProcess",
    "FixedGapArrivals",
    "PoissonArrivals",
    "DiurnalArrivals",
    "BurstyArrivals",
    "JobMix",
    "UniformMix",
    "WeightedMix",
    "HeavyTailedMix",
    "SyntheticWorkload",
]


# ----------------------------------------------------------------------
# Arrival processes
# ----------------------------------------------------------------------


class ArrivalProcess:
    """Generates non-decreasing arrival times for ``n`` jobs."""

    def times(self, rng, n: int) -> Iterator[float]:
        raise NotImplementedError

    def describe(self) -> str:
        return type(self).__name__


class FixedGapArrivals(ArrivalProcess):
    """The paper's cadence: one job every ``gap`` seconds (Figure 7)."""

    def __init__(self, gap: float = 90.0):
        if not 0 <= gap < math.inf:
            raise SchedulingError(f"gap must be non-negative, got {gap}")
        self.gap = float(gap)

    def times(self, rng, n: int) -> Iterator[float]:  # noqa: ARG002
        for i in range(n):
            yield i * self.gap

    def describe(self) -> str:
        return f"fixed(gap={self.gap:g}s)"


class PoissonArrivals(ArrivalProcess):
    """Memoryless arrivals at ``rate`` jobs/second (exponential gaps)."""

    def __init__(self, rate: float):
        if not 0 < rate < math.inf:
            raise SchedulingError(f"rate must be positive, got {rate}")
        self.rate = float(rate)

    def times(self, rng, n: int) -> Iterator[float]:
        # Chunked draws: one vectorized exponential per _DRAW_CHUNK jobs
        # instead of a ~1µs scalar Generator call per arrival.  NumPy's
        # vectorized sampling consumes the bit stream element-by-element,
        # so the yielded times are identical to the scalar loop's.
        t = 0.0
        scale = 1.0 / self.rate
        remaining = n
        while remaining > 0:
            k = _DRAW_CHUNK if remaining > _DRAW_CHUNK else remaining
            for gap in rng.exponential(scale, size=k):
                t += float(gap)
                yield t
            remaining -= k

    def describe(self) -> str:
        return f"poisson(rate={self.rate:g}/s)"


class DiurnalArrivals(ArrivalProcess):
    """Non-homogeneous Poisson with a sinusoidal day/night cycle.

    Instantaneous rate ``λ(t) = rate * (1 + amplitude * sin(2πt/period))``
    sampled by Lewis–Shedler thinning against the peak rate, so nights
    are quiet and the midday peak is up to ``(1 + amplitude)`` times the
    mean — the shape of real cluster submission logs.
    """

    def __init__(self, rate: float, amplitude: float = 0.8,
                 period: float = 86_400.0):
        if not 0 < rate < math.inf:
            raise SchedulingError(f"rate must be positive, got {rate}")
        if not 0.0 <= amplitude < 1.0:
            raise SchedulingError("amplitude must be in [0, 1)")
        if not 0 < period < math.inf:
            raise SchedulingError("period must be positive")
        self.rate = float(rate)
        self.amplitude = float(amplitude)
        self.period = float(period)

    def _rate_at(self, t: float) -> float:
        return self.rate * (
            1.0 + self.amplitude * math.sin(2.0 * math.pi * t / self.period)
        )

    def times(self, rng, n: int) -> Iterator[float]:
        peak = self.rate * (1.0 + self.amplitude)
        t = 0.0
        produced = 0
        while produced < n:
            t += float(rng.exponential(1.0 / peak))
            if float(rng.random()) * peak <= self._rate_at(t):
                produced += 1
                yield t

    def describe(self) -> str:
        return (f"diurnal(rate={self.rate:g}/s, amp={self.amplitude:g}, "
                f"period={self.period:g}s)")


class BurstyArrivals(ArrivalProcess):
    """Arrivals in tight bursts separated by long idle stretches.

    Bursts of ``burst_size`` jobs arrive ``intra_gap`` apart; burst
    starts are spaced by exponential idle periods of mean ``burst_gap``.
    Models campaign-style submission (parameter sweeps, array jobs).
    """

    def __init__(self, burst_size: int = 8, burst_gap: float = 1_800.0,
                 intra_gap: float = 5.0):
        if burst_size < 1:
            raise SchedulingError("burst_size must be >= 1")
        if not (0 < burst_gap < math.inf and 0 <= intra_gap < math.inf):
            raise SchedulingError("burst_gap must be > 0 and intra_gap >= 0")
        self.burst_size = int(burst_size)
        self.burst_gap = float(burst_gap)
        self.intra_gap = float(intra_gap)

    def times(self, rng, n: int) -> Iterator[float]:
        t = 0.0
        produced = 0
        while produced < n:
            t += float(rng.exponential(self.burst_gap))
            for k in range(min(self.burst_size, n - produced)):
                produced += 1
                yield t + k * self.intra_gap
            t += (self.burst_size - 1) * self.intra_gap

    def describe(self) -> str:
        return (f"bursty(size={self.burst_size}, gap={self.burst_gap:g}s, "
                f"intra={self.intra_gap:g}s)")


# ----------------------------------------------------------------------
# Job mixes
# ----------------------------------------------------------------------


class JobMix:
    """Draws (size class, priority, timesteps) for one job."""

    def sample(self, rng) -> Tuple[JobSizeClass, int, int]:
        raise NotImplementedError

    def sample_many(self, rng, n: int) -> List[Tuple[JobSizeClass, int, int]]:
        """Draw ``n`` jobs at once.

        The default delegates to :meth:`sample` (identical stream
        consumption); mixes with simple per-field distributions override
        it with vectorized draws — note an override consumes the RNG
        field-by-field rather than job-by-job, so its stream differs
        from ``n`` scalar :meth:`sample` calls while the per-job
        distribution is the same.
        """
        return [self.sample(rng) for _ in range(n)]

    def describe(self) -> str:
        return type(self).__name__


class UniformMix(JobMix):
    """The paper's mix: uniform size classes, uniform 1..5 priority."""

    def __init__(
        self,
        size_names: Sequence[str] = ("small", "medium", "large", "xlarge"),
        priority_range: Tuple[int, int] = (1, 5),
    ):
        self.sizes = [JOB_SIZE_CLASSES[name] for name in size_names]
        self.priority_range = priority_range

    def sample(self, rng) -> Tuple[JobSizeClass, int, int]:
        size = self.sizes[int(rng.integers(len(self.sizes)))]
        lo, hi = self.priority_range
        return size, int(rng.integers(lo, hi + 1)), size.timesteps

    def sample_many(self, rng, n: int) -> List[Tuple[JobSizeClass, int, int]]:
        sizes = self.sizes
        lo, hi = self.priority_range
        picks = rng.integers(len(sizes), size=n)
        priorities = rng.integers(lo, hi + 1, size=n)
        out = []
        for pick, priority in zip(picks.tolist(), priorities.tolist()):
            size = sizes[pick]
            out.append((size, priority, size.timesteps))
        return out

    def describe(self) -> str:
        return f"uniform({', '.join(s.name for s in self.sizes)})"


class WeightedMix(JobMix):
    """Size classes drawn with explicit weights."""

    def __init__(self, weights: Dict[str, float],
                 priority_range: Tuple[int, int] = (1, 5)):
        if not weights:
            raise SchedulingError("WeightedMix needs at least one size class")
        self.sizes = [JOB_SIZE_CLASSES[name] for name in weights]
        total = float(sum(weights.values()))
        if total <= 0:
            raise SchedulingError("mix weights must sum to a positive value")
        self.probabilities = [w / total for w in weights.values()]
        self.priority_range = priority_range

    def sample(self, rng) -> Tuple[JobSizeClass, int, int]:
        index = int(rng.choice(len(self.sizes), p=self.probabilities))
        size = self.sizes[index]
        lo, hi = self.priority_range
        return size, int(rng.integers(lo, hi + 1)), size.timesteps

    def describe(self) -> str:
        pairs = ", ".join(
            f"{s.name}={p:.2f}" for s, p in zip(self.sizes, self.probabilities)
        )
        return f"weighted({pairs})"


class HeavyTailedMix(JobMix):
    """Mostly small jobs with a heavy tail of long, large ones.

    Size-class ranks are weighted ``1/rank^alpha`` (small dominates) and
    each job's duration is stretched by a Pareto-distributed factor
    clamped to ``max_stretch``, giving the few large jobs dispropor-
    tionately long runtimes — the defining feature of production HPC
    workloads the paper's uniform draw cannot express.
    """

    def __init__(self, alpha: float = 1.5, tail_index: float = 1.2,
                 max_stretch: float = 8.0,
                 priority_range: Tuple[int, int] = (1, 5)):
        if alpha <= 0 or tail_index <= 0 or max_stretch < 1.0:
            raise SchedulingError(
                "alpha and tail_index must be positive, max_stretch >= 1"
            )
        self.sizes = sorted(
            JOB_SIZE_CLASSES.values(), key=lambda c: c.max_replicas
        )
        weights = [1.0 / (rank + 1) ** alpha for rank in range(len(self.sizes))]
        total = sum(weights)
        self.probabilities = [w / total for w in weights]
        self.tail_index = float(tail_index)
        self.max_stretch = float(max_stretch)
        self.priority_range = priority_range

    def sample(self, rng) -> Tuple[JobSizeClass, int, int]:
        index = int(rng.choice(len(self.sizes), p=self.probabilities))
        size = self.sizes[index]
        stretch = min(1.0 + float(rng.pareto(self.tail_index)), self.max_stretch)
        lo, hi = self.priority_range
        steps = max(1, int(round(size.timesteps * stretch)))
        return size, int(rng.integers(lo, hi + 1)), steps

    def describe(self) -> str:
        return (f"heavy-tailed(tail={self.tail_index:g}, "
                f"max_stretch={self.max_stretch:g})")


# ----------------------------------------------------------------------
# The composed source
# ----------------------------------------------------------------------


class SyntheticWorkload:
    """Arrival process x job mix = one reproducible workload source.

    Arrival times and job draws come from independent named RNG streams
    derived from ``seed``, so changing the mix never perturbs the
    arrival pattern (and vice versa) — paired comparisons stay paired.
    """

    def __init__(
        self,
        num_jobs: int,
        arrivals: Optional[ArrivalProcess] = None,
        mix: Optional[JobMix] = None,
        seed: int = 0,
        name_prefix: str = "job",
    ):
        if num_jobs < 1:
            raise SchedulingError(f"num_jobs must be >= 1, got {num_jobs}")
        self.num_jobs = int(num_jobs)
        self.arrivals = arrivals or FixedGapArrivals()
        self.mix = mix or UniformMix()
        self.seed = int(seed)
        self.name_prefix = name_prefix
        self.name = (f"synthetic({self.arrivals.describe()} x "
                     f"{self.mix.describe()}, jobs={num_jobs}, seed={seed})")

    def __len__(self) -> int:
        return self.num_jobs

    def submissions(self) -> Iterator[Submission]:
        arrival_rng = stream(self.seed, "workloads-arrivals")
        mix_rng = stream(self.seed, "workloads-mix")
        n = self.num_jobs
        width = max(2, len(str(n - 1)))
        prefix = self.name_prefix
        times = self.arrivals.times(arrival_rng, n)
        sample_many = self.mix.sample_many
        i = 0
        # Chunked draws keep the source lazy (memory stays O(chunk), not
        # O(workload)) while amortizing the per-draw RNG call overhead.
        while i < n:
            k = _DRAW_CHUNK if n - i > _DRAW_CHUNK else n - i
            for size, priority, steps in sample_many(mix_rng, k):
                request = make_request(
                    name=f"{prefix}-{i:0{width}d}",
                    size=size,
                    priority=priority,
                    timesteps=steps,
                )
                yield Submission(time=next(times), request=request, size=size)
                i += 1
