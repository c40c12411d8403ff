"""Named calibrated datasets for the paper's experiments.

Two consumers:

* the **Figure 4/5/6** drivers use the analytic models directly;
* the **scheduler experiments** (Figures 7–9, Table 1) use the §4.3.1 job
  size table — four problem classes with min/max replicas and timestep
  counts taken verbatim from the paper — with per-class piecewise-linear
  step-time models sampled from the analytic curves at the paper's
  measured replica points, exactly the representation the paper's own
  simulator uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Tuple

from .overhead import RescaleOverheadModel
from .piecewise import PiecewiseLinear, sample_function
from .scaling import JacobiScalingModel, LeanMDScalingModel

__all__ = [
    "JobSizeClass",
    "JOB_SIZE_CLASSES",
    "size_class",
    "fig4_jacobi_models",
    "fig4_leanmd_models",
    "step_time_model",
    "overhead_model",
    "REPLICA_SAMPLE_POINTS",
]

#: Replica counts at which the paper measured strong scaling (Fig 4/5).
REPLICA_SAMPLE_POINTS = (1, 2, 4, 8, 16, 32, 64)


@dataclass(frozen=True)
class JobSizeClass:
    """One row of the §4.3.1 job-size table.

    ``watts_per_replica`` extends the paper's table for the power-capped
    scenario (:mod:`repro.scheduling.power`): nominal per-worker draw,
    growing with the class's per-rank working set.  Not a paper number —
    the paper never meters power — so the default keeps every paper
    experiment byte-identical and only the power-capped policy reads it.
    """

    name: str
    grid: int
    timesteps: int
    min_replicas: int
    max_replicas: int
    watts_per_replica: float = 150.0

    @property
    def model(self) -> JacobiScalingModel:
        return JacobiScalingModel(grid=self.grid)

    @property
    def data_bytes(self) -> int:
        return self.model.data_bytes

    def runtime(self, replicas: int) -> float:
        """Ideal runtime at a fixed replica count (no rescales)."""
        return self.timesteps * self.model.time_per_step(replicas)


#: §4.3.1 verbatim: four Jacobi2D problem classes.
JOB_SIZE_CLASSES: Dict[str, JobSizeClass] = {
    "small": JobSizeClass("small", grid=512, timesteps=40_000,
                          min_replicas=2, max_replicas=8,
                          watts_per_replica=100.0),
    "medium": JobSizeClass("medium", grid=2048, timesteps=40_000,
                           min_replicas=4, max_replicas=16,
                           watts_per_replica=150.0),
    "large": JobSizeClass("large", grid=8192, timesteps=40_000,
                          min_replicas=8, max_replicas=32,
                          watts_per_replica=200.0),
    "xlarge": JobSizeClass("xlarge", grid=16_384, timesteps=10_000,
                           min_replicas=16, max_replicas=64,
                           watts_per_replica=250.0),
}


@lru_cache(maxsize=None)
def size_class(name: str) -> JobSizeClass:
    try:
        return JOB_SIZE_CLASSES[name]
    except KeyError:
        raise KeyError(
            f"unknown size class {name!r}; available: {sorted(JOB_SIZE_CLASSES)}"
        ) from None


def fig4_jacobi_models() -> Dict[int, JacobiScalingModel]:
    """The three grids of Figure 4a."""
    return {n: JacobiScalingModel(grid=n) for n in (2048, 8192, 16_384)}


def fig4_leanmd_models() -> Dict[Tuple[int, int, int], LeanMDScalingModel]:
    """The three cell grids of Figure 4b."""
    return {
        cells: LeanMDScalingModel(cells=cells)
        for cells in ((4, 4, 4), (4, 4, 8), (4, 8, 8))
    }


@lru_cache(maxsize=None)
def step_time_model(cls: JobSizeClass) -> PiecewiseLinear:
    """Piecewise-linear step-time model for one size class.

    Sampled at the paper's measured replica points within the class's
    [min, max] range (plus the boundary points themselves).  Cached per
    (hashable, frozen) size class: the scheduler simulator calls this for
    every job start, and re-sampling the piecewise fit 100k times was
    measurable in trace replay.
    """
    points = sorted(
        {p for p in REPLICA_SAMPLE_POINTS if cls.min_replicas <= p <= cls.max_replicas}
        | {cls.min_replicas, cls.max_replicas}
    )
    return sample_function(lambda p: cls.model.time_per_step(int(round(p))), points)


def overhead_model() -> RescaleOverheadModel:
    """The rescale-overhead model used by the scheduler simulator."""
    return RescaleOverheadModel()
