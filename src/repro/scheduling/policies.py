"""The four scheduling policies of the evaluation (§4.3), as registry
residents.

All four share one implementation — the Figure-2/3 elastic algorithm —
parameterized exactly as the paper emulates them (§4.3.2):

* **elastic** — the real thing.
* **moldable** — "emulated by setting a large T_rescale_gap value to
  prevent the jobs from rescaling after they are launched".
* **rigid-min** (``min_replicas``) — "emulated by setting the same value
  for min_replicas and max_replicas" = the job's minimum.
* **rigid-max** (``max_replicas``) — likewise pinned to the maximum.

Each is a named factory on :data:`repro.scheduling.registry.REGISTRY`
(``paper=True``); the golden decision-log suite pins registry-resolved
configs byte-identical to the frozen reference engine.  Callers resolve
through the registry::

    from repro.scheduling.registry import resolve
    config = resolve("elastic", rescale_gap=90.0)
"""

from __future__ import annotations

import math

from .job import JobRequest
from .policy import PolicyConfig
from .registry import REGISTRY

__all__ = ["DEFAULT_RESCALE_GAP"]

#: The T_rescale_gap used throughout the paper's experiments.
DEFAULT_RESCALE_GAP = 180.0


def _pin_min(request: JobRequest) -> JobRequest:
    return request.with_rigid_replicas(request.min_replicas)


def _pin_max(request: JobRequest) -> JobRequest:
    return request.with_rigid_replicas(request.max_replicas)


@REGISTRY.register(
    "elastic", paper=True, tags=("paper",),
    description="§3.2 priority-based elastic scheduling (the contribution)",
)
def _elastic(
    rescale_gap: float = DEFAULT_RESCALE_GAP,
    launcher_slots: int = 0,
    shrink_filter=None,
) -> PolicyConfig:
    return PolicyConfig(
        name="elastic",
        rescale_gap=rescale_gap,
        launcher_slots=launcher_slots,
        shrink_filter=shrink_filter,
    )


@REGISTRY.register(
    "moldable", paper=True, tags=("paper",),
    description="size chosen at start, never rescaled (T_rescale_gap = inf)",
)
def _moldable(
    rescale_gap: float = DEFAULT_RESCALE_GAP,  # accepted and ignored
    launcher_slots: int = 0,
    shrink_filter=None,
) -> PolicyConfig:
    return PolicyConfig(
        name="moldable",
        rescale_gap=math.inf,
        launcher_slots=launcher_slots,
        shrink_filter=shrink_filter,
    )


@REGISTRY.register(
    "min_replicas", paper=True, tags=("paper", "rigid"),
    description="rigid baseline: every job pinned to its minimum size",
)
def _min_replicas(
    rescale_gap: float = DEFAULT_RESCALE_GAP,
    launcher_slots: int = 0,
    shrink_filter=None,
) -> PolicyConfig:
    return PolicyConfig(
        name="min_replicas",
        rescale_gap=rescale_gap,
        launcher_slots=launcher_slots,
        job_transform=_pin_min,
        shrink_filter=shrink_filter,
    )


@REGISTRY.register(
    "max_replicas", paper=True, tags=("paper", "rigid"),
    description="rigid baseline: every job pinned to its maximum size",
)
def _max_replicas(
    rescale_gap: float = DEFAULT_RESCALE_GAP,
    launcher_slots: int = 0,
    shrink_filter=None,
) -> PolicyConfig:
    return PolicyConfig(
        name="max_replicas",
        rescale_gap=rescale_gap,
        launcher_slots=launcher_slots,
        job_transform=_pin_max,
        shrink_filter=shrink_filter,
    )
