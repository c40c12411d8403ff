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

Since the variants are data, not code, each is one
:func:`elastic_variant` call naming the :class:`PolicyConfig` fields it
fixes, registered on :data:`repro.scheduling.registry.REGISTRY`
(``paper=True``); the spec diff (``tests/scheduling/test_spec.py``)
pins registry-resolved configs byte-identical to the executable spec.
The module also
registers the two §3.2.2 extensions as non-paper policies: ``aging``
(aging priorities, with keywords of its own) and ``preemptive``
(checkpoint-to-disk preemption, one more variant).  Callers resolve
through the registry::

    from repro.scheduling.registry import resolve
    config = resolve("elastic", rescale_gap=90.0)
"""

from __future__ import annotations

import math

from .job import JobRequest
from .policy import Aging, PolicyConfig
from .registry import REGISTRY

__all__ = ["DEFAULT_RESCALE_GAP", "elastic_variant"]

#: The T_rescale_gap used throughout the paper's experiments.
DEFAULT_RESCALE_GAP = 180.0


def _pin_min(request: JobRequest) -> JobRequest:
    return request.with_rigid_replicas(request.min_replicas)


def _pin_max(request: JobRequest) -> JobRequest:
    return request.with_rigid_replicas(request.max_replicas)


def elastic_variant(name: str, *, description: str, tags=(), paper=False,
                    **fixed):
    """Register ``name`` as the elastic algorithm with ``fixed`` fields.

    The registered factory takes the shared keywords (``rescale_gap``,
    ``launcher_slots``, ``shrink_filter``) and returns
    ``PolicyConfig(name=name, ...)``.  A field in ``fixed`` wins over the
    keyword of the same name: moldable fixes ``rescale_gap=math.inf``,
    so the gap it is passed is accepted and ignored.
    """

    def factory(
        rescale_gap: float = DEFAULT_RESCALE_GAP,
        launcher_slots: int = 0,
        shrink_filter=None,
    ) -> PolicyConfig:
        fields = dict(rescale_gap=rescale_gap, launcher_slots=launcher_slots,
                      shrink_filter=shrink_filter)
        fields.update(fixed)
        return PolicyConfig(name=name, **fields)

    factory.__name__ = factory.__qualname__ = f"_{name}"
    return REGISTRY.register(name, factory, description=description,
                             tags=tags, paper=paper)


elastic_variant(
    "elastic", paper=True, tags=("paper",),
    description="§3.2 priority-based elastic scheduling (the contribution)",
)
elastic_variant(
    "moldable", paper=True, tags=("paper",), rescale_gap=math.inf,
    description="size chosen at start, never rescaled (T_rescale_gap = inf)",
)
elastic_variant(
    "min_replicas", paper=True, tags=("paper", "rigid"), job_transform=_pin_min,
    description="rigid baseline: every job pinned to its minimum size",
)
elastic_variant(
    "max_replicas", paper=True, tags=("paper", "rigid"), job_transform=_pin_max,
    description="rigid baseline: every job pinned to its maximum size",
)


@REGISTRY.register(
    "aging", tags=("extension",),
    description="§3.2.2 aging priorities: a waiting job gains one "
                "priority level per interval, up to a cap",
)
def _aging(
    rescale_gap: float = DEFAULT_RESCALE_GAP,
    launcher_slots: int = 0,
    shrink_filter=None,
    aging_interval: float = 600.0,
    max_priority: int = 10,
) -> PolicyConfig:
    return PolicyConfig(
        name="aging",
        rescale_gap=rescale_gap,
        launcher_slots=launcher_slots,
        shrink_filter=shrink_filter,
        priority=Aging(interval=aging_interval, max_priority=max_priority),
    )


elastic_variant(
    "preemptive", tags=("extension",), preempt=True,
    description="§3.2.2 job preemption: lower-priority jobs checkpoint "
                "to disk to make room for a waiting arrival",
)
