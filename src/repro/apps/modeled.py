"""Modeled applications: real rescale machinery, modeled iteration time.

The scheduler experiments run 40 000-timestep jobs (§4.3.1); executing
those as real numpy stencils would be absurd, and the paper's own simulator
doesn't either — it models step time with piecewise-linear fits of
measured scaling curves.  :class:`ModeledApp` does the same *inside the
full operator stack*: a sync block takes ``steps × step_time(P)`` of
virtual time, so the driver hops straight to the next sync point where
something can happen (the last block, a disk checkpoint, or a pending
rescale) in a single wait, while rescales still run the genuine
checkpoint → restart → restore protocol, with chare PUP sizes reporting the
nominal problem bytes (so /dev/shm limits and stage costs behave as if the
data were real — without allocating gigabytes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from ..charm import Chare, CharmRuntime
from ..perfmodel.datasets import JobSizeClass, size_class, step_time_model
from ..perfmodel.piecewise import PiecewiseLinear
from .base import CharmApplication

__all__ = ["ModeledApp", "ModeledAppConfig", "ModelChare"]


@dataclass
class ModeledAppConfig:
    """Configuration for a modeled application run.

    ``step_time(P)`` gives seconds per iteration on P replicas;
    ``data_bytes`` is the nominal problem state size that drives rescale
    costs; ``chares`` is the overdecomposition degree.
    """

    name: str
    total_steps: int
    step_time: Callable[[int], float]
    data_bytes: int
    chares: int
    sync_every: int = 10

    @classmethod
    def from_size_class(
        cls,
        size: JobSizeClass,
        sync_every: int = 10,
        overdecomposition: int = 2,
        model: Optional[PiecewiseLinear] = None,
    ) -> "ModeledAppConfig":
        """Build the §4.3.1 workload config for one job size class."""
        pw = model if model is not None else step_time_model(size)
        return cls(
            name=f"modeled-{size.name}",
            total_steps=size.timesteps,
            step_time=lambda p: pw(p),
            data_bytes=size.data_bytes,
            chares=size.max_replicas * overdecomposition,
            sync_every=sync_every,
        )

    @classmethod
    def named(cls, size_name: str, **kwargs) -> "ModeledAppConfig":
        return cls.from_size_class(size_class(size_name), **kwargs)


class ModelChare(Chare):
    """A placeholder chare carrying *virtual* problem bytes.

    ``pup_extra_bytes`` reports the nominal block size so checkpoints,
    migrations, and /dev/shm capacity checks all see the modeled problem
    size.
    """

    def __init__(self, index: int, block_bytes: int):
        super().__init__(index)
        self.block_bytes = int(block_bytes)
        self.blocks_done = 0

    def pup_extra_bytes(self) -> int:
        return self.block_bytes

    def mark_block(self):
        self.blocks_done += 1


class ModeledApp(CharmApplication):
    """Iterates in modeled virtual time, hopping between sync points."""

    def __init__(self, config: ModeledAppConfig, **kwargs):
        kwargs.setdefault("sync_every", config.sync_every)
        kwargs.setdefault("record_iterations", False)
        super().__init__(name=config.name, total_steps=config.total_steps, **kwargs)
        self.config = config
        self.proxy = None

    def setup(self, rts: CharmRuntime) -> None:
        block_bytes = max(1, self.config.data_bytes // self.config.chares)
        self.proxy = rts.create_array(
            ModelChare,
            range(self.config.chares),
            args=(block_bytes,),
            mapping="block",
        )

    def block_seconds(self, rts: CharmRuntime, num_steps: int) -> float:
        return self.config.step_time(rts.num_pes) * num_steps

    def current_step_time(self, rts: CharmRuntime) -> float:
        return self.config.step_time(rts.num_pes)
