"""Calibration checks: the shape claims the models must satisfy.

The paper's conclusions depend on qualitative relationships, not absolute
seconds.  :func:`verify_shape_claims` asserts every relationship the
evaluation relies on; the test suite runs it, so any re-tuning of
constants that would break a shape claim fails loudly.
"""

from __future__ import annotations

from typing import List

from ..errors import CalibrationError
from .datasets import JOB_SIZE_CLASSES, fig4_jacobi_models, fig4_leanmd_models
from .overhead import RescaleOverheadModel

__all__ = ["verify_shape_claims"]


def verify_shape_claims() -> List[str]:
    """Check every calibrated shape claim; returns the claims verified.

    Raises :class:`CalibrationError` on the first violation.
    """
    verified: List[str] = []

    def claim(ok: bool, text: str) -> None:
        if not ok:
            raise CalibrationError(f"shape claim violated: {text}")
        verified.append(text)

    # Figure 4a: large Jacobi grids scale well; small ones flatten.
    jac = fig4_jacobi_models()
    big = jac[16_384]
    claim(
        big.time_per_step(4) / big.time_per_step(64) > 8.0,
        "Jacobi 16384^2 speeds up >8x from 4 to 64 replicas",
    )
    small = jac[2048]
    claim(
        small.time_per_step(4) / small.time_per_step(64) < 4.0,
        "Jacobi 2048^2 speedup from 4 to 64 replicas is limited (<4x)",
    )
    for model in jac.values():
        times = [model.time_per_step(p) for p in (4, 8, 16, 32, 64)]
        claim(
            all(t0 > t1 for t0, t1 in zip(times, times[1:])),
            f"Jacobi {model.grid}^2 per-step time decreases monotonically to 64",
        )

    # Figure 4b: LeanMD is compute-bound and scales well for all sizes.
    for cells, model in fig4_leanmd_models().items():
        claim(
            model.time_per_step(4) / model.time_per_step(64) > 6.0,
            f"LeanMD {cells} speeds up >6x from 4 to 64 replicas",
        )

    # Figure 5a/5b: restart rises with replicas, checkpoint/restore fall.
    ovh = RescaleOverheadModel()
    data = JOB_SIZE_CLASSES["large"].data_bytes  # the 8k x 8k experiment
    shrinks = [ovh.shrink_to_half(p, data) for p in (4, 8, 16, 32, 60)]
    claim(
        all(a["restart"] < b["restart"] for a, b in zip(shrinks, shrinks[1:])),
        "shrink restart time grows with replica count",
    )
    claim(
        all(a["checkpoint"] > b["checkpoint"] for a, b in zip(shrinks, shrinks[1:])),
        "shrink checkpoint time falls with replica count",
    )
    claim(
        all(a["restore"] > b["restore"] for a, b in zip(shrinks, shrinks[1:])),
        "shrink restore time falls with replica count",
    )

    # Figure 5c: restart flat in problem size; data stages grow with it.
    by_size = [
        ovh.stages(32, 16, (n * n) * 4) for n in (512, 2048, 8192, 32_768)
    ]
    claim(
        len({round(s["restart"], 9) for s in by_size}) == 1,
        "restart time is independent of problem size",
    )
    claim(
        all(a["checkpoint"] < b["checkpoint"] for a, b in zip(by_size, by_size[1:])),
        "checkpoint time grows with problem size",
    )
    claim(
        by_size[0]["restart"] > by_size[0]["checkpoint"] + by_size[0]["restore"],
        "restart dominates the overhead for small problems",
    )
    claim(
        by_size[-1]["checkpoint"] + by_size[-1]["restore"] + by_size[-1]["load_balance"]
        > by_size[-1]["restart"],
        "data stages dominate the overhead for the 4 GB problem",
    )
    # §4.2: in-memory checkpoint+restore stays low even at ~4 GB of data.
    claim(
        by_size[-1]["checkpoint"] + by_size[-1]["restore"] < 2.0,
        "in-memory checkpoint+restore stays under ~2 s for the 4 GB problem",
    )

    # §4.3.1 job classes: ordered by per-step work and state size.  (Total
    # core-seconds are NOT monotone — xlarge runs only 10k steps vs 40k.)
    ordered = [
        JOB_SIZE_CLASSES["small"], JOB_SIZE_CLASSES["medium"],
        JOB_SIZE_CLASSES["large"], JOB_SIZE_CLASSES["xlarge"],
    ]
    claim(
        all(a.data_bytes < b.data_bytes for a, b in zip(ordered, ordered[1:])),
        "job size classes are ordered by problem state size",
    )
    claim(
        all(
            a.model.time_per_step(8) < b.model.time_per_step(8)
            for a, b in zip(ordered, ordered[1:])
        ),
        "job size classes are ordered by per-step time at 8 replicas",
    )
    # Every class benefits from running at max vs min replicas.
    claim(
        all(cls.runtime(cls.max_replicas) < cls.runtime(cls.min_replicas)
            for cls in ordered),
        "every size class runs faster at max_replicas than at min_replicas",
    )
    return verified
