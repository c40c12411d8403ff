"""Parameter sweeps: the Figure 7 and Figure 8 experiments.

A sweep is a policies x values x trials grid of independent simulations
(Figure 7 at the paper's scale is 4 x 7 x 100 = 2800 runs).  With
``workers`` > 1 the grid is flattened into one task list and fanned out
across a process pool (:mod:`repro.workloads.parallel`); per-cell
averages are computed from the pool results in the same trial order the
serial loop uses, so both paths return identical statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from .experiment import DEFAULT_TRIALS, TrialStats, run_grid

__all__ = [
    "SweepResult",
    "sweep_submission_gap",
    "sweep_rescale_gap",
    "FIG7_SUBMISSION_GAPS",
    "FIG8_RESCALE_GAPS",
    "POLICY_ORDER",
]

#: The paper's presentation order for its four policies.  The figure
#: sweeps default to it (they reproduce the paper); anything listing
#: *available* policies should ask ``registry.list_policies()`` instead.
POLICY_ORDER = ("elastic", "moldable", "min_replicas", "max_replicas")

#: Figure 7 sweeps the gap between consecutive submissions from 0 to 300 s.
FIG7_SUBMISSION_GAPS = (0.0, 50.0, 100.0, 150.0, 200.0, 250.0, 300.0)

#: Figure 8 sweeps T_rescale_gap from 0 to 1200 s at a 180 s submission gap.
FIG8_RESCALE_GAPS = (0.0, 200.0, 400.0, 600.0, 800.0, 1000.0, 1200.0)


@dataclass
class SweepResult:
    """Metric series per policy over one swept parameter."""

    parameter: str
    values: List[float]
    stats: Dict[str, List[TrialStats]] = field(default_factory=dict)

    def series(self, policy: str, metric: str) -> List[tuple]:
        """(x, metric) pairs for one policy — one plotted line."""
        return [
            (x, getattr(s, metric))
            for x, s in zip(self.values, self.stats[policy])
        ]

    def policies(self) -> List[str]:
        """Swept policies: paper order first, then registration order.

        Registry-backed (not pinned to the paper tuple) so sweeping a
        new registration — ``easy-backfill``, a plugin's policy — shows
        up in figure legends and CLI tables automatically.
        """
        from ..scheduling.registry import REGISTRY

        known = list(POLICY_ORDER) + [
            p for p in REGISTRY.list_policies() if p not in POLICY_ORDER
        ]
        ordered = [p for p in known if p in self.stats]
        ordered.extend(p for p in self.stats if p not in known)
        return ordered


def _run_grid(
    parameter: str,
    cells: List[tuple],  # (policy, submission_gap, rescale_gap)
    values: Sequence[float],
    trials: int,
    workers: Optional[int],
    **kwargs,
) -> SweepResult:
    """Run every (cell, trial) simulation and fold into a SweepResult.

    The whole grid is one :func:`~repro.schedsim.experiment.run_grid`
    call: trials already in the content-addressed cache (``cache=`` or
    ``REPRO_SWEEP_CACHE``) are answered from disk and only the misses
    fan out — so re-running an identical sweep is near-free and editing
    one grid value re-simulates only that cell's trials.
    """
    result = SweepResult(parameter=parameter, values=list(values))
    for stats in run_grid(cells, trials, workers=workers, **kwargs):
        result.stats.setdefault(stats.policy, []).append(stats)
    return result


def sweep_submission_gap(
    gaps: Sequence[float] = FIG7_SUBMISSION_GAPS,
    rescale_gap: float = 180.0,
    trials: int = DEFAULT_TRIALS,
    policies: Sequence[str] = POLICY_ORDER,
    workers: Optional[int] = None,
    **kwargs,
) -> SweepResult:
    """Figure 7: metrics vs job submission rate (T_rescale_gap = 180 s)."""
    cells = [(policy, gap, rescale_gap) for policy in policies for gap in gaps]
    return _run_grid("submission_gap", cells, gaps, trials, workers, **kwargs)


def sweep_rescale_gap(
    gaps: Sequence[float] = FIG8_RESCALE_GAPS,
    submission_gap: float = 180.0,
    trials: int = DEFAULT_TRIALS,
    policies: Sequence[str] = POLICY_ORDER,
    workers: Optional[int] = None,
    **kwargs,
) -> SweepResult:
    """Figure 8: metrics vs T_rescale_gap (submission gap = 180 s).

    Note the moldable/rigid baselines do not depend on T_rescale_gap by
    construction (moldable uses ∞; rigid jobs cannot rescale), so their
    lines are flat — exactly as in the paper's Figure 8.
    """
    cells = [(policy, submission_gap, gap) for policy in policies for gap in gaps]
    return _run_grid("rescale_gap", cells, gaps, trials, workers, **kwargs)
