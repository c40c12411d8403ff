"""Streaming-mode memory contract at trace scale (PR 2 satellite).

``retain="metrics"`` claims O(running + queued) memory.  Before PR 2 the
policy engine silently kept every completed :class:`SchedulerJob` in its
``_jobs`` map (and every decision in ``decision_log``), so the claim held
for the simulator's maps but not the engine's.  This test replays a
50k-job synthetic trace and audits the engine's live-record count at
every scheduling event.
"""

import pytest

from repro.schedsim import ScheduleSimulator
from repro.scheduling import REGISTRY
from repro.scheduling.elastic import ElasticPolicyEngine
from repro.workloads import PoissonArrivals, SyntheticWorkload, UniformMix

N_JOBS = 50_000


class AuditingPolicyEngine(ElasticPolicyEngine):
    """Asserts the live-record bound after every submit/complete event."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.max_job_records = 0
        self.max_live_jobs = 0

    def _audit(self):
        live = len(self.running) + len(self.queue)
        records = len(self._jobs)
        self.max_live_jobs = max(self.max_live_jobs, live)
        self.max_job_records = max(self.max_job_records, records)
        # At most one record beyond running+queued may exist: the job
        # whose completion is being folded right now (the simulator
        # retires it immediately after reading its outcome).
        assert records <= live + 1, (
            f"{records} job records for {live} live jobs — completed "
            "records are accumulating instead of being retired"
        )

    def on_submit(self, request, now):
        decisions = super().on_submit(request, now)
        self._audit()
        return decisions

    def on_complete(self, name, now):
        decisions = super().on_complete(name, now)
        self._audit()
        return decisions


@pytest.mark.slow
def test_50k_job_trace_keeps_engine_memory_bounded():
    # Rate 0.02 keeps the cluster in steady state (live set ~tens of
    # jobs), so an O(workload) leak anywhere shows up as a huge margin.
    source = SyntheticWorkload(N_JOBS, PoissonArrivals(0.02), UniformMix(), seed=13)
    simulator = ScheduleSimulator(
        REGISTRY.resolve("elastic"),
        total_slots=256,
        policy_engine_cls=AuditingPolicyEngine,
    )
    result = simulator.run(source.submissions(), retain="metrics")
    policy = simulator.policy

    assert result.metrics.job_count == N_JOBS
    # Every record retired once its outcome was folded.
    assert policy._jobs == {}
    assert policy.running == [] and policy.queue == []
    # The engine never held more than the live set (+1 mid-completion),
    # and the steady-state live set is tiny next to the workload.
    assert policy.max_job_records <= policy.max_live_jobs + 1
    assert 0 < policy.max_live_jobs < 1_000
    # Streaming mode switches the decision log off entirely.
    assert policy.keep_decision_log is False
    assert policy.decision_log == []
    # The simulator's own per-job maps drained too.
    assert simulator._timelines == {} and simulator._submissions == {}
