"""Policy-engine flatness benchmark: 100k-job churn at 10k-job throughput.

Drives :class:`ElasticPolicyEngine` directly on a synthetic
submit/complete stream that grows an O(n) queue backlog, the regime in
which an unindexed Figure-3 walk goes quadratic.  End-to-end speed is
gated by ``benchmarks/perf_gate.py``; this slow test guards the shape of
the curve, which a fixed-size A/B comparison cannot see.
"""

import time
from random import Random
from typing import List, Sequence

import pytest

from benchmarks.conftest import once
from repro.scheduling import ElasticPolicyEngine, JobRequest
from repro.scheduling.registry import REGISTRY

CHURN_SLOTS = 256


def _churn_workload(n_jobs: int, seed: int) -> List[JobRequest]:
    """A deterministic job stream with mixed sizes and priorities."""
    rng = Random(seed)
    requests = []
    for i in range(n_jobs):
        low = rng.randint(1, 8)
        high = min(low + rng.choice((0, 2, 6, 14, 30)), CHURN_SLOTS)
        requests.append(
            JobRequest(
                name=f"b{i}",
                min_replicas=low,
                max_replicas=high,
                priority=rng.randint(1, 5),
            )
        )
    return requests


def _drive_churn(engine, requests: Sequence[JobRequest]) -> int:
    """Submit 3 jobs per completion so the queue backlog grows to O(n),
    then drain; returns the number of policy events processed."""
    now = 0.0
    events = 0
    for i, request in enumerate(requests):
        now += 240.0  # > default T_rescale_gap: the Figure-3 walk stays hot
        engine.on_submit(request, now)
        events += 1
        if i % 3 == 2 and engine.running:
            now += 240.0
            engine.on_complete(engine.running[0].name, now)
            events += 1
    while engine.running:
        now += 240.0
        engine.on_complete(engine.running[0].name, now)
        events += 1
    return events


def bench_engine_churn(n_jobs: int, seed: int = 7) -> float:
    """Raw policy-engine events/sec on the backlog-growing churn stream."""
    requests = _churn_workload(n_jobs, seed)
    engine = ElasticPolicyEngine(CHURN_SLOTS, REGISTRY.resolve("elastic"))
    engine.keep_decision_log = False
    begin = time.perf_counter()
    events = _drive_churn(engine, requests)
    return events / (time.perf_counter() - begin)


@pytest.mark.slow
def test_engine_churn_100k_holds_10k_throughput(benchmark, save_result):
    """The PR-3 acceptance shape: 100k-job replay at 10k-job throughput.

    Before the indexed shrink-victim/queue-walk structures the engine
    collapsed ~8.5x between 10k and 100k jobs (the Figure-3 walk went
    O(queue) per completion).  The blocked aggregates must keep the two
    within a small constant of each other.
    """
    def measure():
        return bench_engine_churn(10_000), bench_engine_churn(100_000)

    small, large = once(benchmark, measure)
    ratio = small / large
    assert ratio < 2.5, (
        f"100k churn runs {ratio:.1f}x slower per event than 10k — the "
        "indexed walks have regressed towards the pre-PR-3 cliff"
    )
    save_result(
        "policy_engine_100k",
        f"10k: {small:.0f} ev/s, "
        f"100k: {large:.0f} ev/s "
        f"(ratio {ratio:.2f}, must stay < 2.5)",
    )
