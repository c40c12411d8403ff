"""Tests for the literature schedulers: ewt, prb, and EASY backfilling.

The priority rules are checked as pure functions and as queue-ordering
behaviour on a live engine; EASY gets deterministic admit/reject cases
plus the hypothesis property the design guarantees: under moldable
sizing (exact runtime estimates) a backfilled start never delays the
reserved queue head past its recorded reservation.
"""

import dataclasses
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.scheduling import ElasticPolicyEngine, JobRequest, StaticPriority
from repro.scheduling.literature import (
    DEFAULT_RUNTIME_ESTIMATE,
    EasyBackfill,
    estimate_runtime,
    ewt_priority,
    prb_priority,
)
from repro.scheduling.registry import REGISTRY
from repro.schedsim import ScheduleSimulator, WorkloadSpec, generate_workload


def est_req(name, min_r, max_r, est, priority=1):
    """A request whose runtime estimate comes from params['est_runtime']."""
    return JobRequest(
        name=name, min_replicas=min_r, max_replicas=max_r,
        priority=priority, params={"est_runtime": est},
    )


class TestEstimateRuntime:
    def test_size_class_estimate_matches_simulator_model(self):
        from repro.perfmodel.datasets import size_class, step_time_model

        cls = size_class("medium")
        request = JobRequest(
            name="m", min_replicas=cls.min_replicas,
            max_replicas=cls.max_replicas, params={"size_class": "medium"},
        )
        expected = cls.timesteps * step_time_model(cls)(cls.min_replicas)
        assert estimate_runtime(request, cls.min_replicas) == expected

    def test_replicas_clamped_to_class_range(self):
        request = JobRequest(
            name="m", min_replicas=1, max_replicas=512,
            params={"size_class": "small"},
        )
        assert estimate_runtime(request, 10_000) == estimate_runtime(request, 64)

    def test_est_runtime_param_fallback(self):
        assert estimate_runtime(est_req("a", 1, 4, 123.0), 2) == 123.0

    def test_default_fallback(self):
        request = JobRequest(name="a", min_replicas=1, max_replicas=4)
        assert estimate_runtime(request, 2) == DEFAULT_RUNTIME_ESTIMATE


class TestPriorityRules:
    def test_ewt_prefers_less_estimated_work(self):
        short = est_req("s", 2, 4, 100.0)
        long = est_req("l", 2, 4, 10_000.0)
        assert ewt_priority(short) > ewt_priority(long)

    def test_prb_user_priority_dominates_in_the_modeled_range(self):
        # §4.3.1 runtimes span roughly 600–3600 s; across that range the
        # 2-per-level priority weight outweighs the log-scaled terms.
        humble = est_req("h", 2, 4, 600.0, priority=1)
        urgent = est_req("u", 2, 4, 3_600.0, priority=5)
        assert prb_priority(urgent) > prb_priority(humble)

    def test_prb_breaks_priority_ties_toward_short_and_narrow(self):
        short = est_req("s", 2, 4, 60.0, priority=3)
        long = est_req("l", 2, 4, 6_000.0, priority=3)
        narrow = est_req("n", 2, 4, 60.0, priority=3)
        wide = est_req("w", 16, 32, 60.0, priority=3)
        assert prb_priority(short) > prb_priority(long)
        assert prb_priority(narrow) > prb_priority(wide)

    def test_ewt_reorders_the_engine_queue(self):
        engine = ElasticPolicyEngine(4, REGISTRY.resolve("ewt"))
        engine.on_submit(est_req("filler", 4, 4, 10_000.0), 0.0)
        engine.on_submit(est_req("long", 1, 1, 9_000.0), 1.0)
        engine.on_submit(est_req("short", 1, 1, 10.0), 2.0)
        # Despite submitting later, the short job outranks the long one.
        assert [j.name for j in engine.queue] == ["short", "long"]

    def test_figure_2_compares_effective_priorities(self):
        """Under ewt the shrink walk ranks by estimated work, whatever
        the user priorities say."""
        engine = ElasticPolicyEngine(8, REGISTRY.resolve("ewt",
                                                         rescale_gap=0.0))
        engine.on_submit(est_req("top", 2, 2, 10.0), 0.0)
        engine.on_submit(est_req("victim", 2, 6, 100.0, priority=1), 0.0)
        # A long arrival ranks below the victim: it may not shrink it.
        decisions = engine.on_submit(
            est_req("long", 4, 4, 1000.0, priority=5), 1.0
        )
        assert [type(d).__name__ for d in decisions] == ["EnqueueJob"]
        # A short one outranks it, even at a lower user priority.
        decisions = engine.on_submit(
            est_req("short", 4, 4, 50.0, priority=1), 2.0
        )
        assert [(type(d).__name__, d.job.name) for d in decisions] == [
            ("ShrinkJob", "victim"), ("StartJob", "short"),
        ]

    def test_priority_stage_keys_the_job_not_the_request(self):
        config = REGISTRY.resolve("ewt")
        engine = ElasticPolicyEngine(8, config)
        request = est_req("a", 2, 8, 50.0, priority=3)
        job = engine.on_submit(request, 0.0)[0].job
        assert job.priority == ewt_priority(request)
        # The submission is never rewritten: it keeps the user priority.
        assert job.request is request and job.request.priority == 3


class TestEasyBackfillUnit:
    """Deterministic admit/reject geometry on an 8-slot engine.

    Running job a (4 slots, 100 s left) + queued head h (needs 6): the
    head's reservation is a's completion at t=100.  A 3-wide candidate
    leaves 1 free slot, so the head then needs the candidate's own
    release too — admissible only if that release is at most t=100.
    """

    def setup_engine(self):
        config = REGISTRY.resolve("easy-backfill")
        engine = ElasticPolicyEngine(8, config)
        engine.on_submit(est_req("a", 4, 4, 100.0), 0.0)
        engine.on_submit(est_req("h", 6, 6, 100.0), 0.0)
        assert [j.name for j in engine.queue] == ["h"]
        return engine, config.backfill

    def test_short_candidate_backfills(self):
        engine, rule = self.setup_engine()
        decisions = engine.on_submit(est_req("c", 3, 3, 50.0), 1.0)
        assert [d.job.name for d in decisions] == ["c"]
        assert rule.last_reservations["h"] == pytest.approx(100.0)

    def test_long_candidate_rejected(self):
        engine, _ = self.setup_engine()
        decisions = engine.on_submit(est_req("c", 3, 3, 200.0), 1.0)
        assert [type(d).__name__ for d in decisions] == ["EnqueueJob"]
        assert [j.name for j in engine.queue] == ["h", "c"]

    def test_exact_fit_candidate_admitted(self):
        """Finishing exactly at the reservation does not delay it."""
        engine, _ = self.setup_engine()
        decisions = engine.on_submit(est_req("c", 3, 3, 99.0), 1.0)
        assert [d.job.name for d in decisions] == ["c"]

    def test_starting_the_head_is_never_a_backfill(self):
        config = REGISTRY.resolve("easy-backfill")
        engine = ElasticPolicyEngine(8, config)
        engine.on_submit(est_req("a", 6, 6, 100.0), 0.0)
        engine.on_complete("a", 10.0)
        decisions = engine.on_submit(est_req("b", 4, 4, 50.0), 11.0)
        assert [d.job.name for d in decisions] == ["b"]

    def test_conservative_variant_protects_every_waiter(self):
        config = REGISTRY.resolve("easy-backfill", conservative=True)
        engine = ElasticPolicyEngine(8, config)
        engine.on_submit(est_req("a", 4, 4, 100.0), 0.0)
        engine.on_submit(est_req("h1", 6, 6, 100.0), 0.0)
        engine.on_submit(est_req("h2", 5, 5, 100.0), 0.0)
        # Aggressive EASY reserves only h1; under it this candidate is
        # admissible (h1 still starts at t=100).  Conservative also
        # reserves h2, whose chained start the candidate's 150 s
        # release would push out — rejected.
        decisions = engine.on_submit(est_req("c", 3, 3, 150.0), 1.0)
        assert [type(d).__name__ for d in decisions] == ["EnqueueJob"]

    def test_overtaken_head_loses_its_reservation(self):
        """A higher-ranked arrival that must wait displaces the head."""
        engine, rule = self.setup_engine()
        engine.on_submit(est_req("c", 2, 2, 50.0), 1.0)
        assert rule.last_head_reservations == {"h": pytest.approx(100.0)}
        decisions = engine.on_submit(est_req("u", 4, 4, 10.0, priority=5), 2.0)
        assert [type(d).__name__ for d in decisions] == ["EnqueueJob"]
        assert rule.last_head_reservations == {}
        assert rule.last_reservations == {}

    def test_higher_ranked_start_overtakes_the_head(self):
        """Starting ahead of every waiter is no backfill, but the head's
        reservation no longer holds."""
        engine, rule = self.setup_engine()
        engine.on_submit(est_req("c", 1, 1, 50.0), 1.0)
        assert "h" in rule.last_head_reservations
        decisions = engine.on_submit(est_req("u", 1, 1, 500.0, priority=5), 2.0)
        assert [d.job.name for d in decisions] == ["u"]
        assert "h" not in rule.last_head_reservations

    def test_lower_ranked_waiter_keeps_the_head_reservation(self):
        engine, rule = self.setup_engine()
        engine.on_submit(est_req("c", 2, 2, 50.0), 1.0)
        engine.on_submit(est_req("w", 4, 4, 10.0), 2.0)
        assert [j.name for j in engine.queue] == ["h", "w"]
        assert rule.last_head_reservations == {"h": pytest.approx(100.0)}

    def test_factory_pins_infinite_gap(self):
        config = REGISTRY.resolve("easy-backfill", rescale_gap=180.0)
        assert math.isinf(config.rescale_gap)
        assert isinstance(config.backfill, EasyBackfill)


class TestEasyNeverDelaysHead:
    """The hypothesis property: reserved heads start by their
    reservations across randomized paper workloads."""

    @settings(max_examples=40, deadline=None)
    # Heads a higher-priority arrival overtook before they started: their
    # reservations were recorded while they were head and must be gone.
    @example(seed=936, num_jobs=9, gap=30.0)
    @example(seed=2752, num_jobs=11, gap=30.0)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        num_jobs=st.integers(min_value=4, max_value=12),
        gap=st.sampled_from([0.0, 30.0, 90.0]),
    )
    def test_heads_start_by_their_reserved_times(self, seed, num_jobs, gap):
        config = REGISTRY.resolve("easy-backfill")
        rule = config.backfill
        submissions = generate_workload(
            WorkloadSpec(num_jobs=num_jobs, submission_gap=gap, seed=seed)
        )
        result = ScheduleSimulator(config).run(submissions)
        assert result.metrics.job_count == num_jobs
        started = {o.name: o.start_time for o in result.outcomes}
        assert rule.last_head_reservations == rule.last_reservations
        for name, reserved_at in rule.last_head_reservations.items():
            assert started[name] <= reserved_at + 1e-6, (
                f"backfill delayed reserved head {name}: started "
                f"{started[name]} > reserved {reserved_at}"
            )

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=1_000))
    def test_conservative_heads_also_protected(self, seed):
        # Only the head bound is hard: non-head projections assume every
        # reserved job starts at its *minimum* size, but moldable sizing
        # may start an earlier waiter wider and shift the chain.
        config = REGISTRY.resolve("easy-backfill", conservative=True)
        rule = config.backfill
        submissions = generate_workload(
            WorkloadSpec(num_jobs=8, submission_gap=30.0, seed=seed)
        )
        result = ScheduleSimulator(config).run(submissions)
        started = {o.name: o.start_time for o in result.outcomes}
        for name, reserved_at in rule.last_head_reservations.items():
            assert started[name] <= reserved_at + 1e-6


def test_all_literature_policies_run_end_to_end():
    submissions = generate_workload(WorkloadSpec(num_jobs=12, seed=3))
    for name in ("ewt", "prb", "easy-backfill"):
        result = ScheduleSimulator(REGISTRY.resolve(name)).run(submissions)
        assert result.metrics.policy == name
        assert result.metrics.job_count == 12
        assert 0.0 < result.metrics.utilization <= 1.0


def test_ewt_outcomes_weight_by_the_submitted_priority():
    """The engine ranks by EWT, but the §4.3 metrics weight each job by
    the user priority it was submitted with (1–5), never by -estimate."""
    submissions = generate_workload(WorkloadSpec(num_jobs=12, seed=3))
    result = ScheduleSimulator(REGISTRY.resolve("ewt")).run(submissions)
    submitted = {s.request.name: s.request.priority for s in submissions}
    assert set(submitted.values()) <= set(range(1, 6))
    assert {o.name: o.priority for o in result.outcomes} == submitted
    weights = sum(submitted.values())
    assert result.metrics.weighted_mean_response == pytest.approx(
        sum(o.priority * o.response_time for o in result.outcomes) / weights
    )


def test_any_priority_rule_orders_like_its_static_twin():
    """A rule the engine only knows through get_priority/next_change
    schedules exactly like the StaticPriority it mirrors."""

    class Ewt:
        def get_priority(self, now, job):
            return ewt_priority(job.request)

        def next_change(self, now, job):
            return math.inf

    submissions = generate_workload(WorkloadSpec(num_jobs=24, seed=5,
                                                 submission_gap=30.0))
    results = [
        ScheduleSimulator(dataclasses.replace(REGISTRY.resolve("ewt"),
                                              priority=rule)).run(submissions)
        for rule in (StaticPriority(ewt_priority), Ewt())
    ]
    assert [o.start_time for o in results[0].outcomes] == [
        o.start_time for o in results[1].outcomes
    ]
    assert results[0].metrics == results[1].metrics
