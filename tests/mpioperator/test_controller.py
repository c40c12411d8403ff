"""Integration tests for the operator: launch, run, rescale, teardown."""

import pytest

from repro.k8s import PodPhase
from repro.mpioperator import JobPhase, worker_index
from tests.mpioperator.conftest import make_job


def submit_and_run(engine, operator, job, until=500.0):
    operator.submit(job)
    engine.run(until=until)
    return job


class TestLaunch:
    def test_job_reaches_running(self, engine, operator, job_factory):
        job = job_factory(replicas=4, steps=5)
        submit_and_run(engine, operator, job, until=30.0)
        assert job.status.phase in (JobPhase.RUNNING, JobPhase.COMPLETED)
        assert job.status.start_time is not None

    def test_launcher_and_workers_created(self, engine, operator, cluster, job_factory):
        job = job_factory(replicas=3, steps=1000)
        submit_and_run(engine, operator, job, until=30.0)
        pods = cluster.pods()
        roles = sorted(p.spec.role for p in pods)
        assert roles.count("worker") == 3
        assert roles.count("launcher") == 1

    def test_nodelist_published_before_start(self, engine, operator, cluster, job_factory):
        from repro.mpioperator import read_nodelist

        job = job_factory(replicas=2, steps=1000)
        submit_and_run(engine, operator, job, until=30.0)
        assert read_nodelist(cluster.api, job) == [
            "job-a-worker-0", "job-a-worker-1",
        ]

    def test_unscheduled_replicas_default_to_min(self, engine, operator, cluster, job_factory):
        job = job_factory(min_replicas=2, max_replicas=8, replicas=None, steps=1000)
        submit_and_run(engine, operator, job, until=30.0)
        workers = [p for p in cluster.pods() if p.spec.role == "worker"]
        assert len(workers) == 2

    def test_job_completes_and_pods_removed(self, engine, operator, cluster, job_factory):
        job = job_factory(replicas=2, steps=5)
        submit_and_run(engine, operator, job, until=200.0)
        assert job.status.phase == JobPhase.COMPLETED
        assert job.status.completion_time is not None
        assert cluster.pods() == []  # everything torn down
        assert cluster.allocated_cpus == 0.0

    def test_submit_records_time(self, engine, operator, job_factory):
        engine.run(until=7.0)
        job = operator.submit(job_factory(steps=3))
        assert job.status.submit_time == 7.0

    def test_two_jobs_coexist(self, engine, operator, cluster, job_factory):
        a = job_factory(name="job-a", replicas=2, steps=1000)
        b = job_factory(name="job-b", replicas=3, steps=1000)
        operator.submit(a)
        operator.submit(b)
        engine.run(until=40.0)
        assert a.status.phase == JobPhase.RUNNING
        assert b.status.phase == JobPhase.RUNNING
        workers = [p for p in cluster.pods() if p.spec.role == "worker"]
        assert len(workers) == 5


class TestRescaleProtocols:
    def test_shrink_running_job(self, engine, operator, cluster, job_factory):
        job = job_factory(replicas=6, max_replicas=8, steps=4000)
        submit_and_run(engine, operator, job, until=30.0)
        runner = operator.runner_for(job)
        assert runner.rts.num_pes == 6
        # The scheduler's decision: shrink to 3.
        cluster.api.patch(job, lambda j: setattr(j.spec, "replicas", 3))
        engine.run(until=120.0)
        assert runner.rts.num_pes == 3
        assert job.status.replicas == 3
        workers = [p for p in cluster.pods() if p.spec.role == "worker"]
        assert sorted(worker_index(p.name) for p in workers) == [0, 1, 2]
        assert operator.rescaler.shrink_count == 1
        assert not job.status.rescale_in_progress

    def test_shrink_waits_for_ack_before_deleting_pods(self, engine, operator,
                                                       cluster, job_factory):
        # §3.1 ordering: pods are removed only after the app acknowledges.
        job = job_factory(replicas=4, steps=4000)
        submit_and_run(engine, operator, job, until=30.0)
        cluster.api.patch(job, lambda j: setattr(j.spec, "replicas", 2))
        # Immediately after the patch, pods must still exist (ack pending).
        workers = [p for p in cluster.pods() if p.spec.role == "worker"]
        assert len(workers) == 4
        engine.run(until=120.0)
        workers = [p for p in cluster.pods() if p.spec.role == "worker"]
        assert len(workers) == 2

    def test_expand_running_job(self, engine, operator, cluster, job_factory):
        job = job_factory(replicas=2, max_replicas=8, steps=4000)
        submit_and_run(engine, operator, job, until=30.0)
        runner = operator.runner_for(job)
        assert runner.rts.num_pes == 2
        cluster.api.patch(job, lambda j: setattr(j.spec, "replicas", 5))
        engine.run(until=120.0)
        assert runner.rts.num_pes == 5
        assert job.status.replicas == 5
        from repro.mpioperator import read_nodelist

        assert len(read_nodelist(cluster.api, job)) == 5
        assert operator.rescaler.expand_count == 1

    def test_rescale_preserves_application_progress(self, engine, operator,
                                                    cluster, job_factory):
        job = job_factory(replicas=4, steps=4000)
        submit_and_run(engine, operator, job, until=30.0)
        runner = operator.runner_for(job)
        before = runner.app.completed_steps
        cluster.api.patch(job, lambda j: setattr(j.spec, "replicas", 2))
        engine.run(until=150.0)
        assert runner.rts.num_pes == 2
        assert runner.app.completed_steps > before
        # Chare state survived the rescale.  completed_steps is recorded at
        # block granularity, so mid-block samples may lead it slightly.
        done = runner.app.completed_steps
        for chare in runner.rts.elements(runner.app.proxy.array_id):
            assert done <= chare.ticks <= done + runner.app.sync_every

    def test_expand_into_full_cluster_waits_for_pods(self, engine, operator,
                                                     cluster, job_factory):
        # Fill the 32-slot cluster so the expansion pods stay Pending.
        blocker = job_factory(name="blocker", min_replicas=26, max_replicas=26,
                              replicas=26, steps=4000)
        job = job_factory(name="job-a", replicas=2, max_replicas=8, steps=4000)
        operator.submit(blocker)
        operator.submit(job)
        engine.run(until=40.0)
        runner = operator.runner_for(job)
        assert runner.rts.num_pes == 2
        cluster.api.patch(job, lambda j: setattr(j.spec, "replicas", 6))
        engine.run(until=80.0)
        # 26 + 2 workers + 2 launchers = 30 used; 2 free < 4 wanted extras.
        assert runner.rts.num_pes == 2
        assert job.status.rescale_in_progress

    def test_multiple_sequential_rescales(self, engine, operator, cluster, job_factory):
        job = job_factory(replicas=2, min_replicas=1, max_replicas=8, steps=4000)
        submit_and_run(engine, operator, job, until=30.0)
        runner = operator.runner_for(job)
        for target in (6, 3, 4):
            cluster.api.patch(job, lambda j, t=target: setattr(j.spec, "replicas", t))
            engine.run(until=engine.now + 120.0)
            assert runner.rts.num_pes == target
        assert job.status.rescale_count == 3


class TestFailureInjection:
    def test_rescale_rejected_when_one_pending(self, engine, operator, cluster,
                                               job_factory):
        job = job_factory(replicas=4, steps=4000)
        submit_and_run(engine, operator, job, until=30.0)
        runner = operator.runner_for(job)
        # Issue a rescale directly while another is pending at the app level.
        runner.app._pending = (3, None, _FakeRequest())
        out = {}

        def main():
            try:
                out["v"] = yield runner.ccs_client().request(
                    "rescale", {"target": 2}, timeout=5.0
                )
            except Exception as err:  # noqa: BLE001
                out["err"] = err

        engine.process(main())
        engine.run(until=engine.now + 10.0)
        assert "err" in out

    def test_job_deletion_cleans_pods(self, engine, operator, cluster, job_factory):
        job = job_factory(replicas=3, steps=100000)
        submit_and_run(engine, operator, job, until=30.0)
        cluster.api.delete(job)
        engine.run(until=60.0)
        assert [p for p in cluster.pods() if p.spec.role == "worker"] == []

    def test_oversized_checkpoint_fails_rescale_not_job(self, engine, cluster,
                                                        job_factory):
        # Workers with a tiny /dev/shm: the shrink's checkpoint must fail,
        # the operator must reconcile spec back, and the job keeps running.
        from repro.mpioperator import CharmJobController
        from tests.mpioperator.conftest import BlockApp

        def big_app(job):
            return BlockApp(job, chares_per_pe=1)

        operator = CharmJobController(engine, cluster, app_factory=big_app)
        job = job_factory(replicas=4, steps=4000, shm="2Ki")
        operator.submit(job)
        engine.run(until=30.0)
        runner = operator.runner_for(job)
        cluster.api.patch(job, lambda j: setattr(j.spec, "replicas", 2))
        engine.run(until=150.0)
        assert runner.rts.num_pes == 4  # rescale aborted
        assert job.spec.replicas == 4  # spec reconciled back to reality
        assert operator.rescaler.failed_count == 1
        assert job.status.phase == JobPhase.RUNNING


class _FakeRequest:
    def reply(self, value=None):
        pass

    def reject(self, reason):
        pass


class TestRunnerPodWatch:
    """A runner stops watching pods once its app completes, crashes or
    aborts: no pod can matter to it any more."""

    def test_running_app_keeps_watching(self, engine, operator, job_factory):
        job = submit_and_run(engine, operator, job_factory(steps=100000),
                             until=30.0)
        assert operator.runner_for(job)._pod_watch.active

    def test_completed_app_stops_watching(self, engine, operator, job_factory):
        first = submit_and_run(engine, operator, job_factory(steps=5),
                               until=200.0)
        watch = operator.runner_for(first)._pod_watch
        assert first.status.phase == JobPhase.COMPLETED
        assert not watch.active
        delivered = watch.delivered
        # Later pod churn no longer reaches the finished runner.
        submit_and_run(engine, operator, job_factory(name="job-b", steps=5),
                       until=400.0)
        assert watch.delivered == delivered

    def test_crashed_app_stops_watching(self, engine, cluster, job_factory):
        from repro.mpioperator import CharmJobController
        from tests.mpioperator.conftest import BlockApp

        class CrashingApp(BlockApp):
            def step(self, rts, index):
                raise RuntimeError("boom")
                yield  # pragma: no cover - marks this as a generator

        operator = CharmJobController(engine, cluster, app_factory=CrashingApp)
        job = submit_and_run(engine, operator, job_factory(), until=60.0)
        assert job.status.phase == JobPhase.FAILED
        assert not operator.runner_for(job)._pod_watch.active

    def test_aborted_app_stops_watching(self, engine, operator, cluster,
                                        job_factory):
        job = submit_and_run(engine, operator, job_factory(steps=100000),
                             until=30.0)
        runner = operator.runner_for(job)
        victim = next(p for p in cluster.pods() if p.spec.role == "worker")
        cluster.fail_pod(victim)
        engine.run(until=40.0)
        assert runner.failed is not None
        assert not runner._pod_watch.active
