"""Tests for the full-stack cluster experiment and Table 1 driver."""

import gc
import weakref

import pytest

import repro.experiments.cluster_run as cluster_run
from repro.experiments import run_cluster_experiment, run_fig9, run_table1
from repro.experiments.fig9 import FIG9_WORKLOAD
from repro.k8s import KubeCluster
from repro.k8s.apiserver import ApiServer
from repro.k8s.node import Node
from repro.k8s.quantity import Resources
from repro.k8s.watch import Watch, WatchHub
from repro.mpioperator import CharmJobController, worker_index
from repro.schedsim import ScheduleSimulator, WorkloadSpec, generate_workload
from repro.scheduling import REGISTRY
from repro.scheduling.controller import ElasticSchedulerController


@pytest.fixture(scope="module")
def small_workload():
    """A light 6-job workload so full-stack runs stay fast in tests."""
    return generate_workload(WorkloadSpec(num_jobs=6, submission_gap=60.0, seed=32))


class TestClusterRun:
    @pytest.fixture(scope="class")
    def elastic_run(self):
        subs = generate_workload(WorkloadSpec(num_jobs=6, submission_gap=60.0, seed=32))
        return run_cluster_experiment("elastic", subs, rescale_gap=120.0)

    def test_all_jobs_finish(self, elastic_run):
        assert elastic_run.metrics.job_count == 6

    def test_metrics_sane(self, elastic_run):
        m = elastic_run.metrics
        assert 0.0 < m.utilization <= 1.0
        assert m.weighted_mean_completion >= m.weighted_mean_response >= 0.0

    def test_utilization_profile_bounded(self, elastic_run):
        profile = elastic_run.utilization_profile(samples=100)
        assert all(0.0 <= u <= 1.0 for _, u in profile)
        assert max(u for _, u in profile) > 0.3

    def test_per_job_profiles_cover_all_jobs(self, elastic_run):
        profiles = elastic_run.per_job_profile(samples=20)
        assert len(profiles) == 6

    def test_replica_series_within_bounds(self, elastic_run, small_workload):
        bounds = {
            s.request.name: (s.request.min_replicas, s.request.max_replicas)
            for s in small_workload
        }
        for name, tl in elastic_run.timelines.items():
            lo, hi = bounds[name]
            for _, replicas in tl.samples:
                assert replicas == 0 or lo <= replicas <= hi

    def test_unfinished_raises(self, small_workload):
        with pytest.raises(RuntimeError, match="horizon"):
            run_cluster_experiment("elastic", small_workload, horizon=50.0)


class TestActualVsSimulation:
    def test_actual_pays_startup_overhead(self, small_workload):
        """The full stack must be somewhat slower than the idealized
        simulator on the same workload (pod startup, reconcile latency)."""
        actual = run_cluster_experiment("moldable", small_workload)
        sim = ScheduleSimulator(REGISTRY.resolve("moldable")).run(small_workload)
        assert actual.metrics.total_time >= sim.metrics.total_time
        # ...but within a sane envelope (< 20% for this workload).
        assert actual.metrics.total_time < sim.metrics.total_time * 1.2

    @pytest.mark.slow
    def test_table1_structure(self):
        result = run_table1(policies=("moldable", "elastic"),
                            workload=WorkloadSpec(num_jobs=8, submission_gap=60.0,
                                                  seed=32))
        assert set(result.actual) == {"moldable", "elastic"}
        for policy in result.actual:
            assert result.actual[policy].total_time > 0
            assert result.simulation[policy].total_time > 0

    def test_fig9_workload_is_representative(self):
        # The pinned seed must contain xlarge jobs (Figure 9b needs one).
        subs = generate_workload(FIG9_WORKLOAD)
        assert any(s.size.name == "xlarge" for s in subs)
        assert len(subs) == 16


class TestTable1Golden:
    """``repro table1``'s "Actual" columns, as printed, per policy.

    The k8s path has no other golden output: a changed decision anywhere
    in the operator, the watches or the kubelets shows up here.
    """

    ACTUAL = {
        # policy: (Total, Util, Resp, Compl)
        "min_replicas": (2764.0, "58.99%", 2.51, 565.74),
        "max_replicas": (2337.0, "83.79%", 193.56, 392.2),
        "moldable": (2700.0, "69.36%", 81.92, 413.78),
        "elastic": (2238.0, "86.77%", 49.24, 326.69),
    }

    @pytest.fixture(scope="class")
    def result(self):
        return run_table1()

    def test_actual_columns_are_pinned(self, result):
        actual = {policy: tuple(result.row(policy)[1::2]) for policy in result.actual}
        assert actual == self.ACTUAL

    @pytest.mark.parametrize("column", ["actual", "simulation"])
    def test_elastic_leads_both_columns(self, result, column):
        # The paper's headline.  On this draw min_replicas' low
        # utilization lets arrivals start at once (as in the averaged
        # Figure 7c), so elastic's response is held against the other two.
        runs = getattr(result, column)
        elastic, minimal = runs["elastic"], runs["min_replicas"]
        utils = [m.utilization for m in runs.values()]
        completions = [m.weighted_mean_completion for m in runs.values()]
        assert elastic.total_time == min(m.total_time for m in runs.values())
        assert elastic.utilization == max(utils)
        assert elastic.weighted_mean_completion == min(completions)
        for other in ("moldable", "max_replicas"):
            assert (elastic.weighted_mean_response
                    < runs[other].weighted_mean_response)
        assert minimal.utilization == min(utils)
        assert minimal.weighted_mean_completion == max(completions)

    def test_actual_elastic_trails_the_simulation(self, result):
        # Pod startup and protocol sequencing cost the k8s path, as in the
        # paper (87.8% actual against 92.3% simulated utilization).
        actual, simulated = result.actual["elastic"], result.simulation["elastic"]
        assert actual.utilization < simulated.utilization
        assert actual.total_time >= simulated.total_time


class TestFig9:
    """Figure 9b: the featured job's replica evolution under elastic.
    Figure 9a's utilizations are the "Actual" column pinned above: both
    run the same draw through the same path."""

    @pytest.fixture(scope="class")
    def elastic(self):
        result = run_fig9(policies=("elastic",))
        return result.runs["elastic"], result.featured_job

    def test_featured_job_shrinks_and_regrows(self, elastic):
        run, featured = elastic
        sizes = {r for _, r in run.replica_series(featured) if r > 0}
        assert len(sizes) >= 3
        assert run.rescale_counts[featured] >= 2

    def test_an_xlarge_job_rescales(self, elastic):
        run, _ = elastic
        rescales = [run.rescale_counts[name]
                    for name, size in run.job_sizes.items() if size == "xlarge"]
        assert rescales and max(rescales) >= 1


class TestWatchScaling:
    """A pod event reaches its own node's kubelet and its own job's runner,
    not every kubelet and runner: deliveries per pod event stay flat as
    the cluster grows (they grew 8.6, 27.0, 87.5 at 4, 16, 64 nodes when
    every kubelet and runner watched every pod)."""

    @staticmethod
    def deliveries_per_pod_event(monkeypatch, node_count):
        counts = {"deliveries": 0, "pod_events": 0}
        dispatch, publish = Watch._dispatch, WatchHub.publish

        def counting_dispatch(watch, event):
            counts["deliveries"] += watch.active
            dispatch(watch, event)

        def counting_publish(hub, event):
            counts["pod_events"] += event.object.kind == "Pod"
            publish(hub, event)

        with monkeypatch.context() as patch:
            patch.setattr(Watch, "_dispatch", counting_dispatch)
            patch.setattr(WatchHub, "publish", counting_publish)
            subs = generate_workload(
                WorkloadSpec(num_jobs=64, submission_gap=5.625, seed=0))
            run_cluster_experiment("elastic", subs, node_count=node_count)
        return counts["deliveries"] / counts["pod_events"]

    def test_deliveries_per_pod_event_do_not_grow_with_nodes(self, monkeypatch):
        ratios = {n: self.deliveries_per_pod_event(monkeypatch, n) for n in (4, 16, 64)}
        # The scheduler, the operator, one kubelet and at most one runner.
        assert ratios[4] < 4.0, ratios
        assert all(ratio <= ratios[4] * 1.05 for ratio in ratios.values()), ratios


class TestSchedulerScaling:
    """A scheduling cycle reads node state the nodes keep: free capacity
    and per-label pod counts.  ``Resources.__sub__`` and
    ``ApiServer.try_get`` calls per bind stay flat as the cluster grows
    (subtractions grew 16.7, 52.6, 102.3 at 4, 16, 64 nodes when every
    cycle recomputed free capacity and read each co-located pod through
    the API)."""

    @staticmethod
    def per_bind(monkeypatch, node_count):
        counts = {"sub": 0, "try_get": 0, "bind": 0}
        sub, try_get, bind = Resources.__sub__, ApiServer.try_get, Node.bind

        def counting_sub(a, b):
            counts["sub"] += 1
            return sub(a, b)

        def counting_try_get(api, *args, **kwargs):
            counts["try_get"] += 1
            return try_get(api, *args, **kwargs)

        def counting_bind(node, pod):
            counts["bind"] += 1
            bind(node, pod)

        with monkeypatch.context() as patch:
            patch.setattr(Resources, "__sub__", counting_sub)
            patch.setattr(ApiServer, "try_get", counting_try_get)
            patch.setattr(Node, "bind", counting_bind)
            subs = generate_workload(
                WorkloadSpec(num_jobs=64, submission_gap=5.625, seed=0))
            run_cluster_experiment("elastic", subs, node_count=node_count)
        return counts["sub"] / counts["bind"], counts["try_get"] / counts["bind"]

    def test_subtractions_and_api_reads_per_bind_do_not_grow_with_nodes(
            self, monkeypatch):
        ratios = {n: self.per_bind(monkeypatch, n) for n in (4, 16, 64)}
        subs = {n: r[0] for n, r in ratios.items()}
        reads = {n: r[1] for n, r in ratios.items()}
        # One subtraction per bind, two per release.
        assert subs[4] <= 3.5, subs
        assert reads[4] < 2.0, reads
        assert all(value <= subs[4] * 1.05 for value in subs.values()), subs
        assert all(value <= reads[4] * 1.05 for value in reads.values()), reads


class TestReconcileScaling:
    """The operator reads each worker pod's replica index off the pod:
    ``worker_index`` parses no pod name in a reconcile, at any job count
    (83 and 56 parses per reconcile at 4 and 16 jobs when reconcile, the
    rescaler and ``sort_workers`` parsed pod names)."""

    @staticmethod
    def parses_per_reconcile(monkeypatch, num_jobs):
        counts = {"parses": 0, "reconciles": 0}
        reconcile = CharmJobController.reconcile

        def counting_parse(name):
            counts["parses"] += 1
            return worker_index(name)

        def counting_reconcile(operator, key):
            counts["reconciles"] += 1
            reconcile(operator, key)

        with monkeypatch.context() as patch:
            for module in ("launcher", "controller", "rescaler", "apprunner"):
                patch.setattr(f"repro.mpioperator.{module}.worker_index",
                              counting_parse, raising=False)
            patch.setattr(CharmJobController, "reconcile", counting_reconcile)
            subs = generate_workload(
                WorkloadSpec(num_jobs=num_jobs, submission_gap=90.0, seed=0))
            run_cluster_experiment("elastic", subs)
        assert counts["reconciles"] > 0
        return counts["parses"] / counts["reconciles"]

    def test_no_pod_name_is_parsed_per_reconcile(self, monkeypatch):
        ratios = {n: self.parses_per_reconcile(monkeypatch, n) for n in (4, 16)}
        assert ratios == {4: 0.0, 16: 0.0}


class TestRunFreesItself:
    """A finished run is freed by reference counting, not by the cyclic
    collector, so peak RSS does not track collector timing."""

    def test_api_server_is_dead_on_return(self, monkeypatch, small_workload):
        # The run stops its scheduler, operator and cluster watches.
        refs = []
        make = cluster_run.make_eks_cluster

        def recording_make(*args, **kwargs):
            cluster = make(*args, **kwargs)
            refs.append(weakref.ref(cluster.api))
            return cluster

        monkeypatch.setattr(cluster_run, "make_eks_cluster", recording_make)
        gc.collect()
        gc.disable()
        try:
            result = run_cluster_experiment("elastic", small_workload)
            assert result.metrics.job_count == 6
            assert len(refs) == 1 and refs[0]() is None
        finally:
            gc.enable()

    def test_finished_runtimes_free_themselves_without_close(self, monkeypatch):
        # With no watch stopped (the wiring of perfbench's k8s_operator),
        # the run's own graph stays cyclic, but each finished job's
        # Charm++ runtime (PEs, chares, queues, killed PE loops) is freed
        # when the job completes.  19,033 objects were left on this draw
        # when every finished runtime stayed cyclic garbage.
        for cls in (ElasticSchedulerController, CharmJobController):
            monkeypatch.setattr(cls, "stop", lambda self: None)
        monkeypatch.setattr(KubeCluster, "close", lambda self: None)
        subs = generate_workload(FIG9_WORKLOAD)
        gc.collect()
        gc.disable()
        try:
            result = run_cluster_experiment("elastic", subs)
            assert result.metrics.job_count == FIG9_WORKLOAD.num_jobs
            del result
            assert gc.collect() < 1500
        finally:
            gc.enable()
