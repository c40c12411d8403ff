"""The ``repro bench`` harness — policy-engine throughput + regression gate.

Measures the scheduler hot path at trace scale and emits machine-readable
``BENCH_*.json`` results the CI regression gate compares against a
committed baseline:

* **engine churn** — raw :class:`ElasticPolicyEngine` events/sec on a
  synthetic submit/complete stream that grows an O(n) queue backlog (the
  regime where the pre-PR-2 engine went quadratic).  The frozen reference
  implementation (:mod:`repro.scheduling._reference`) runs the *same*
  stream at sizes up to ``reference_max``, so the reported speedup is the
  optimized-vs-pre-PR ratio on identical work (the decision sequences are
  provably identical — see the golden equivalence test).
* **simulator** — end-to-end :class:`ScheduleSimulator` events/sec over a
  Poisson synthetic workload in streaming ``retain="metrics"`` mode, plus
  peak RSS, at 1k/10k/100k jobs.

``--suite sweep`` (:func:`run_sweep_bench`) instead measures the sweep
layer: cold grid throughput, the warm (fully trial-cached) re-run's hit
rate, and the one-cell-edit incremental re-run — the ``BENCH_sweep.json``
trajectory.  ``--suite cloud`` (:func:`run_cloud_bench`) measures the
elastic-capacity layer: :class:`CloudScheduleSimulator` events/sec under
heavy spot churn at two sizes (the flatness check for the capacity
paths) plus one serial pass over the autoscaler × policy grid —
``BENCH_cloud.json``.  See ``benchmarks/README.md`` for the JSON schemas
and how CI consumes the committed baselines.

Absolute events/sec is hardware-bound, so every result also carries a
``normalized`` value: events/sec divided by a fixed pure-Python
calibration score measured in the same process.  The regression gate
compares *normalized* numbers, which makes a committed baseline portable
across developer laptops and CI runners; the 30% default threshold
absorbs the residual noise.
"""

from __future__ import annotations

import json
import platform
import resource
import sys
import time
import warnings
from bisect import insort
from random import Random
from typing import Dict, List, Optional, Sequence

from .obs.log import get_logger, set_level
from .obs.manifest import RunManifest
from .scheduling import ElasticPolicyEngine, JobRequest
from .scheduling._reference import ReferenceElasticPolicyEngine
from .scheduling.registry import REGISTRY

__all__ = [
    "calibration_score",
    "bench_engine_churn",
    "bench_simulator",
    "bench_cloud_churn",
    "bench_cloud_grid",
    "run_bench",
    "run_sweep_bench",
    "run_cloud_bench",
    "run_faults_bench",
    "compare_results",
    "format_results",
    "DEFAULT_SIZES",
    "DEFAULT_OUTPUT",
    "DEFAULT_SWEEP_OUTPUT",
    "DEFAULT_CLOUD_OUTPUT",
    "DEFAULT_FAULTS_OUTPUT",
]

#: BENCH_*.json document schema.  v2 added ``schema_version`` (v1 spelled
#: it ``schema``), the ``manifest`` provenance block, and the cloud
#: suite's ``cost_per_job`` column.
SCHEMA_VERSION = 2

#: Shared progress logger — the `repro bench` CLI's `--quiet` drops its
#: threshold below INFO; library callers may still pass ``progress=`` to
#: redirect messages entirely.
_LOG = get_logger("repro.bench")

DEFAULT_SIZES = (1_000, 10_000, 100_000)
DEFAULT_OUTPUT = "BENCH_policy_engine.json"
DEFAULT_SWEEP_OUTPUT = "BENCH_sweep.json"
DEFAULT_CLOUD_OUTPUT = "BENCH_cloud.json"
DEFAULT_FAULTS_OUTPUT = "BENCH_faults.json"
#: Spot-churn workload sizes for the cloud suite.
CLOUD_CHURN_SIZES = (2_000, 20_000)
#: Largest size the O(n log n)-per-event reference engine is asked to run.
DEFAULT_REFERENCE_MAX = 10_000
CHURN_SLOTS = 256
SIM_SLOTS = 256
SIM_RATE = 0.1  # Poisson arrivals/sec — steady state at SIM_SLOTS


def _reset_rss_peak() -> bool:
    """Reset the kernel's RSS high-water mark for this process.

    Writing ``5`` to ``/proc/self/clear_refs`` zeroes ``VmHWM`` (Linux
    ≥ 4.0), which lets each benchmark scenario report its *own* peak
    instead of the process-lifetime maximum.  Returns False where the
    knob doesn't exist (non-Linux, restricted containers); rows then
    degrade to the monotonic lifetime peak.
    """
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
        return True
    except OSError:
        return False


def _peak_rss_kb() -> int:
    """Peak RSS in KiB since the last :func:`_reset_rss_peak` (VmHWM),
    falling back to the process-lifetime ``ru_maxrss``."""
    try:
        with open("/proc/self/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def calibration_score(repeats: int = 3, ops: int = 50_000) -> float:
    """Ops/sec of a fixed pure-Python workload (insort + arithmetic).

    Resembles the engine hot path closely enough that events/sec divided
    by this score is roughly machine-independent; the best of ``repeats``
    runs filters scheduler jitter.
    """
    best = float("inf")
    for _ in range(repeats):
        window: List[int] = []
        total = 0
        begin = time.perf_counter()
        for i in range(ops):
            key = (i * 2654435761) & 0xFFFF
            insort(window, key)
            if len(window) > 1_000:
                window.pop(0)
            total += key
        best = min(best, time.perf_counter() - begin)
    assert total >= 0  # keep the loop's result observable
    return ops / best


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


def bench_engine_churn(n_jobs: int, seed: int = 7, reference: bool = False) -> Dict:
    """Raw policy-engine throughput on the backlog-growing churn stream."""
    requests = _churn_workload(n_jobs, seed)
    engine_cls = ReferenceElasticPolicyEngine if reference else ElasticPolicyEngine
    engine = engine_cls(CHURN_SLOTS, REGISTRY.resolve("elastic"))
    if hasattr(engine, "keep_decision_log"):
        engine.keep_decision_log = False
    _reset_rss_peak()
    begin = time.perf_counter()
    events = _drive_churn(engine, requests)
    seconds = time.perf_counter() - begin
    return {
        "jobs": n_jobs,
        "events": events,
        "seconds": round(seconds, 6),
        "events_per_sec": round(events / seconds, 2),
        "peak_rss_kb": _peak_rss_kb(),
    }


def bench_simulator(n_jobs: int, seed: int = 11, policy: str = "elastic") -> Dict:
    """End-to-end simulator throughput, streaming metrics mode.

    ``policy`` is any registry-resolved name: the suite's ``easy_*`` row
    drives the generalized (hooked) engine paths through a non-paper
    policy so a regression in them is caught by the same gate as the
    paper hot path.
    """
    from .schedsim import ScheduleSimulator
    from .workloads import PoissonArrivals, SyntheticWorkload, UniformMix

    source = SyntheticWorkload(
        n_jobs, PoissonArrivals(SIM_RATE), UniformMix(), seed=seed
    )
    simulator = ScheduleSimulator(REGISTRY.resolve(policy), total_slots=SIM_SLOTS)
    _reset_rss_peak()
    begin = time.perf_counter()
    result = simulator.run(source.submissions(), retain="metrics")
    seconds = time.perf_counter() - begin
    events = simulator.engine.events_executed
    assert result.metrics.job_count == n_jobs
    return {
        "jobs": n_jobs,
        "events": events,
        "seconds": round(seconds, 6),
        "events_per_sec": round(events / seconds, 2),
        "peak_rss_kb": _peak_rss_kb(),
        "live_job_records": len(simulator.policy._jobs),
    }


def _progress(progress):
    """The suites' progress sink: the caller's hook, or the shared logger.

    All three ``run_*`` suites used to carry identical ``say`` closures;
    they now funnel through :data:`_LOG` (level-aware, so ``repro bench
    --quiet`` and ``REPRO_LOG_LEVEL`` silence them) unless the caller
    supplies an explicit ``progress`` callable.
    """
    return progress if progress is not None else _LOG.info


def run_bench(
    sizes: Sequence[int] = DEFAULT_SIZES,
    reference_max: int = DEFAULT_REFERENCE_MAX,
    progress=None,
) -> Dict:
    """Run the full suite; returns the BENCH_*.json document as a dict."""
    say = _progress(progress)
    begin_wall = time.perf_counter()
    say("calibrating machine score...")
    calibration = calibration_score()
    results: Dict[str, Dict] = {}
    speedups: Dict[str, float] = {}
    for n in sorted(sizes):
        say(f"engine churn, {n} jobs...")
        results[f"engine_{n}"] = bench_engine_churn(n)
        if n <= reference_max:
            say(f"reference engine churn, {n} jobs...")
            results[f"reference_{n}"] = bench_engine_churn(n, reference=True)
            speedups[str(n)] = round(
                results[f"engine_{n}"]["events_per_sec"]
                / results[f"reference_{n}"]["events_per_sec"],
                2,
            )
    for n in sorted(sizes):
        say(f"simulator, {n} jobs...")
        results[f"simulator_{n}"] = bench_simulator(n)
    # One registry-resolved non-paper policy row: EASY backfilling runs
    # the hook stages (the backfill gate on Figure-2 arrivals past a
    # waiting queue and in the indexed Figure-3 walk), so a slowdown
    # there is caught by the same normalized gate as the paper hot path.
    # Capped at 2k jobs: the walk skips whole running and priced-out
    # queue blocks, but the rule still tests every waiter that fits the
    # budget, and on this saturating stream those grow with the backlog
    # (about 19 tests per job at 1k jobs, 170 at 8k), so wall time still
    # grows super-linearly.
    easy_n = min(2_000, max(sizes))
    say(f"simulator (easy-backfill), {easy_n} jobs...")
    results[f"simulator_easy_{easy_n}"] = bench_simulator(
        easy_n, policy="easy-backfill"
    )
    for row in results.values():
        row["normalized"] = round(row["events_per_sec"] / calibration, 6)
    config = {"sizes": sorted(sizes), "reference_max": reference_max}
    return {
        "benchmark": "policy_engine",
        "schema": SCHEMA_VERSION,
        "schema_version": SCHEMA_VERSION,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "calibration_ops_per_sec": round(calibration, 2),
        "manifest": RunManifest.collect(
            command="bench --suite engine",
            policy="elastic",
            config=config,
            wall_seconds=time.perf_counter() - begin_wall,
        ).as_dict(),
        "results": results,
        "speedup_vs_reference": speedups,
    }


#: The cloud churn fleet: spot-heavy and volatile, so interruptions,
#: forced evictions, drains, and regrows all flow through the policy
#: engine's capacity transitions.
def _churn_scenario():
    from .cloud.sweep import CloudScenario

    return CloudScenario(
        initial_nodes=2, min_nodes=2, max_nodes=8,
        spot_nodes=4, spot_mean_lifetime=900.0, provision_delay=60.0,
    )


def bench_cloud_churn(n_jobs: int, seed: int = 18) -> Dict:
    """End-to-end cloud-simulator throughput under heavy spot churn.

    Bounds what the elastic-capacity layer adds on top of the
    fixed-capacity hot path; runs through :func:`repro.cloud.sweep
    .run_cloud_once` so the measured stack is exactly the `repro cloud`
    wiring.
    """
    from .cloud.sweep import run_cloud_once

    scenario = _churn_scenario()
    _reset_rss_peak()
    begin = time.perf_counter()
    result, simulator = run_cloud_once(
        "elastic", "queue", scenario, submission_gap=15.0, seed=seed,
        num_jobs=n_jobs, retain="metrics", with_simulator=True,
    )
    seconds = time.perf_counter() - begin
    events = simulator.engine.events_executed
    assert result.metrics.job_count == n_jobs
    return {
        "jobs": n_jobs,
        "events": events,
        "seconds": round(seconds, 6),
        "events_per_sec": round(events / seconds, 2),
        "peak_rss_kb": _peak_rss_kb(),
        "interruptions": result.cost.interruptions,
        "cost_per_job": round(result.cost.cost_per_job, 6),
    }


def bench_cloud_grid(num_jobs: int = 24, seed: int = 5) -> Dict:
    """One serial pass over the full autoscaler × policy grid.

    Runs every cell in-process (no pool, no trial cache) so the measured
    events/sec is the grid's intrinsic simulation cost — the `repro cloud
    sweep` workload with the parallel machinery factored out.
    """
    from .cloud.autoscaler import AUTOSCALER_NAMES
    from .cloud.sweep import run_cloud_once

    cells = 0
    events = 0
    _reset_rss_peak()
    begin = time.perf_counter()
    for autoscaler_name in AUTOSCALER_NAMES:
        for policy_name in REGISTRY.paper_policies():
            result, simulator = run_cloud_once(
                policy_name, autoscaler_name, submission_gap=60.0,
                seed=seed, num_jobs=num_jobs, retain="metrics",
                with_simulator=True,
            )
            assert result.metrics.job_count == num_jobs
            events += simulator.engine.events_executed
            cells += 1
    seconds = time.perf_counter() - begin
    return {
        "jobs": cells * num_jobs,
        "cells": cells,
        "events": events,
        "seconds": round(seconds, 6),
        "events_per_sec": round(events / seconds, 2),
        "peak_rss_kb": _peak_rss_kb(),
    }


def run_cloud_bench(
    churn_sizes: Sequence[int] = CLOUD_CHURN_SIZES,
    progress=None,
) -> Dict:
    """The ``--suite cloud`` benchmarks → the ``BENCH_cloud.json`` document."""
    say = _progress(progress)
    begin_wall = time.perf_counter()
    say("calibrating machine score...")
    calibration = calibration_score()
    results: Dict[str, Dict] = {}
    for n in sorted(churn_sizes):
        say(f"spot churn, {n} jobs...")
        results[f"cloud_churn_{n}"] = bench_cloud_churn(n)
    say("autoscaler x policy grid...")
    results["cloud_grid"] = bench_cloud_grid()
    for row in results.values():
        row["normalized"] = round(row["events_per_sec"] / calibration, 6)
    return {
        "benchmark": "cloud",
        "schema": SCHEMA_VERSION,
        "schema_version": SCHEMA_VERSION,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "calibration_ops_per_sec": round(calibration, 2),
        "manifest": RunManifest.collect(
            command="bench --suite cloud",
            policy="elastic",
            config={"churn_sizes": sorted(churn_sizes)},
            wall_seconds=time.perf_counter() - begin_wall,
        ).as_dict(),
        "results": results,
    }


def bench_faults_churn(n_jobs: int = 2_000, seed: int = 18) -> Dict:
    """Cloud-simulator throughput with the full fault stack attached.

    A synthesized plan spreads crashes, noticed interruptions, and
    degraded-provisioning windows across the whole arrival span, and a
    checkpoint store is attached — so the measured events/sec includes
    notice handling, checkpoint writes, restarts, retry/backoff chains,
    and breaker bookkeeping.  Compared against ``cloud_churn_*`` this
    bounds what fault injection adds to the capacity hot path.
    """
    from .faults.plan import FaultLoad, FaultPlan
    from .faults.runner import run_fault_scenario

    gap = 15.0
    horizon = n_jobs * gap
    plan = FaultPlan.synthesize(
        seed, horizon,
        FaultLoad(crashes=8, interruptions=12, notice=120.0,
                  fail_windows=3, timeout_windows=2, shortage_windows=2,
                  window_duration=900.0),
    )
    _reset_rss_peak()
    begin = time.perf_counter()
    run, simulator = run_fault_scenario(
        plan=plan, seed=seed, num_jobs=n_jobs, submission_gap=gap,
        retain="metrics", with_simulator=True,
    )
    seconds = time.perf_counter() - begin
    events = simulator.engine.events_executed
    report = run.faults
    return {
        "jobs": n_jobs,
        "events": events,
        "seconds": round(seconds, 6),
        "events_per_sec": round(events / seconds, 2),
        "peak_rss_kb": _peak_rss_kb(),
        "evictions": report.evictions,
        "checkpoints_written": report.checkpoints_written,
        "provision_retries": report.provision_retries,
        "goodput_fraction": round(report.goodput_fraction, 6),
    }


def bench_faults_chaos(checkpoints: bool, seed: int = 0) -> Dict:
    """One reference chaos run; timing plus the recovery story."""
    from .faults.runner import run_fault_scenario

    _reset_rss_peak()
    begin = time.perf_counter()
    run, simulator = run_fault_scenario(
        seed=seed, checkpoints=checkpoints, with_simulator=True
    )
    seconds = time.perf_counter() - begin
    events = simulator.engine.events_executed
    report = run.faults
    return {
        "jobs": run.result.metrics.job_count,
        "events": events,
        "seconds": round(seconds, 6),
        "events_per_sec": round(events / seconds, 2),
        "peak_rss_kb": _peak_rss_kb(),
        "makespan": round(run.result.makespan, 2),
        "goodput_fraction": round(report.goodput_fraction, 6),
        "goodput_slot_seconds": round(report.goodput_slot_seconds, 2),
        "lost_slot_seconds": round(report.lost_slot_seconds, 2),
        "recovered_slot_seconds": round(report.recovered_slot_seconds, 2),
        "evictions": report.evictions,
        "restarts_from_checkpoint": report.restarts_from_checkpoint,
        "checkpoints_written": report.checkpoints_written,
        "decision_digest": run.digest,
        # ~24-job runs finish in milliseconds; the timing is too noisy
        # to gate, but the goodput columns (virtual-time, deterministic)
        # feed the faults_recovery_delta gating row below.
        "informational": True,
    }


def run_faults_bench(progress=None) -> Dict:
    """The ``--suite faults`` benchmarks → ``BENCH_faults.json``.

    ``faults_churn_2000`` gates fault-stack throughput (normalized
    events/sec, like the cloud suite); ``faults_recovery_delta`` gates
    the *recovery value* itself — its ``normalized`` is the checkpoint
    on-vs-off goodput-fraction delta, a pure virtual-time number that is
    identical on every machine, so any behavioral regression in the
    checkpoint/restart path trips the same 30% gate CI already runs.
    """
    say = _progress(progress)
    begin_wall = time.perf_counter()
    say("calibrating machine score...")
    calibration = calibration_score()
    results: Dict[str, Dict] = {}
    say("fault-stack churn, 2000 jobs...")
    results["faults_churn_2000"] = bench_faults_churn()
    say("reference chaos, checkpoints on...")
    on = bench_faults_chaos(checkpoints=True)
    say("reference chaos, checkpoints off...")
    off = bench_faults_chaos(checkpoints=False)
    results["faults_chaos_on"] = on
    results["faults_chaos_off"] = off
    for row in results.values():
        row["normalized"] = round(row["events_per_sec"] / calibration, 6)
    results["faults_recovery_delta"] = {
        "goodput_fraction_on": on["goodput_fraction"],
        "goodput_fraction_off": off["goodput_fraction"],
        "recovered_slot_seconds": on["recovered_slot_seconds"],
        "lost_delta_slot_seconds": round(
            off["lost_slot_seconds"] - on["lost_slot_seconds"], 2
        ),
        "normalized": round(
            on["goodput_fraction"] - off["goodput_fraction"], 6
        ),
    }
    return {
        "benchmark": "faults",
        "schema": SCHEMA_VERSION,
        "schema_version": SCHEMA_VERSION,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "calibration_ops_per_sec": round(calibration, 2),
        "manifest": RunManifest.collect(
            command="bench --suite faults",
            policy="elastic",
            config={"churn_jobs": 2_000, "chaos_seed": 0},
            wall_seconds=time.perf_counter() - begin_wall,
        ).as_dict(),
        "results": results,
    }


def run_sweep_bench(
    trials: int = 10,
    gaps: Sequence[float] = (0.0, 150.0, 300.0),
    policies: Sequence[str] = ("elastic", "moldable"),
    progress=None,
) -> Dict:
    """Sweep + trial-cache benchmark → the ``BENCH_sweep.json`` document.

    Three scenarios over one policies x gaps x trials grid:

    * ``sweep_cold`` — the grid simulated from scratch into a fresh
      cache; ``normalized`` is trials/sec over the calibration score
      (the sweep-throughput regression trajectory);
    * ``sweep_warm`` — the identical grid again; ``normalized`` is the
      trial-cache hit rate (1.0 when the cache works; dimensionless, so
      the CI threshold gates cache breakage, not machine noise);
    * ``sweep_edit`` — one grid value changed; ``normalized`` is the hit
      rate of the re-run, i.e. the fraction of the grid that did *not*
      re-simulate (expected ``1 - 1/len(gaps)``).
    """
    import shutil
    import tempfile

    from .schedsim import TrialCache, sweep_submission_gap

    say = _progress(progress)
    begin_wall = time.perf_counter()
    say("calibrating machine score...")
    calibration = calibration_score()
    grid = dict(trials=trials, policies=tuple(policies))
    total = len(policies) * len(gaps) * trials
    root = tempfile.mkdtemp(prefix="repro-bench-sweep-")
    results: Dict[str, Dict] = {}
    try:
        cache = TrialCache(root)
        say(f"cold sweep, {total} trials...")
        begin = time.perf_counter()
        cold = sweep_submission_gap(gaps=gaps, cache=cache, **grid)
        seconds = time.perf_counter() - begin
        results["sweep_cold"] = {
            "trials": total,
            "seconds": round(seconds, 6),
            "trials_per_sec": round(total / seconds, 2),
            "hit_rate": round(cache.hit_rate, 4),
            "normalized": round(total / seconds / calibration, 6),
            # Calibration normalization does not fully cancel the pool /
            # process-spawn costs in a 60-trial grid, so this timing row
            # is too machine-sensitive to gate: it is recorded for the
            # trajectory but skipped by compare_results.  The warm/edit
            # hit-rate rows are dimensionless and *do* gate.
            "informational": True,
        }

        say("warm sweep (identical grid)...")
        cache = TrialCache(root)  # fresh counters, same store
        begin = time.perf_counter()
        warm = sweep_submission_gap(gaps=gaps, cache=cache, **grid)
        seconds = time.perf_counter() - begin
        if warm.stats != cold.stats:
            # A real error, not an assert: under ``python -O`` an assert
            # would let a corrupt cache report a perfect hit rate.
            raise RuntimeError(
                "trial cache served results diverging from the cold sweep"
            )
        results["sweep_warm"] = {
            "trials": total,
            "seconds": round(seconds, 6),
            "trials_per_sec": round(total / seconds, 2),
            "hit_rate": round(cache.hit_rate, 4),
            "speedup_vs_cold": round(
                results["sweep_cold"]["seconds"] / seconds, 2
            ),
            "normalized": round(cache.hit_rate, 6),
        }

        say("one-cell edit re-run...")
        cache = TrialCache(root)
        edited = list(gaps)
        # One grid value changes; max+25 cannot collide with an existing
        # value, so exactly one column misses and the rest must hit.
        edited[-1] = max(gaps) + 25.0
        begin = time.perf_counter()
        sweep_submission_gap(gaps=tuple(edited), cache=cache, **grid)
        seconds = time.perf_counter() - begin
        per_value = len(policies) * trials
        results["sweep_edit"] = {
            "trials": total,
            "seconds": round(seconds, 6),
            "trials_per_sec": round(total / seconds, 2),
            "reran_trials": cache.misses,
            "expected_reran": per_value,
            "hit_rate": round(cache.hit_rate, 4),
            "normalized": round(cache.hit_rate, 6),
        }
    finally:
        shutil.rmtree(root, ignore_errors=True)
    grid_doc = {
        "policies": list(policies),
        "gaps": list(gaps),
        "trials": trials,
    }
    return {
        "benchmark": "sweep",
        "schema": SCHEMA_VERSION,
        "schema_version": SCHEMA_VERSION,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "calibration_ops_per_sec": round(calibration, 2),
        "manifest": RunManifest.collect(
            command="bench --suite sweep",
            config=grid_doc,
            wall_seconds=time.perf_counter() - begin_wall,
        ).as_dict(),
        "grid": grid_doc,
        "results": results,
    }


def compare_results(
    current: Dict, baseline: Dict, threshold: float = 0.30
) -> List[str]:
    """Regression check: normalized values vs the committed baseline.

    Returns human-readable failure strings (empty = gate passes).  Only
    gating rows compare: ``reference_*`` rows are informational (the
    reference is *supposed* to be slow), as is any row the baseline
    flags ``informational`` (machine-sensitive timing rows like the
    sweep suite's cold run, recorded for the trajectory but not gated).
    """
    failures = []
    current_schema = current.get("schema_version", current.get("schema"))
    baseline_schema = baseline.get("schema_version", baseline.get("schema"))
    if current_schema != baseline_schema:
        # Schema drift is expected right after a format bump — the
        # committed baseline lags one commit behind.  Warn so the gate
        # output records it, but still compare the rows both versions
        # share; a hard failure here would block the very commit that
        # refreshes the baseline.
        warnings.warn(
            f"benchmark schema mismatch: measured v{current_schema} vs "
            f"baseline v{baseline_schema} — comparing shared rows only; "
            "refresh the committed BENCH_*.json baseline",
            RuntimeWarning,
            stacklevel=2,
        )
    current_suite = current.get("benchmark")
    baseline_suite = baseline.get("benchmark")
    if current_suite != baseline_suite:
        # Catch the copy-paste mistake up front instead of reporting
        # every row of the other suite as "not measured".
        return [
            f"suite mismatch: measured {current_suite!r} but the baseline "
            f"is {baseline_suite!r} — compare against the matching "
            "BENCH_*.json"
        ]
    for key, base_row in baseline.get("results", {}).items():
        if key.startswith("reference_") or base_row.get("informational"):
            continue
        row = current.get("results", {}).get(key)
        if row is None:
            failures.append(f"{key}: present in baseline but not measured")
            continue
        floor = base_row["normalized"] * (1.0 - threshold)
        if row["normalized"] < floor:
            failures.append(
                f"{key}: normalized events/sec {row['normalized']:.6f} is "
                f"{100 * (1 - row['normalized'] / base_row['normalized']):.1f}% below "
                f"baseline {base_row['normalized']:.6f} "
                f"(threshold {100 * threshold:.0f}%)"
            )
    return failures


def check_speedup(current: Dict, min_speedup: float, at_jobs: int) -> Optional[str]:
    """Acceptance gate: optimized/reference ratio at ``at_jobs`` jobs."""
    ratio = current.get("speedup_vs_reference", {}).get(str(at_jobs))
    if ratio is None:
        return f"no reference measurement at {at_jobs} jobs to compare against"
    if ratio < min_speedup:
        return (
            f"speedup vs reference at {at_jobs} jobs is {ratio:.2f}x, "
            f"below the required {min_speedup:.1f}x"
        )
    return None


def format_results(document: Dict) -> str:
    if document.get("benchmark") == "sweep":
        return _format_sweep_results(document)
    if document.get("benchmark") == "faults":
        return _format_faults_results(document)
    lines = [
        f"# {document.get('benchmark', 'policy_engine')} bench — python "
        f"{document['python']} ({document['machine']}), "
        f"calibration {document['calibration_ops_per_sec']:.0f} ops/s",
        f"{'scenario':>18} {'jobs':>8} {'events':>9} {'seconds':>9} "
        f"{'events/s':>11} {'norm':>9} {'rss_kb':>9}",
    ]
    for key, row in document["results"].items():
        lines.append(
            f"{key:>18} {row['jobs']:>8} {row['events']:>9} "
            f"{row['seconds']:>9.3f} {row['events_per_sec']:>11.0f} "
            f"{row['normalized']:>9.4f} {row['peak_rss_kb']:>9}"
        )
    for jobs, ratio in document.get("speedup_vs_reference", {}).items():
        lines.append(f"speedup vs pre-PR engine at {jobs} jobs: {ratio:.2f}x")
    return "\n".join(lines)


def _format_faults_results(document: Dict) -> str:
    lines = [
        f"# faults bench — python {document['python']} "
        f"({document['machine']}), "
        f"calibration {document['calibration_ops_per_sec']:.0f} ops/s",
        f"{'scenario':>20} {'jobs':>6} {'events':>8} {'seconds':>9} "
        f"{'events/s':>11} {'goodput':>8} {'norm':>9}",
    ]
    for key, row in document["results"].items():
        if "events" not in row:
            continue
        goodput = row.get("goodput_fraction")
        lines.append(
            f"{key:>20} {row['jobs']:>6} {row['events']:>8} "
            f"{row['seconds']:>9.3f} {row['events_per_sec']:>11.0f} "
            f"{goodput:>8.2%} {row['normalized']:>9.4f}"
        )
    delta = document["results"].get("faults_recovery_delta")
    if delta:
        lines.append(
            f"recovery delta: goodput {delta['goodput_fraction_on']:.2%} "
            f"(ckpt on) vs {delta['goodput_fraction_off']:.2%} (off), "
            f"{delta['recovered_slot_seconds']:,.0f} slot-s recovered, "
            f"{delta['lost_delta_slot_seconds']:,.0f} slot-s less lost"
        )
    return "\n".join(lines)


def _format_sweep_results(document: Dict) -> str:
    grid = document["grid"]
    lines = [
        f"# sweep bench — python {document['python']} "
        f"({document['machine']}), "
        f"calibration {document['calibration_ops_per_sec']:.0f} ops/s, "
        f"grid {len(grid['policies'])}x{len(grid['gaps'])}x{grid['trials']}",
        f"{'scenario':>12} {'trials':>7} {'seconds':>9} {'trials/s':>10} "
        f"{'hit_rate':>9} {'norm':>9}",
    ]
    for key, row in document["results"].items():
        lines.append(
            f"{key:>12} {row['trials']:>7} {row['seconds']:>9.3f} "
            f"{row['trials_per_sec']:>10.0f} {row['hit_rate']:>9.2%} "
            f"{row['normalized']:>9.6f}"
        )
    warm = document["results"].get("sweep_warm", {})
    if "speedup_vs_cold" in warm:
        lines.append(f"warm sweep vs cold: {warm['speedup_vs_cold']:.1f}x")
    return "\n".join(lines)


def write_results(document: Dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_results(path: str) -> Dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def main_bench(args) -> int:
    """Entry point for the ``repro bench`` CLI verb."""
    if getattr(args, "quiet", False):
        set_level("warning")
    progress = None  # the suites log through repro.obs.log
    suite = getattr(args, "suite", "engine")
    output = args.output
    if suite in ("sweep", "cloud", "faults"):
        # Refuse engine-only flags rather than silently dropping them
        # (or "passing" a gate that never ran).
        for flag, value in (("--min-speedup", args.min_speedup),
                            ("--sizes", args.sizes),
                            ("--reference-max", args.reference_max)):
            if value is not None:
                print(
                    f"error: {flag} applies to the engine suite only "
                    "(--suite engine)",
                    file=sys.stderr,
                )
                return 2
        if suite == "sweep":
            document = run_sweep_bench(progress=progress)
            if output is None:
                output = DEFAULT_SWEEP_OUTPUT
        elif suite == "faults":
            document = run_faults_bench(progress=progress)
            if output is None:
                output = DEFAULT_FAULTS_OUTPUT
        else:
            document = run_cloud_bench(progress=progress)
            if output is None:
                output = DEFAULT_CLOUD_OUTPUT
    else:
        sizes_arg = args.sizes if args.sizes is not None else "1000,10000,100000"
        sizes = tuple(int(s) for s in sizes_arg.split(",") if s.strip())
        reference_max = (
            args.reference_max
            if args.reference_max is not None
            else DEFAULT_REFERENCE_MAX
        )
        document = run_bench(
            sizes=sizes,
            reference_max=reference_max,
            progress=progress,
        )
        if output is None:
            output = DEFAULT_OUTPUT
    print(format_results(document))
    if output:
        write_results(document, output)
        print(f"[results written to {output}]")
    status = 0
    if suite in ("engine", "policy_engine") and args.min_speedup is not None:
        problem = check_speedup(document, args.min_speedup, args.speedup_jobs)
        if problem:
            print(f"SPEEDUP GATE FAILED: {problem}", file=sys.stderr)
            status = 1
        else:
            print(f"speedup gate passed (>= {args.min_speedup:.1f}x)")
    if args.baseline:
        baseline = load_results(args.baseline)
        failures = compare_results(document, baseline, threshold=args.threshold)
        if failures:
            for failure in failures:
                print(f"REGRESSION: {failure}", file=sys.stderr)
            status = 1
        else:
            print(
                f"regression gate passed (threshold "
                f"{100 * args.threshold:.0f}% vs {args.baseline})"
            )
    return status
