#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload paper_stream --seed 1 --seconds 10 --trace 0

``--trace 0`` is the measured run: it repeats passes of the workload for
``--seconds`` of wall time and prints every end-to-end metric, speed
corrected (see ``measure.py``).  ``--trace 1`` is the traced run: one
pass with wrappers around each layer's public calls, printing the
per-layer metrics and writing a Chrome-trace JSON file.  ``--repeat K``
runs the measured run K times, each in a fresh process with seeds
``seed .. seed+K-1``, and prints each metric's quartiles, corrected and
raw side by side.

Run from the repository root; the program is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FINGERPRINTS = os.path.join(HERE, "fingerprints.json")
#: Fresh processes that time set-up; setup_s is their median.
SETUP_REPEATS = 5


def _import_program():
    """Import the program from ``src/``; exits 2 when it is absent."""
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    try:
        import repro  # noqa: F401
    except ImportError as err:
        print(f"error: cannot import the program from {ROOT}/src: {err}",
              file=sys.stderr)
        sys.exit(2)


def _error(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


def _recorded_fingerprints(workload: str):
    try:
        with open(FINGERPRINTS, encoding="utf-8") as handle:
            return json.load(handle).get(workload, {})
    except (OSError, ValueError):
        return {}


class Checker:
    """Counts attempted/failed jobs and checks fingerprints per unit."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        from workloads import PINNED_SEED

        self.recorded = (_recorded_fingerprints(workload)
                         if seed == PINNED_SEED else {})
        self.pinned = seed == PINNED_SEED
        self.seen = {}
        self.attempted = 0
        self.failed = 0

    def unit(self, label: str, jobs: int, result=None, error=None) -> None:
        self.attempted += jobs
        problems = list(result.problems) if result is not None else [error]
        if result is not None:
            fp = result.fingerprint
            first = self.seen.setdefault(label, fp)
            if fp != first:
                problems.append(f"{label}: fingerprint changed between passes "
                                f"({first} then {fp})")
            if self.pinned:
                want = self.recorded.get(label)
                if want is None:
                    problems.append(f"{label}: no recorded fingerprint")
                elif want != fp:
                    problems.append(f"{label}: fingerprint {fp} != recorded {want}")
        for problem in problems:
            _error(f"{self.workload}/{label}: {problem}")
        if problems:
            self.failed += jobs


def _run_units(wl, inputs, probe, checker, meter=None):
    for label, build in wl.units(inputs, probe):
        try:
            go = build()
            if meter is not None:
                meter.begin()
            try:
                result = go()
            finally:
                if meter is not None:
                    meter.end()
        except Exception as err:  # noqa: BLE001 - a failed run is counted, not raised
            checker.unit(label, wl.jobs, error=f"{type(err).__name__}: {err}")
        else:
            checker.unit(label, result.jobs, result=result)


def setup_only(workload: str, seed: int) -> None:
    """Child process: time imports, input and simulator construction."""
    sys.path.insert(0, HERE)
    from measure import NOMINAL_SLICE_S, reference_slice

    before = [reference_slice() for _ in range(3)]
    begin = perf_counter()
    _import_program()
    from workloads import WORKLOADS, Probe

    wl = WORKLOADS[workload]
    inputs = wl.inputs(seed, wl.jobs)
    for _label, build in wl.units(inputs, Probe()):
        build()
    raw = perf_counter() - begin
    after = [reference_slice() for _ in range(3)]
    ref = statistics.median(before + after)
    print(json.dumps({"raw": raw, "corrected": raw * NOMINAL_SLICE_S / ref}))


def _setup_seconds(workload: str, seed: int):
    corrected, raw = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
        row = json.loads(proc.stdout.strip().splitlines()[-1])
        corrected.append(row["corrected"])
        raw.append(row["raw"])
    return statistics.median(corrected), statistics.median(raw)


def measured(workload: str, seed: int, seconds: float) -> dict:
    from measure import Meter, percentile
    from metered import MeteredProbe
    from workloads import WORKLOADS, Probe

    wl = WORKLOADS[workload]
    setup_s, setup_raw = _setup_seconds(workload, seed)
    inputs = wl.inputs(seed, wl.jobs)
    # Lazy set-up (registry discovery, model memos, first-call paths)
    # finishes on a small warm-up draw before anything is timed.
    _run_units(wl, wl.inputs(seed + 1, wl.warmup_jobs), Probe(),
               Checker(workload, seed + 1))
    gc.collect()
    meter = Meter()
    probe = MeteredProbe(meter, wl.chunk)
    checker = Checker(workload, seed)
    begin = perf_counter()
    passes = 0
    while passes < wl.min_passes or perf_counter() - begin < seconds:
        _run_units(wl, inputs, probe, checker, meter)
        passes += 1
    wall = perf_counter() - begin
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    completed = checker.attempted - checker.failed
    metrics = {
        "jobs_per_s": (completed / meter.corrected_seconds(), "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    raw = {"jobs_per_s": completed / meter.work_seconds(), "setup_s": setup_raw,
           "passes": passes, "segments": len(meter.segments),
           "wall_s": wall, "work_s": meter.work_seconds(),
           "ref_slice_ms": statistics.median(meter.slices) * 1e3}
    for series in ("submit", "complete"):
        corrected = meter.corrected_samples(series)
        for tag, q in (("p50", 0.5), ("tail", wl.tail_q)):
            name = f"{series}_{tag}_us"
            metrics[name] = (percentile(corrected, q) * 1e6, "us")
            raw[name] = percentile(meter.samples[series], q) * 1e6
        raw[f"{series}_samples"] = len(corrected)
    print("diagnostics " + json.dumps(raw))
    return {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def repeat(workload: str, seed: int, seconds: float, k: int) -> None:
    """Steadiness evidence: k fresh-process runs, quartiles per metric."""
    from measure import quartiles

    corrected, raw = {}, {}
    for i in range(k):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed + i), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=600, cwd=ROOT, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"error: run {i} failed: {proc.stderr.strip()}")
        result = json.loads(lines[-1])
        if not result["correct"]:
            _error(f"run {i} (seed {seed + i}) failed its output checks")
        for name, metric in result["metrics"].items():
            corrected.setdefault(name, []).append(metric["value"])
        for line in lines:
            if line.startswith("diagnostics "):
                for name, value in json.loads(line[len("diagnostics "):]).items():
                    raw.setdefault(name, []).append(value)
    print(f"{workload}: {k} runs, seeds {seed}..{seed + k - 1}, {seconds:g} s each")
    print(f"{'metric':<18} {'median':>11} {'q1':>11} {'q3':>11} {'spread':>7}"
          f" | {'raw median':>11} {'raw spread':>10}")
    for name, values in corrected.items():
        q1, med, q3 = quartiles(values)
        line = (f"{name:<18} {med:>11.4g} {q1:>11.4g} {q3:>11.4g} "
                f"{(q3 - q1) / med:>7.2%}")
        if name in raw:
            rq1, rmed, rq3 = quartiles(raw[name])
            line += f" | {rmed:>11.4g} {(rq3 - rq1) / rmed:>10.2%}"
        print(line)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=32)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_only:
        setup_only(args.workload, args.seed)
        return 0
    _import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        _error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
        return 2
    if args.repeat:
        repeat(args.workload, args.seed, args.seconds, args.repeat)
        return 0
    if args.trace:
        from trace_run import traced

        result = traced(args.workload, args.seed)
    else:
        result = measured(args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
