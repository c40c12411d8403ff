#!/usr/bin/env python3
"""A/B speed gate: perfbench at a base revision against the working tree.

    python3 benchmarks/perf_gate.py --base origin/main --output gate.json
    python3 benchmarks/perf_gate.py --workload paper_stream

``--base REV`` checks REV out into a temporary git worktree and copies
this tree's ``perfbench/`` over it, so both sides run identical
benchmark code against their own ``src/``.  Each workload then runs
:data:`PAIRS` alternating pairs of fresh ``perfbench/run.py`` processes
(seed :data:`SEED`, ``run_seconds`` from ``BENCHMARK.json``), and every
end-to-end metric gets a verdict under its ``better`` and ``bound``:

* **fail** when the change's median is worse than the parent's by more
  than the bound;
* **unresolved** instead of that fail when the parent's IQR/median is
  wider than the bound, unless every change run is worse than every
  parent run;
* **fail** on every metric of a workload where a change run is not
  ``correct`` or the change's failed/attempted share exceeds the
  parent's;
* **pass** otherwise.

Without ``--base`` the working tree is measured alone and no verdict is
given; the nightly trend history uses this mode.  The exit status is 1
when any verdict fails, 2 on bad input, else 0.  ``--output`` writes
``{"benchmark": "perfbench", "manifest": ..., "results": {workload:
{metric: {unit, bound, parent, change, verdict}}}}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Alternating parent/change pairs per workload.
PAIRS = 5
#: The pinned seed: runs also check decisions against the fingerprints.
SEED = 32


class GateError(Exception):
    """Bad input: reported as ``error: ...`` with exit status 2."""


def load_benchmark(path: str) -> dict:
    """``BENCHMARK.json``, checked for what the gate reads from it."""
    try:
        with open(path, encoding="utf-8") as handle:
            spec = json.load(handle)
        command = list(spec["command"])
        seconds = float(spec["run_seconds"])
        workloads = [w["name"] for w in spec["workloads"]]
        metrics = list(spec["end_to_end"])
    except (OSError, ValueError, KeyError, TypeError) as err:
        raise GateError(f"cannot read {path}: {err!r}") from None
    for metric in metrics:
        name = metric.get("name", "?")
        if metric.get("better") not in ("higher", "lower"):
            raise GateError(f"{path}: metric {name!r} needs better "
                            "'higher' or 'lower'")
        bound = metric.get("bound")
        if isinstance(bound, bool) or not isinstance(bound, (int, float)) \
                or not 0 < bound < 1:
            raise GateError(f"{path}: metric {name!r} needs a bound in (0, 1)")
    return {"command": command, "run_seconds": seconds,
            "workloads": workloads, "metrics": metrics}


def _spread(values: Sequence[float]) -> float:
    """IQR over median, with quartiles as perfbench computes them."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median)


def _failed_share(runs: Sequence[dict]) -> float:
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / attempted if attempted else 0.0


def judge(parent: Sequence[dict], change: Sequence[dict],
          metrics: Sequence[dict]) -> Dict[str, dict]:
    """One workload's verdicts from its parsed perfbench run documents.

    Each run is the JSON object on the last line of ``perfbench/run.py``
    (``correct``, ``attempted``, ``failed``, ``metrics``); ``metrics`` are
    the ``end_to_end`` entries of ``BENCHMARK.json``.  An empty
    ``parent`` gives ``verdict: None`` throughout.
    """
    broken = None
    if parent:
        if not all(run["correct"] for run in change):
            broken = "a change run is not correct"
        elif _failed_share(change) > _failed_share(parent):
            broken = "the change fails a larger share of operations"
    results = {}
    for metric in metrics:
        name = metric["name"]
        before = [run["metrics"][name]["value"] for run in parent]
        after = [run["metrics"][name]["value"] for run in change]
        entry = {"unit": metric["unit"], "bound": metric["bound"],
                 "parent": before, "change": after, "verdict": None}
        results[name] = entry
        if not parent:
            continue
        bound = metric["bound"]
        ratio = statistics.median(after) / statistics.median(before)
        if metric["better"] == "higher":
            loss, all_worse = 1.0 - ratio, max(after) < min(before)
        else:
            loss, all_worse = ratio - 1.0, min(after) > max(before)
        if broken:
            entry["verdict"], entry["reason"] = "fail", broken
        elif loss <= bound:
            entry["verdict"] = "pass"
        elif _spread(before) > bound and not all_worse:
            entry["verdict"] = "unresolved"
            entry["reason"] = (f"change median is {loss:.1%} worse, but the "
                               f"parent IQR/median {_spread(before):.1%} is "
                               f"wider than the {bound:.0%} bound")
        else:
            entry["verdict"] = "fail"
            entry["reason"] = (f"change median is {loss:.1%} worse; "
                               f"the bound is {bound:.0%}")
    return results


def _run(command: List[str], cwd: str, workload: str, seconds: float) -> dict:
    """One fresh perfbench process; its last stdout line, parsed."""
    argv = command + ["--workload", workload, "--seed", str(SEED),
                      "--seconds", f"{seconds:g}", "--trace", "0"]
    proc = subprocess.run(argv, cwd=cwd, capture_output=True, text=True,
                          check=False)
    lines = proc.stdout.strip().splitlines()
    try:
        if proc.returncode != 0 or not lines:
            raise ValueError(f"exit status {proc.returncode}")
        return json.loads(lines[-1])
    except ValueError as err:
        tail = proc.stderr.strip().splitlines()[-1:] or [str(err)]
        raise GateError(f"{workload} run in {cwd} failed: {tail[0]}") from None


def _git(*args: str, cwd: str = ROOT) -> str:
    proc = subprocess.run(["git", *args], cwd=cwd, capture_output=True,
                          text=True, check=False)
    if proc.returncode != 0:
        raise GateError(f"git {' '.join(args)}: {proc.stderr.strip()}")
    return proc.stdout.strip()


def measure(spec: dict, workloads: Sequence[str],
            base_dir: Optional[str]) -> Dict[str, Dict[str, dict]]:
    """Run every workload's pairs and judge them."""
    results = {}
    for workload in workloads:
        parent: List[dict] = []
        change: List[dict] = []
        for pair in range(PAIRS):
            sides = [(change, ROOT)]
            if base_dir is not None:
                # Alternate which side goes first, so drift hits both.
                sides.insert(pair % 2, (parent, base_dir))
            for runs, cwd in sides:
                runs.append(_run(spec["command"], cwd, workload,
                                 spec["run_seconds"]))
            print(f"{workload}: pair {pair + 1}/{PAIRS} done", file=sys.stderr)
        results[workload] = judge(parent, change, spec["metrics"])
    return results


def report(results: Dict[str, Dict[str, dict]]) -> str:
    """One line per workload × metric: medians, delta against its bound
    (``+12.7% / 15%``, so a metric near its bound shows) and verdict."""
    lines = [f"{'workload':<14} {'metric':<18} {'parent':>10} {'change':>10} "
             f"{'delta / bound':>15}  verdict"]
    for workload, metrics in results.items():
        for name, entry in metrics.items():
            after = statistics.median(entry["change"])
            before = delta = "-"
            if entry["parent"]:
                parent = statistics.median(entry["parent"])
                before = f"{parent:.4g}"
                delta = f"{after / parent - 1:+.1%} / {entry['bound']:.0%}"
            reason = f" ({entry['reason']})" if "reason" in entry else ""
            lines.append(f"{workload:<14} {name:<18} {before:>10} "
                         f"{after:>10.4g} {delta:>15}  "
                         f"{entry['verdict'] or '-'}{reason}")
    return "\n".join(lines)


def gate(base: Optional[str], workloads: Optional[Sequence[str]]) -> dict:
    """Measure (and, with ``base``, judge); returns the gate document."""
    spec = load_benchmark(os.path.join(ROOT, "BENCHMARK.json"))
    chosen = list(workloads or spec["workloads"])
    unknown = sorted(set(chosen) - set(spec["workloads"]))
    if unknown:
        raise GateError(f"unknown workload(s) {unknown}; choose from "
                        f"{spec['workloads']}")
    begin = time.perf_counter()
    base_sha = None
    if base is None:
        results = measure(spec, chosen, None)
    else:
        try:
            base_sha = _git("rev-parse", "--verify", "--quiet",
                            f"{base}^{{commit}}")
        except GateError:
            raise GateError(f"unknown --base revision {base!r}") from None
        scratch = tempfile.mkdtemp(prefix="perf-gate-")
        checkout = os.path.join(scratch, "base")
        try:
            _git("worktree", "add", "--detach", checkout, base_sha)
            shutil.rmtree(os.path.join(checkout, "perfbench"),
                          ignore_errors=True)
            shutil.copytree(os.path.join(ROOT, "perfbench"),
                            os.path.join(checkout, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            results = measure(spec, chosen, checkout)
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", checkout],
                           cwd=ROOT, capture_output=True, check=False)
            shutil.rmtree(scratch, ignore_errors=True)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.obs.manifest import RunManifest

    manifest = RunManifest.collect(
        command="perf_gate" + (f" --base {base}" if base else ""),
        seed=SEED,
        config={"workloads": chosen, "pairs": PAIRS,
                "run_seconds": spec["run_seconds"]},
        wall_seconds=time.perf_counter() - begin,
        base_sha=base_sha,
    )
    return {"benchmark": "perfbench", "manifest": manifest.as_dict(),
            "results": results}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", metavar="REV",
                        help="git revision to judge the working tree against")
    parser.add_argument("--workload", action="append", metavar="NAME",
                        help="repeatable; default: every BENCHMARK.json "
                             "workload")
    parser.add_argument("--output", metavar="PATH",
                        help="write the gate document here")
    args = parser.parse_args(argv)
    try:
        document = gate(args.base, args.workload)
    except GateError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(report(document["results"]))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
    verdicts = [entry["verdict"] for metrics in document["results"].values()
                for entry in metrics.values()]
    if "fail" in verdicts:
        print("perf gate FAILED", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
