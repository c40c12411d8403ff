"""The ``repro obs`` CLI verbs: trace export and the trend dashboard.

``repro obs export-trace`` runs one instrumented workload — the plain
§4.3.1 simulator, or the autoscaled cloud substrate with ``--cloud`` —
with a tracer attached, and writes the Chrome-trace/Perfetto JSON that
https://ui.perfetto.dev loads directly.  ``repro obs dashboard`` renders
the static-HTML trend page from a directory of the documents
``benchmarks/perf_gate.py`` writes.
"""

from __future__ import annotations

import json
import time

from .dashboard import write_dashboard
from .log import get_logger
from .manifest import RunManifest
from .perfetto import to_chrome_trace

__all__ = ["main_obs"]

DEFAULT_TRACE_OUTPUT = "trace.json"
DEFAULT_DASHBOARD_OUTPUT = "dashboard.html"

log = get_logger("repro.obs")


def _export_trace(args) -> int:
    from ..scheduling.registry import REGISTRY
    from ..sim import Engine, Tracer

    output = args.output or DEFAULT_TRACE_OUTPUT
    begin = time.perf_counter()
    if args.cloud:
        from ..cloud.sweep import run_cloud_once

        log.info("tracing cloud run", jobs=args.jobs, policy=args.policy,
                 autoscaler=args.autoscaler)
        tracer = Tracer(None)  # the simulator binds its engine
        run_cloud_once(
            args.policy, args.autoscaler,
            submission_gap=args.gap, rescale_gap=args.rescale_gap,
            seed=args.seed, num_jobs=args.jobs, retain="metrics",
            tracer=tracer,
        )
        engine = tracer.engine
    else:
        from ..schedsim import ScheduleSimulator, WorkloadSpec, generate_workload

        log.info("tracing simulator run", jobs=args.jobs, policy=args.policy)
        engine = Engine()
        tracer = Tracer(engine)
        simulator = ScheduleSimulator(
            REGISTRY.resolve(args.policy, rescale_gap=args.rescale_gap),
            total_slots=args.slots,
            engine=engine,
            tracer=tracer,
        )
        spec = WorkloadSpec(
            num_jobs=args.jobs, submission_gap=args.gap, seed=args.seed
        )
        simulator.run(generate_workload(spec), retain="metrics")
    wall = time.perf_counter() - begin
    manifest = RunManifest.collect(
        command=f"obs export-trace --jobs {args.jobs} --policy {args.policy}",
        seed=args.seed,
        policy=args.policy,
        config={
            "jobs": args.jobs, "gap": args.gap,
            "rescale_gap": args.rescale_gap, "slots": args.slots,
            "cloud": args.cloud,
        },
        wall_seconds=wall,
        virtual_seconds=engine.now if engine is not None else None,
    )
    document = to_chrome_trace(tracer.records, manifest=manifest.as_dict())
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
        handle.write("\n")
    events = len(document["traceEvents"])
    spans = sum(1 for e in document["traceEvents"] if e.get("ph") == "B")
    print(f"exported {events} trace events ({spans} spans, "
          f"{len(tracer.records)} records) to {output}")
    print("open it at https://ui.perfetto.dev or chrome://tracing")
    return 0


def _dashboard(args) -> int:
    import sys

    root = args.input if args.input is not None else "."
    output = args.output or DEFAULT_DASHBOARD_OUTPUT
    from .dashboard import DashboardError

    try:
        count = write_dashboard(root, output, title=args.title)
    except DashboardError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(f"dashboard rendered from {count} artifacts under {root} "
          f"to {output}")
    return 0


def main_obs(args) -> int:
    """Entry point for the ``repro obs`` CLI verb."""
    if args.action == "dashboard":
        return _dashboard(args)
    return _export_trace(args)
