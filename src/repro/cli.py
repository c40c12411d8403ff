"""Command-line entry points mirroring the paper's artifact scripts.

The artifact (Appendix A) drives the experiments with ``generate_jobs.py``
/ ``track_utilization.py`` / ``plot_utilization.py`` / ``run.py``; this CLI
provides the equivalents against the simulated cluster::

    python -m repro jobs [--seed N] [--gap S]        # generate_jobs.py
    python -m repro run <policy> [--seed N] [--gap S]  # submit + track + plot
    python -m repro simulate [--trials N] [--workers N]  # artifact A2's run.py
    python -m repro fig4|fig5|fig6|fig7|fig8|fig9|table1
    python -m repro workloads list|show|run ...      # trace/synthetic scenarios
    python -m repro policies list|show ...           # the scheduler registry
    python -m repro obs export-trace|dashboard ...   # Perfetto traces, trends
    python -m repro faults plan|replay|chaos ...     # deterministic chaos

Speed is measured by ``perfbench/run.py`` and gated in CI by
``benchmarks/perf_gate.py``, an A/B comparison against the parent commit.

Policy names are resolved through the scheduler registry
(:mod:`repro.scheduling.registry`), so third-party policies shipped via
``repro.policies`` entry points appear in every ``--policy`` choice list
next to the built-ins.
"""

from __future__ import annotations

import argparse
import math
import sys

from .errors import ReproError
from .scheduling.registry import REGISTRY
from .schedsim import WorkloadSpec, generate_workload

__all__ = ["main"]


def _cmd_jobs(args) -> int:
    """List the randomly generated job set (generate_jobs.py analog)."""
    spec = WorkloadSpec(num_jobs=args.jobs, submission_gap=args.gap, seed=args.seed)
    print(f"# workload seed={args.seed} gap={args.gap}s jobs={args.jobs}")
    print(f"{'name':>8} {'t_submit':>9} {'size':>7} {'prio':>4} {'min':>4} {'max':>4}")
    for sub in generate_workload(spec):
        r = sub.request
        print(
            f"{r.name:>8} {sub.time:>9.0f} {sub.size.name:>7} "
            f"{r.priority:>4} {r.min_replicas:>4} {r.max_replicas:>4}"
        )
    return 0


def _cmd_run(args) -> int:
    """Run one policy through the full Kubernetes path (steps 3-11)."""
    from .experiments.ascii import render_profile
    from .experiments.cluster_run import run_cluster_experiment

    spec = WorkloadSpec(num_jobs=args.jobs, submission_gap=args.gap, seed=args.seed)
    submissions = generate_workload(spec)
    print(f"running {args.policy} on the 4-node cluster "
          f"({args.jobs} jobs, gap {args.gap}s, T={args.rescale_gap}s)...")
    result = run_cluster_experiment(
        args.policy, submissions, rescale_gap=args.rescale_gap
    )
    print(result.metrics.describe())
    print()
    print(render_profile(result.utilization_profile(samples=144),
                         title=f"pod_utilization_{args.policy}"))
    return 0


def _cmd_simulate(args) -> int:
    """The artifact A2 simulator run (Table 1 simulation columns)."""
    from .schedsim import compare_policies, format_policy_table

    policies = None
    if args.policies is not None:
        policies = (
            tuple(REGISTRY.list_policies()) if args.policies == "all"
            else tuple(args.policies.split(","))
        )
    stats = compare_policies(
        policies=policies,
        submission_gap=args.gap, rescale_gap=args.rescale_gap, trials=args.trials,
        workers=args.workers,
    )
    print(format_policy_table(
        stats,
        title=f"simulated metrics ({args.trials} trials, gap={args.gap}s, "
              f"T={args.rescale_gap}s)",
    ))
    return 0


WORKLOADS_HELP = """\
Workload sources (the `repro workloads` subsystem):

  paper     the §4.3.1 draw: fixed-gap arrivals, uniform size/priority mix
  poisson   memoryless arrivals at rate 1/gap, uniform mix
  diurnal   day/night-modulated Poisson arrivals, uniform mix
  bursty    campaign-style bursts separated by idle stretches
  heavy     Poisson arrivals, heavy-tailed size/duration mix
  swf       a Standard Workload Format trace file (--trace PATH)

Examples:

  python -m repro workloads list
  python -m repro workloads show --source poisson --jobs 40 --gap 60 --seed 7
  python -m repro workloads run --source heavy --jobs 1000 --gap 10 \\
      --policy elastic --slots 256 --retain metrics
  python -m repro workloads run --source swf --trace cluster.swf \\
      --max-jobs 500 --time-scale 0.1 --policy all --workers 4
"""


def _cmd_workloads(args) -> int:
    """Inspect and run trace-driven / synthetic workload scenarios."""
    from .workloads import make_source, materialize

    if args.action == "list":
        print(WORKLOADS_HELP)
        return 0

    # One parameter dict serves the parent's source and the pool workers'
    # rebuilds, so the two can never drift apart.
    source_args = dict(
        kind=args.source, jobs=args.jobs, seed=args.seed, gap=args.gap,
        rate=args.rate, trace=args.trace, max_jobs=args.max_jobs,
        time_scale=args.time_scale,
    )
    source = make_source(**source_args)
    if args.action == "show":
        print(f"# {source.name}")
        print(f"{'name':>12} {'t_submit':>10} {'size':>7} {'prio':>4} "
              f"{'min':>4} {'max':>4} {'steps':>8}")
        for sub in source.submissions():
            r = sub.request
            print(
                f"{r.name:>12} {sub.time:>10.0f} {sub.size.name:>7} "
                f"{r.priority:>4} {r.min_replicas:>4} {r.max_replicas:>4} "
                f"{r.params['timesteps']:>8}"
            )
        return 0

    # action == "run": drive the simulator with the source.
    from .workloads.parallel import parallel_map, resolve_workers

    policies = (
        tuple(REGISTRY.list_policies()) if args.policy == "all"
        else (args.policy,)
    )
    print(f"# {source.name}: {len(source)} jobs, {args.slots} slots, "
          f"T={args.rescale_gap}s, retain={args.retain}")
    if resolve_workers(args.workers) > 1 and len(policies) > 1:
        # Workers rebuild the (deterministic) source from its scalar
        # parameters rather than unpickling the whole submission list
        # once per policy.
        tasks = [
            (source_args, name, args.rescale_gap, args.slots, args.retain)
            for name in policies
        ]
        rows = parallel_map(_run_workload_policy, tasks, workers=args.workers)
    elif len(policies) == 1:
        # Single policy: feed the source lazily so retain=metrics stays
        # O(running jobs) even for huge workloads.
        rows = [
            _simulate_workload(source.submissions(), policies[0],
                               args.rescale_gap, args.slots, args.retain)
        ]
    else:
        submissions = materialize(source)
        rows = [
            _simulate_workload(submissions, name, args.rescale_gap,
                               args.slots, args.retain)
            for name in policies
        ]
    for metrics in rows:
        print(metrics.describe())
    return 0


def _simulate_workload(submissions, policy_name, rescale_gap, slots, retain):
    from .schedsim import ScheduleSimulator

    simulator = ScheduleSimulator(
        REGISTRY.resolve(policy_name, rescale_gap=rescale_gap), total_slots=slots
    )
    return simulator.run(submissions, retain=retain).metrics


def _run_workload_policy(task):
    """One policy's run, rebuilt from source parameters (picklable)."""
    from .workloads import make_source

    source_args, policy_name, rescale_gap, slots, retain = task
    source = make_source(**source_args)
    return _simulate_workload(source.submissions(), policy_name, rescale_gap,
                              slots, retain)


CLOUD_HELP = """\
Elastic cluster capacity (the `repro cloud` subsystem):

  run     one workload on an autoscaled, billable, interruptible fleet
  sweep   the autoscaler x policy grid with cost columns (cached,
          parallel — the same machinery as fig7/fig8)

Autoscalers: static (fixed fleet), queue (demand-driven scale-out),
utilization (occupancy band), idle (CLUES-style idle-timeout scale-in).

Examples:

  python -m repro cloud run --policy elastic --autoscaler queue \\
      --jobs 24 --gap 45 --nodes 2 --max-nodes 8
  python -m repro cloud run --policy elastic --autoscaler idle \\
      --spot-nodes 3 --spot-lifetime 3600 --seed 7
  python -m repro cloud sweep --trials 10 --workers 4 \\
      --autoscalers static,queue,idle --policies elastic,moldable
"""


def _cloud_scenario(args):
    from .cloud import CloudScenario

    return CloudScenario(
        slots_per_node=args.slots_per_node,
        initial_nodes=args.nodes,
        max_nodes=args.max_nodes,
        min_nodes=args.min_nodes,
        provision_delay=args.provision_delay,
        teardown_delay=args.teardown_delay,
        price_per_hour=args.price,
        spot_nodes=args.spot_nodes,
        spot_price_per_hour=args.spot_price,
        spot_mean_lifetime=args.spot_lifetime,
    )


def _cmd_cloud(args) -> int:
    """Run/sweep the elastic-capacity substrate with cost accounting."""
    from .cloud import AUTOSCALER_NAMES, compare_cloud, run_cloud_once
    from .schedsim import format_cost_table

    if not (math.isfinite(args.gap) and args.gap >= 0):
        print("error: --gap must be a finite number >= 0", file=sys.stderr)
        return 2
    scenario = _cloud_scenario(args)
    if args.action == "run":
        result = run_cloud_once(
            args.policy,
            args.autoscaler,
            scenario=scenario,
            submission_gap=args.gap,
            rescale_gap=args.rescale_gap,
            seed=args.seed,
            num_jobs=args.jobs,
        )
        print(f"# {args.autoscaler} autoscaler, seed={args.seed}, "
              f"{args.jobs} jobs @ {args.gap:.0f}s")
        print(result.describe())
        print(f"capacity change-points: "
              f"{len(result.capacity.samples)} "
              f"(peak {max(s for _, s in result.capacity.samples)} slots)")
        return 0

    # action == "sweep": the autoscaler x policy grid with cost columns.
    policies = (
        tuple(REGISTRY.list_policies()) if args.policies == "all"
        else tuple(args.policies.split(","))
    )
    autoscalers = (
        AUTOSCALER_NAMES if args.autoscalers == "all"
        else tuple(args.autoscalers.split(","))
    )
    stats = compare_cloud(
        policies=policies,
        autoscalers=autoscalers,
        scenario=scenario,
        submission_gap=args.gap,
        rescale_gap=args.rescale_gap,
        trials=args.trials,
        base_seed=args.seed,
        num_jobs=args.jobs,
        workers=args.workers,
        cache=args.cache,
    )
    print(format_cost_table(
        stats.values(),
        title=f"cloud grid ({args.trials} trials, gap={args.gap:.0f}s, "
              f"{args.jobs} jobs)",
    ))
    return 0


def _cmd_policies(args) -> int:
    """Inspect the scheduler registry (`repro policies list|show`)."""
    if args.action == "list":
        names = REGISTRY.list_policies()
        width = max(len(name) for name in names)
        print(f"# {len(names)} registered policies (paper's four first)")
        for name in names:
            spec = REGISTRY.describe(name)
            badges = ("paper",) if spec.paper and "paper" not in spec.tags else ()
            badges += tuple(spec.tags)
            suffix = f"  [{', '.join(badges)}]" if badges else ""
            print(f"{name:<{width}}  {spec.description}{suffix}")
        return 0

    # action == "show": the full introspection card for one policy.
    if args.name is None:
        print("error: 'policies show' needs a policy name", file=sys.stderr)
        return 2
    spec = REGISTRY.describe(args.name)
    print(f"name:        {spec.name}")
    print(f"description: {spec.description or '(none)'}")
    print(f"tags:        {', '.join(spec.tags) or '(none)'}")
    print(f"paper:       {'yes' if spec.paper else 'no'}")
    print(f"source:      {spec.source}")
    factory = spec.factory
    module = getattr(factory, "__module__", "?")
    print(f"factory:     {module}.{getattr(factory, '__qualname__', factory)}")
    return 0


def _cmd_obs(args) -> int:
    """Observability verbs: trace export + trend dashboard (repro.obs)."""
    from .obs.cli import main_obs

    return main_obs(args)


def _cmd_faults(args) -> int:
    """Fault-injection verbs: plan synthesis, replay, chaos (repro.faults)."""
    from .faults.cli import main_faults

    return main_faults(args)


def _cmd_figure(args) -> int:
    name = args.command
    if name == "fig4":
        from .experiments import render_fig4

        print(render_fig4())
    elif name == "fig5":
        from .experiments import render_fig5

        print(render_fig5())
    elif name == "fig6":
        from .experiments import render_fig6, run_fig6

        print(render_fig6(run_fig6()))
    elif name in ("fig7", "fig8"):
        from .experiments.fig78 import render_sweep_figure, run_fig7, run_fig8

        runner = run_fig7 if name == "fig7" else run_fig8
        result = runner(trials=args.trials, workers=args.workers)
        print(render_sweep_figure(result, f"Figure {name[-1]}"))
    elif name == "fig9":
        from .experiments import render_fig9, run_fig9

        print(render_fig9(run_fig9()))
    elif name == "table1":
        from .experiments import render_table1, run_table1

        print(render_table1(run_table1()))
    else:  # pragma: no cover - argparse prevents this
        raise SystemExit(f"unknown figure {name}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce 'An elastic job scheduler for HPC applications "
                    "on the cloud' (SC Workshops '25)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    jobs = sub.add_parser("jobs", help="print a generated job set")
    jobs.add_argument("--seed", type=int, default=32)
    jobs.add_argument("--gap", type=float, default=90.0)
    jobs.add_argument("--jobs", type=int, default=16)
    jobs.set_defaults(fn=_cmd_jobs)

    # Choice lists come from the registry, so policies registered via
    # ``repro.policies`` entry points are accepted everywhere built-ins
    # are (and unknown names still exit with argparse's usage error).
    policy_names = tuple(REGISTRY.list_policies())

    run = sub.add_parser("run", help="run one policy on the full k8s path")
    run.add_argument("policy", choices=policy_names)
    run.add_argument("--seed", type=int, default=32)
    run.add_argument("--gap", type=float, default=90.0)
    run.add_argument("--jobs", type=int, default=16)
    run.add_argument("--rescale-gap", type=float, default=180.0)
    run.set_defaults(fn=_cmd_run)

    simulate = sub.add_parser("simulate", help="run the scheduler simulator")
    simulate.add_argument("--trials", type=int, default=100)
    simulate.add_argument("--policies", default=None,
                          help="comma-separated policy names, or 'all' for "
                               "every registered policy (default: the "
                               "paper's four)")
    simulate.add_argument("--gap", type=float, default=90.0)
    simulate.add_argument("--rescale-gap", type=float, default=180.0)
    simulate.add_argument("--workers", type=int, default=None,
                          help="process-pool size for the trial grid "
                               "(default: serial)")
    simulate.set_defaults(fn=_cmd_simulate)

    workloads = sub.add_parser(
        "workloads",
        help="inspect/run trace-driven and synthetic workload scenarios",
        description=WORKLOADS_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    workloads.add_argument("action", choices=("list", "show", "run"))
    workloads.add_argument("--source", default="paper",
                           help="paper|poisson|diurnal|bursty|heavy|swf")
    workloads.add_argument("--jobs", type=int, default=16)
    workloads.add_argument("--seed", type=int, default=0)
    workloads.add_argument("--gap", type=float, default=90.0,
                           help="mean inter-arrival time (s)")
    workloads.add_argument("--rate", type=float, default=None,
                           help="arrival rate (jobs/s); overrides --gap")
    workloads.add_argument("--trace", default=None, help="SWF trace path")
    workloads.add_argument("--max-jobs", type=int, default=None,
                           help="truncate an SWF trace to its first N jobs")
    workloads.add_argument("--time-scale", type=float, default=1.0,
                           help="compress SWF arrival times and durations")
    workloads.add_argument("--policy", default="elastic",
                           choices=policy_names + ("all",))
    workloads.add_argument("--rescale-gap", type=float, default=180.0)
    workloads.add_argument("--slots", type=int, default=64)
    workloads.add_argument("--retain", default="full",
                           choices=("full", "metrics"),
                           help="'metrics' streams outcomes and drops "
                                "timelines (large workloads)")
    workloads.add_argument("--workers", type=int, default=None)
    workloads.set_defaults(fn=_cmd_workloads)

    cloud = sub.add_parser(
        "cloud",
        help="autoscaled/spot cluster capacity with cost accounting",
        description=CLOUD_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    cloud.add_argument("action", choices=("run", "sweep"))
    cloud.add_argument("--policy", default="elastic", choices=policy_names)
    cloud.add_argument("--policies", default="all",
                       help="comma-separated policy list for sweep "
                            "(default: all)")
    cloud.add_argument("--autoscaler", default="queue",
                       choices=("static", "queue", "utilization", "idle"))
    cloud.add_argument("--autoscalers", default="all",
                       help="comma-separated autoscaler list for sweep "
                            "(default: all)")
    cloud.add_argument("--jobs", type=int, default=16)
    cloud.add_argument("--gap", type=float, default=90.0)
    cloud.add_argument("--seed", type=int, default=0)
    cloud.add_argument("--rescale-gap", type=float, default=180.0)
    cloud.add_argument("--trials", type=int, default=10,
                       help="paired trials per sweep cell (default 10)")
    cloud.add_argument("--slots-per-node", type=int, default=16)
    cloud.add_argument("--nodes", type=int, default=4,
                       help="initial on-demand nodes (default 4 = the "
                            "paper's 64-slot cluster)")
    cloud.add_argument("--min-nodes", type=int, default=1)
    cloud.add_argument("--max-nodes", type=int, default=8)
    cloud.add_argument("--provision-delay", type=float, default=120.0)
    cloud.add_argument("--teardown-delay", type=float, default=0.0)
    cloud.add_argument("--price", type=float, default=0.68,
                       help="on-demand $/node-hour")
    cloud.add_argument("--spot-nodes", type=int, default=0,
                       help="spot-pool size (0 disables spot)")
    cloud.add_argument("--spot-price", type=float, default=0.27)
    cloud.add_argument("--spot-lifetime", type=float, default=14400.0,
                       help="mean seconds between spot interruptions")
    cloud.add_argument("--workers", type=int, default=None,
                       help="process-pool size for the sweep grid")
    cloud.add_argument("--cache", default=None,
                       help="trial-cache directory (or REPRO_SWEEP_CACHE)")
    cloud.set_defaults(fn=_cmd_cloud)

    obs = sub.add_parser(
        "obs",
        help="observability: export a Perfetto trace; render the trend "
             "dashboard",
        description="export-trace runs one instrumented workload with span "
                    "tracing attached and writes Chrome-trace/Perfetto JSON "
                    "(open at https://ui.perfetto.dev). dashboard renders a "
                    "static-HTML trend report from a directory of "
                    "perf_gate documents.",
    )
    obs.add_argument("action", choices=("export-trace", "dashboard"))
    obs.add_argument("--jobs", type=int, default=200,
                     help="workload size for export-trace (default 200)")
    obs.add_argument("--policy", default="elastic",
                     help="registry policy name (default elastic)")
    obs.add_argument("--gap", type=float, default=90.0,
                     help="submission gap seconds (default 90)")
    obs.add_argument("--rescale-gap", type=float, default=180.0,
                     help="T_rescale_gap seconds (default 180)")
    obs.add_argument("--slots", type=int, default=64,
                     help="cluster slots for the plain simulator "
                          "(default 64)")
    obs.add_argument("--seed", type=int, default=0)
    obs.add_argument("--cloud", action="store_true",
                     help="trace the autoscaled cloud substrate instead of "
                          "the fixed-capacity simulator")
    obs.add_argument("--autoscaler", default="queue",
                     help="autoscaler name for --cloud (default queue)")
    obs.add_argument("--input", default=None,
                     help="dashboard: directory of perf_gate documents "
                          "(default .)")
    obs.add_argument("--output", default=None,
                     help="output path (default trace.json / "
                          "dashboard.html per action)")
    obs.add_argument("--title", default="repro nightly trends",
                     help="dashboard page title")
    obs.set_defaults(fn=_cmd_obs)

    faults = sub.add_parser(
        "faults",
        help="deterministic fault injection: synthesize/replay plans, "
             "run the reference chaos scenario",
        description="plan synthesizes a seeded fault timeline (JSON, "
                    "replayable byte-for-byte). replay runs a plan file "
                    "(or the reference plan) through the cloud simulator "
                    "and prints the fault report + decision digest. "
                    "chaos runs the committed reference scenario with "
                    "checkpoints on AND off and prints the recovery "
                    "delta — output is fully deterministic, so CI runs "
                    "it twice and diffs.",
    )
    faults.add_argument("action", choices=("plan", "replay", "chaos"))
    faults.add_argument("--seed", type=int, default=7,
                        help="plan-synthesis / workload seed (default 7 "
                             "for plan, reference-plan seed for "
                             "replay/chaos)")
    faults.add_argument("--horizon", type=float, default=2400.0,
                        help="plan: timeline horizon seconds")
    faults.add_argument("--crashes", type=int, default=2)
    faults.add_argument("--interruptions", type=int, default=3)
    faults.add_argument("--notice", type=float, default=120.0,
                        help="reclaim notice window seconds")
    faults.add_argument("--fail-windows", type=int, default=1)
    faults.add_argument("--timeout-windows", type=int, default=0)
    faults.add_argument("--shortage-windows", type=int, default=0)
    faults.add_argument("--window-duration", type=float, default=600.0)
    faults.add_argument("--pool", default=None,
                        help="restrict synthesized faults to one pool")
    faults.add_argument("--output", default=None,
                        help="plan: also write the JSON plan here")
    faults.add_argument("--plan", default=None,
                        help="replay: fault-plan JSON path (default: the "
                             "reference chaos plan)")
    faults.add_argument("--policy", default="elastic",
                        choices=policy_names)
    faults.add_argument("--autoscaler", default="queue",
                        choices=("static", "queue", "utilization", "idle"))
    faults.add_argument("--jobs", type=int, default=24)
    faults.add_argument("--gap", type=float, default=60.0)
    faults.add_argument("--rescale-gap", type=float, default=180.0)
    faults.add_argument("--no-checkpoints", action="store_true",
                        help="replay: disable notice-window checkpointing")
    faults.add_argument("--max-retries", type=int, default=4,
                        help="provisioning retry budget per boot chain")
    faults.add_argument("--retry-base-delay", type=float, default=30.0,
                        help="first retry backoff seconds (doubles, "
                             "capped, jittered)")
    faults.set_defaults(fn=_cmd_faults)

    policies = sub.add_parser(
        "policies",
        help="list/inspect the pluggable scheduler registry",
        description="The scheduler registry: the paper's four policies, the "
                    "literature policies (ewt, prb, easy-backfill), the "
                    "power-capped scenario, and anything registered via "
                    "'repro.policies' entry points.",
    )
    policies.add_argument("action", choices=("list", "show"))
    policies.add_argument("name", nargs="?", default=None,
                          help="policy name (required for 'show')")
    policies.set_defaults(fn=_cmd_policies)

    for fig in ("fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "table1"):
        p = sub.add_parser(fig, help=f"regenerate {fig}")
        p.add_argument("--trials", type=int, default=100)
        if fig in ("fig7", "fig8"):
            p.add_argument("--workers", type=int, default=None,
                           help="process-pool size for the sweep grid")
        p.set_defaults(fn=_cmd_figure)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:  # e.g. `python -m repro jobs | head`
        return 0
    except (ReproError, OSError) as err:
        # User-input errors (bad source name, missing trace file, ...)
        # deserve a one-line message, not a traceback.
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
