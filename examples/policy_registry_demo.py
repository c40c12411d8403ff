#!/usr/bin/env python
"""The pluggable scheduler registry: list, extend, and run policies.

Three things in one demo:

1. list what's registered (the paper's four, the literature policies,
   the power-capped scenario) and resolve one by name;
2. register a *custom* policy — shortest-job-first via the
   ``priority`` stage — exactly the way a third-party package would;
3. run EASY backfilling and the power-capped scenario on the same
   workload and compare the §4.3 metrics side by side.

Run:  python examples/policy_registry_demo.py
"""

from repro.scheduling import PolicyConfig, StaticPriority
from repro.scheduling.literature import estimate_runtime
from repro.scheduling.registry import REGISTRY
from repro.schedsim import ScheduleSimulator, WorkloadSpec, generate_workload


def register_sjf() -> None:
    """A custom policy: shortest estimated job first, elastic otherwise."""

    @REGISTRY.register("sjf", description="shortest (estimated) job first",
                       tags=("demo",))
    def _sjf(rescale_gap: float = 180.0, **overrides) -> PolicyConfig:
        return PolicyConfig(
            name="sjf",
            rescale_gap=rescale_gap,
            priority=StaticPriority(
                lambda req: -estimate_runtime(req, req.min_replicas)
            ),
            **overrides,
        )


def main() -> None:
    print("# registered policies")
    for name in REGISTRY.list_policies():
        spec = REGISTRY.describe(name)
        marker = "*" if spec.paper else " "
        print(f"  {marker} {name:<14} {spec.description}")
    print("  (* = the paper's evaluation set)\n")

    register_sjf()
    assert "sjf" in REGISTRY
    print("registered custom policy 'sjf' via the decorator form\n")

    submissions = generate_workload(WorkloadSpec(num_jobs=16, seed=7))
    print("# 16-job workload, 64 slots, one draw per policy")
    for name in ("elastic", "easy-backfill", "power-capped", "sjf"):
        config = REGISTRY.resolve(name)
        result = ScheduleSimulator(config).run(submissions)
        print(f"  {name:<14} {result.metrics.describe()}")

    print(
        "\nEASY backfills around the reserved queue head; the power-capped "
        "scenario trades completion time for a hard watt ceiling; sjf "
        "reorders the queue through the priority stage alone."
    )


if __name__ == "__main__":
    main()
