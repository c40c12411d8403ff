"""End-to-end chaos runs: recovery value, determinism, and the CLI verb."""

import pytest

from repro.cli import main
from repro.faults import FaultPlan
from repro.faults.runner import chaos_scenario, run_fault_scenario

# The reference chaos runs are full simulations; compute each arm once
# and share it across assertions.


@pytest.fixture(scope="module")
def with_checkpoints():
    return run_fault_scenario(seed=0, checkpoints=True)


@pytest.fixture(scope="module")
def without_checkpoints():
    return run_fault_scenario(seed=0, checkpoints=False)


class TestRecoveryDelta:
    """The acceptance gate: checkpointing demonstrably recovers work."""

    def test_faults_actually_bite(self, with_checkpoints):
        faults = with_checkpoints.faults
        assert faults.interruptions > 0
        assert faults.evictions > 0
        assert faults.provision_failures > 0
        assert faults.lost_slot_seconds > 0.0

    def test_checkpointing_improves_goodput(self, with_checkpoints,
                                            without_checkpoints):
        on, off = with_checkpoints.faults, without_checkpoints.faults
        assert on.goodput_fraction > off.goodput_fraction
        assert on.lost_slot_seconds < off.lost_slot_seconds

    def test_recovery_comes_from_checkpoints(self, with_checkpoints,
                                             without_checkpoints):
        on, off = with_checkpoints.faults, without_checkpoints.faults
        assert on.checkpoints_written > 0
        assert on.restarts_from_checkpoint > 0
        assert on.recovered_slot_seconds > 0.0
        # the baseline arm has no store: everything restarts from scratch
        assert off.checkpoints_written == 0
        assert off.restarts_from_checkpoint == 0
        assert off.recovered_slot_seconds == 0.0
        assert off.restarts_from_scratch > 0

    def test_recovery_values_are_pinned(self, with_checkpoints,
                                        without_checkpoints):
        # Virtual time only, so exact: any change to the checkpoint and
        # restart path moves one of these.
        on, off = with_checkpoints.faults, without_checkpoints.faults
        assert round(on.goodput_fraction, 6) == 0.974429
        assert round(off.goodput_fraction, 6) == 0.956478
        assert round(on.recovered_slot_seconds, 6) == 3209.896146
        assert round(off.lost_slot_seconds - on.lost_slot_seconds, 6) \
            == 3209.896146

    def test_every_job_still_completes(self, with_checkpoints,
                                       without_checkpoints):
        for run in (with_checkpoints, without_checkpoints):
            assert run.result.metrics.job_count == 24

    def test_retries_and_breaker_engage(self, with_checkpoints):
        faults = with_checkpoints.faults
        assert faults.provision_retries > 0
        assert faults.breaker_trips > 0


class TestDeterminism:
    def test_same_seed_runs_are_byte_identical(self, with_checkpoints):
        again = run_fault_scenario(seed=0, checkpoints=True)
        assert again.decisions == with_checkpoints.decisions
        assert again.digest == with_checkpoints.digest
        assert again.faults.as_dict() == with_checkpoints.faults.as_dict()

    def test_different_seeds_diverge(self, with_checkpoints):
        other = run_fault_scenario(seed=1, checkpoints=True)
        assert other.digest != with_checkpoints.digest

    def test_checkpointing_changes_the_schedule(self, with_checkpoints,
                                                without_checkpoints):
        assert with_checkpoints.digest != without_checkpoints.digest

    def test_zero_fault_plan_injects_nothing(self):
        # Natural spot weather (seeded, from the provider) may still
        # reclaim nodes; the *injected* counters must all stay zero.
        run = run_fault_scenario(plan=FaultPlan(), seed=0)
        assert run.faults.crashes == 0
        assert run.faults.notices == 0
        assert run.faults.provision_failures == 0
        assert run.faults.capacity_shortages == 0
        assert run.faults.breaker_trips == 0
        assert run.faults.goodput_fraction == 1.0


class TestFaultMetrics:
    def test_chaos_run_populates_the_faults_registry(self):
        from repro.obs import disable, enable

        registry = enable()
        try:
            run = run_fault_scenario(seed=0, checkpoints=True)
        finally:
            disable()
        snap = registry.snapshot("faults.")
        assert snap["faults.notices"] == run.faults.notices
        assert (snap["faults.checkpoints_written"]
                == run.faults.checkpoints_written)
        assert (snap["faults.provision_failures"]
                == run.faults.provision_failures)
        assert snap["faults.goodput_fraction"] == pytest.approx(
            run.faults.goodput_fraction
        )
        # the prefix isolates the fault counters from the rest
        assert all(name.startswith("faults.") for name in snap)


class TestChaosScenarioShape:
    def test_fleet_is_smaller_than_workload_demand(self):
        scenario = chaos_scenario()
        # total slots at max fleet stay below the workload's aggregate
        # min-replica demand, so a reclaimed node must evict someone
        total = sum(p.max_nodes * p.slots_per_node for p in scenario.pools())
        assert total <= 96


class TestFaultsCli:
    def test_plan_verb_prints_and_saves(self, tmp_path, capsys):
        out = tmp_path / "plan.json"
        assert main(["faults", "plan", "--seed", "3", "--crashes", "1",
                     "--interruptions", "2", "--output", str(out)]) == 0
        text = capsys.readouterr().out
        assert "node_crash" in text
        assert FaultPlan.load(str(out)).seed == 3

    def test_replay_verb_is_deterministic(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        main(["faults", "plan", "--seed", "5", "--crashes", "1",
              "--horizon", "1200", "--output", str(plan)])
        capsys.readouterr()
        outputs = []
        for _ in range(2):
            assert main(["faults", "replay", "--plan", str(plan),
                         "--jobs", "8"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert "digest" in outputs[0]

    def test_chaos_verb_reports_the_recovery_delta(self, capsys):
        assert main(["faults", "chaos", "--seed", "0"]) == 0
        text = capsys.readouterr().out
        assert "recovery delta" in text
        assert "## checkpoints on" in text
        assert "## checkpoints off" in text
        assert "goodput delta" in text
