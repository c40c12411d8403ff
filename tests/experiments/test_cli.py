"""Tests for the artifact-style CLI."""

import pytest

from repro.cli import build_parser, main


class TestCli:
    def test_jobs_listing(self, capsys):
        assert main(["jobs", "--seed", "5", "--jobs", "4"]) == 0
        out = capsys.readouterr().out
        assert "job-00" in out and "job-03" in out
        assert "seed=5" in out

    def test_simulate(self, capsys):
        assert main(["simulate", "--trials", "3"]) == 0
        out = capsys.readouterr().out
        for policy in ("elastic", "moldable", "min_replicas", "max_replicas"):
            assert policy in out

    def test_run_single_policy(self, capsys):
        assert main(["run", "moldable", "--jobs", "4", "--gap", "30"]) == 0
        out = capsys.readouterr().out
        assert "pod_utilization_moldable" in out
        assert "util=" in out

    def test_fig4(self, capsys):
        assert main(["fig4"]) == 0
        assert "Figure 4a" in capsys.readouterr().out

    def test_fig5(self, capsys):
        assert main(["fig5"]) == 0
        assert "Figure 5a" in capsys.readouterr().out

    def test_fig7_with_trials(self, capsys):
        assert main(["fig7", "--trials", "2"]) == 0
        assert "Figure 7a" in capsys.readouterr().out

    def test_run_refuses_preemption_up_front(self, capsys):
        # The Kubernetes path cannot checkpoint a pod to disk, so a
        # preemptive policy is a user error, not a crash mid-run.
        assert main(["run", "preemptive", "--jobs", "16", "--gap", "5",
                     "--seed", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: policy 'preemptive' preempts jobs")

    def test_unknown_policy_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "fcfs"])

    def test_parser_has_all_artifact_commands(self):
        parser = build_parser()
        text = parser.format_help()
        for cmd in ("jobs", "run", "simulate", "table1", "policies"):
            assert cmd in text

    def test_bench_verb_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["bench"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err


class TestRunRejectsBadInput:
    """`repro run` checks its flags before building the cluster."""

    @pytest.mark.parametrize("flags, message", [
        (["--gap", "inf"], "--gap must be a finite number >= 0"),
        (["--gap", "nan"], "--gap must be a finite number >= 0"),
        (["--gap", "-3"], "--gap must be a finite number >= 0"),
        (["--jobs", "0"], "--jobs must be >= 1"),
        (["--jobs", "-2"], "--jobs must be >= 1"),
        (["--rescale-gap", "-1"], "--rescale-gap must be a number >= 0"),
        (["--rescale-gap", "nan"], "--rescale-gap must be a number >= 0"),
    ])
    def test_bad_flag_is_a_user_error(self, capsys, flags, message):
        assert main(["run", "elastic", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""  # no run banner


@pytest.mark.parametrize("argv, message", [
    (["simulate", "--trials", "1", "--rescale-gap", "-1"],
     "--rescale-gap must be a number >= 0"),
    (["workloads", "run", "--jobs", "3", "--rescale-gap", "-1"],
     "--rescale-gap must be a number >= 0"),
    (["faults", "replay", "--jobs", "3", "--rescale-gap", "-1"],
     "--rescale-gap must be a number >= 0"),
    (["obs", "export-trace", "--jobs", "3", "--rescale-gap", "-1"],
     "--rescale-gap must be a number >= 0"),
    (["cloud", "run", "--rescale-gap", "nan", "--jobs", "2"],
     "--rescale-gap must be a number >= 0"),
    (["jobs", "--gap", "nan"], "--gap must be a finite number >= 0"),
    (["jobs", "--jobs", "-1"], "--jobs must be >= 1"),
    (["simulate", "--trials", "1", "--gap", "-5"],
     "--gap must be a finite number >= 0"),
])
def test_shared_flags_are_checked_on_every_verb(capsys, argv, message):
    """One check in ``main`` covers every verb with a shared flag."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_negative_workers_is_a_user_error(capsys):
    """A negative pool size is a user error, not a serial run."""
    assert main(["simulate", "--trials", "1", "--workers", "-2"]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "error: workers must be >= 0 (0 means every core), got -2\n"
    )
    assert captured.out == ""


class TestTrials:
    @pytest.mark.parametrize("argv", [
        ["simulate", "--trials", "-1"],
        ["simulate", "--trials", "0"],
        ["fig7", "--trials", "0"],
        ["fig8", "--trials", "-1"],
        ["cloud", "sweep", "--trials", "0", "--jobs", "2"],
    ])
    def test_trials_below_one_is_a_user_error(self, capsys, argv):
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: --trials must be >= 1\n"

    @pytest.mark.parametrize("fig", ["fig4", "fig5", "fig6", "fig9", "table1"])
    def test_only_the_sweep_figures_take_trials(self, capsys, fig):
        with pytest.raises(SystemExit) as exit_info:
            main([fig, "--trials", "2"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --trials" in capsys.readouterr().err


class TestPoliciesCli:
    def test_policies_list_shows_registry(self, capsys):
        assert main(["policies", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("elastic", "moldable", "min_replicas", "max_replicas",
                     "ewt", "prb", "easy-backfill", "power-capped"):
            assert name in out
        assert "paper" in out

    def test_policies_show(self, capsys):
        assert main(["policies", "show", "easy-backfill"]) == 0
        out = capsys.readouterr().out
        assert "easy-backfill" in out
        assert "backfill" in out

    def test_policies_show_requires_name(self, capsys):
        assert main(["policies", "show"]) == 2

    def test_policies_show_unknown_is_user_error(self, capsys):
        assert main(["policies", "show", "fcfs"]) == 2
        assert "unknown policy" in capsys.readouterr().err

    def test_registered_policy_runs_end_to_end(self, capsys):
        """The acceptance path: a non-paper registry policy through the
        simulator CLI with real metrics out."""
        assert main([
            "workloads", "run", "--source", "paper", "--jobs", "6",
            "--policy", "easy-backfill",
        ]) == 0
        out = capsys.readouterr().out
        assert "easy-backfill" in out and "util=" in out

    def test_simulate_accepts_registry_policies(self, capsys):
        assert main([
            "simulate", "--trials", "2", "--policies", "elastic,ewt",
        ]) == 0
        out = capsys.readouterr().out
        assert "elastic" in out and "ewt" in out


class TestCloudCli:
    @pytest.mark.parametrize("action", ["run", "sweep"])
    @pytest.mark.parametrize("gap", ["-5", "nan", "inf", "-inf"])
    def test_bad_gap_is_a_user_error(self, capsys, action, gap):
        assert main(["cloud", action, f"--gap={gap}", "--jobs", "2",
                     "--trials", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --gap must be a finite number >= 0\n"
        assert captured.out == ""

    def test_zero_gap_runs(self, capsys):
        assert main(["cloud", "run", "--gap", "0", "--jobs", "3"]) == 0
        assert "3 jobs @ 0s" in capsys.readouterr().out
