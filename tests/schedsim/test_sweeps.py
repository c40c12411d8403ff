"""Tests for the Figure-7/8 sweeps and reporting."""

import pytest

from repro.schedsim import (
    SweepResult,
    format_policy_table,
    format_sweep,
    compare_policies,
    sweep_rescale_gap,
    sweep_submission_gap,
)


@pytest.fixture(scope="module")
def fig7(
):
    return sweep_submission_gap(gaps=(0.0, 150.0, 300.0), trials=8)


@pytest.fixture(scope="module")
def fig8():
    return sweep_rescale_gap(gaps=(0.0, 600.0, 1200.0), trials=8)


class TestFig7Shapes:
    def test_utilization_declines_with_gap(self, fig7):
        for policy in fig7.policies():
            series = [u for _, u in fig7.series(policy, "utilization")]
            assert series[0] > series[-1]

    def test_elastic_utilization_highest(self, fig7):
        # Strictly highest under load; at very large gaps the elastic,
        # moldable and max_replicas lines converge (each job runs alone).
        for i, gap in enumerate(fig7.values):
            best = max(fig7.stats[p][i].utilization for p in fig7.policies())
            mine = fig7.stats["elastic"][i].utilization
            if gap <= 150.0:
                assert mine == best
            else:
                assert mine >= best * 0.98

    def test_min_replicas_utilization_lowest_under_load(self, fig7):
        for i, gap in enumerate(fig7.values):
            if gap <= 150.0:
                lowest = min(fig7.stats[p][i].utilization
                             for p in fig7.policies())
                assert fig7.stats["min_replicas"][i].utilization == lowest

    def test_elastic_total_time_lowest_under_load(self, fig7):
        for i, gap in enumerate(fig7.values):
            if gap <= 150.0:
                lowest = min(fig7.stats[p][i].total_time
                             for p in fig7.policies())
                assert fig7.stats["elastic"][i].total_time == lowest

    def test_total_time_grows_with_gap(self, fig7):
        for policy in fig7.policies():
            series = [t for _, t in fig7.series(policy, "total_time")]
            assert series[-1] > series[0]

    def test_totals_converge_at_large_gap(self, fig7):
        # §4.3.1: "total time for the other 3 schedulers converges as the
        # submission gap increases" (min_replicas stays worse).
        last = {p: fig7.stats[p][-1].total_time for p in fig7.policies()}
        others = [last["elastic"], last["moldable"], last["max_replicas"]]
        assert max(others) - min(others) < 0.05 * last["elastic"]
        assert last["min_replicas"] > max(others)

    def test_response_falls_with_gap(self, fig7):
        for policy in fig7.policies():
            series = [r for _, r in fig7.series(policy, "weighted_mean_response")]
            assert series[0] > series[-1]

    def test_min_replicas_response_lowest_at_moderate_gap(self, fig7):
        i = 1  # gap = 150 s
        lowest = min(fig7.stats[p][i].weighted_mean_response for p in fig7.policies())
        assert fig7.stats["min_replicas"][i].weighted_mean_response == lowest

    def test_elastic_responds_faster_than_max_replicas(self, fig7):
        # Fig 7c: max_replicas holds each job at its widest, so arrivals
        # wait longer than under elastic's shrink-to-admit.
        i = 1  # gap = 150 s
        assert (fig7.stats["elastic"][i].weighted_mean_response
                < fig7.stats["max_replicas"][i].weighted_mean_response)

    def test_min_replicas_completion_worst_under_moderate_traffic(self, fig7):
        # At gap 0 every policy's completion is queue-dominated and the
        # lines bunch up (Fig 7d); from moderate gaps on, min_replicas is
        # clearly the worst because jobs run under-parallelized.
        for i, gap in enumerate(fig7.values):
            if gap < 150.0:
                continue
            worst = max(
                fig7.stats[p][i].weighted_mean_completion for p in fig7.policies()
            )
            assert fig7.stats["min_replicas"][i].weighted_mean_completion == worst

    def test_max_replicas_completion_best_at_zero_gap(self, fig7):
        # §4.3.1: max_replicas has the lowest completion for tiny gaps.
        best = min(fig7.stats[p][0].weighted_mean_completion for p in fig7.policies())
        assert fig7.stats["max_replicas"][0].weighted_mean_completion == best


class TestFig8Shapes:
    def test_elastic_utilization_declines_with_rescale_gap(self, fig8):
        series = [u for _, u in fig8.series("elastic", "utilization")]
        assert series[0] > series[-1]

    def test_baselines_flat_in_rescale_gap(self, fig8):
        # moldable (gap=∞) and the rigid policies don't depend on T.
        for policy in ("moldable", "min_replicas", "max_replicas"):
            series = [u for _, u in fig8.series(policy, "utilization")]
            assert max(series) - min(series) < 1e-9

    def test_elastic_leads_at_zero_rescale_gap(self, fig8):
        # With free rescaling, elastic has the highest utilization and
        # the lowest total time of the four.
        stats = {p: fig8.stats[p][0] for p in fig8.policies()}
        assert stats["elastic"].utilization == max(
            s.utilization for s in stats.values())
        assert stats["elastic"].total_time == min(
            s.total_time for s in stats.values())

    def test_elastic_approaches_moldable_at_large_gap(self, fig8):
        # §4.3.1: "All the metrics for the elastic scheduler approach the
        # moldable scheduler as T_rescale_gap is increased".
        for metric in ("utilization", "total_time", "weighted_mean_completion"):
            e0 = getattr(fig8.stats["elastic"][0], metric)
            e_last = getattr(fig8.stats["elastic"][-1], metric)
            m = getattr(fig8.stats["moldable"][-1], metric)
            assert abs(e_last - m) < abs(e0 - m) or abs(e_last - m) < 0.05 * abs(m)

    def test_total_time_increases_monotonically_for_elastic(self, fig8):
        # §4.3.1: rescaling overhead is small enough that more rescaling
        # (smaller T) always helps: total time rises with T.
        series = [t for _, t in fig8.series("elastic", "total_time")]
        assert series[0] < series[-1]

    def test_elastic_tracks_moldable_within_tolerance(self, fig8):
        # Clearly better at small T; by T=1200 a single late rescale can
        # cost more than it gains (the §6 accept/decline discussion), so
        # allow a small margin there.
        assert (
            fig8.stats["elastic"][0].total_time
            < fig8.stats["moldable"][0].total_time
        )
        for i in range(len(fig8.values)):
            assert (
                fig8.stats["elastic"][i].total_time
                <= fig8.stats["moldable"][i].total_time * 1.05
            )


class TestReporting:
    def test_policy_table_contains_all_rows(self):
        stats = compare_policies(trials=2)
        text = format_policy_table(stats, title="T")
        for name in ("elastic", "moldable", "min_replicas", "max_replicas"):
            assert name in text
        assert "Utilization" in text

    def test_sweep_format(self, fig7):
        text = format_sweep(fig7, "utilization")
        assert "submission_gap" in text
        assert "%" in text

    def test_series_extraction(self, fig7):
        series = fig7.series("elastic", "total_time")
        assert [x for x, _ in series] == list(fig7.values)
