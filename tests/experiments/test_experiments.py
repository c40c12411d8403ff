"""Tests for the paper-artifact experiment drivers."""

import pytest

from repro.charm.commlayer import MPI_LAYER, NETLRTS_LAYER
from repro.experiments import (
    fig4a_data,
    fig4b_data,
    fig5a_rows,
    fig5b_rows,
    fig5c_rows,
    measure_rescale,
    render_fig4,
    render_fig5,
    run_fig6,
)
from repro.experiments.fig5 import STAGES


class TestFig4:
    def test_fig4a_has_three_grids(self):
        data = fig4a_data()
        assert set(data) == {"2048x2048", "8192x8192", "16384x16384"}
        for series in data.values():
            assert [p for p, _ in series] == [4, 8, 16, 32, 64]

    def test_fig4a_larger_grids_scale_better(self):
        data = fig4a_data()

        def speedup(name):
            series = dict(data[name])
            return series[4] / series[64]

        assert speedup("16384x16384") > speedup("8192x8192") > speedup("2048x2048")
        # §4.1: the largest grid scales well to 64 replicas; the smallest
        # is communication-bound early.
        assert speedup("16384x16384") > 8.0
        assert speedup("2048x2048") < 4.0

    def test_fig4b_has_three_cell_grids(self):
        data = fig4b_data()
        assert set(data) == {"4x4x4", "4x4x8", "4x8x8"}

    def test_fig4b_compute_bound_scaling(self):
        for series in fig4b_data().values():
            times = dict(series)
            assert times[4] / times[64] > 6.0

    def test_render_contains_charts_and_tables(self):
        text = render_fig4()
        assert "Figure 4a" in text and "Figure 4b" in text
        assert "replicas" in text


class TestFig5:
    def test_stage_row_structure(self):
        row = measure_rescale(8, 4, 64 * 1024**2)
        assert set(row) == set(STAGES)
        assert row["total"] == pytest.approx(
            sum(v for k, v in row.items() if k != "total")
        )

    def test_fig5a_restart_grows_with_replicas(self):
        rows = fig5a_rows(replicas=(4, 16, 60))
        restarts = [r[STAGES.index("restart") + 1] for r in rows]
        assert restarts[0] < restarts[1] < restarts[2]

    def test_fig5a_checkpoint_falls_with_replicas(self):
        rows = fig5a_rows(replicas=(4, 16, 60))
        ckpts = [r[STAGES.index("checkpoint") + 1] for r in rows]
        assert ckpts[0] > ckpts[1] > ckpts[2]

    def test_fig5a_restore_falls_with_replicas(self):
        rows = fig5a_rows(replicas=(4, 16, 60))
        restores = [r[STAGES.index("restore") + 1] for r in rows]
        assert restores[0] > restores[1] > restores[2]

    def test_fig5b_expand_restart_grows(self):
        rows = fig5b_rows(replicas=(2, 8, 32))
        restarts = [r[STAGES.index("restart") + 1] for r in rows]
        assert restarts[0] < restarts[1] < restarts[2]

    def test_fig5c_restart_dominates_small_problems(self):
        rows = fig5c_rows(grids=(512, 32_768))
        small = dict(zip(["grid"] + list(STAGES), rows[0]))
        big = dict(zip(["grid"] + list(STAGES), rows[1]))
        assert small["restart"] > small["checkpoint"] + small["restore"]
        assert big["checkpoint"] + big["restore"] + big["load_balance"] > big["restart"]

    def test_fig5c_in_memory_checkpoint_cheap_at_4gb(self):
        # §4.2: "the overhead of in-memory checkpointing and restoring
        # remains significantly low even for a problem with data size 4GB".
        rows = fig5c_rows(grids=(32_768,))
        row = dict(zip(["grid"] + list(STAGES), rows[0]))
        assert row["checkpoint"] + row["restore"] < 2.0

    def test_fig5c_data_stages_grow_while_restart_stays_flat(self):
        # §4.2: checkpoint and the total grow with the problem size; the
        # restart stage does not depend on it.
        rows = fig5c_rows()
        ckpts = [r[STAGES.index("checkpoint") + 1] for r in rows]
        restarts = [r[STAGES.index("restart") + 1] for r in rows]
        totals = [r[STAGES.index("total") + 1] for r in rows]
        assert all(a < b for a, b in zip(ckpts, ckpts[1:]))
        assert max(restarts) - min(restarts) < 0.02 * max(restarts)
        assert totals[0] < totals[-1]

    @pytest.mark.parametrize("replicas", [8, 16, 32])
    def test_mpi_layer_cuts_rescale_overhead(self, replicas):
        # Contribution C1 (§2.2): a shrink to half costs netlrts more
        # than 1.5x what it costs the MPI machine layer.
        def total(layer):
            return measure_rescale(replicas, replicas // 2, 8192 * 8192 * 4,
                                   commlayer=layer)["total"]

        assert total(NETLRTS_LAYER) > 1.5 * total(MPI_LAYER)

    def test_render_fig5(self):
        text = render_fig5()
        assert "Figure 5a" in text and "Figure 5c" in text


class TestFig6:
    @pytest.fixture(scope="class")
    def result(self):
        # Scaled-down run (same structure, fewer iterations) to keep the
        # test fast; ``repro fig6`` runs the full 3000 iterations.
        return run_fig6(
            total_steps=600,
            shrink_after_steps=200,
            expand_after_steps=400,
        )

    def test_both_rescales_happen(self, result):
        assert [r.kind for r in result.rescale_reports] == ["shrink", "expand"]

    def test_block_time_rises_after_shrink(self, result):
        durations = dict(result.block_durations)
        before = durations[200]
        after = durations[300]
        assert after > before * 1.6

    def test_block_time_recovers_after_expand(self, result):
        durations = dict(result.block_durations)
        assert durations[600] == pytest.approx(durations[200], rel=0.05)

    def test_timeline_monotonic(self, result):
        times = [t for t, _ in result.timeline]
        assert all(a <= b for a, b in zip(times, times[1:]))
        assert result.timeline[-1][1] == 600
