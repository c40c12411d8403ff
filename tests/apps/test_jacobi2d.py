"""Jacobi2D correctness: the blocked chare solve must match the serial
reference bit-for-bit, including across shrink/expand."""

import numpy as np
import pytest

from repro.apps.jacobi2d import Jacobi2D, JacobiConfig, jacobi_reference
from repro.charm import CcsClient, CcsServer, CharmRuntime
from repro.sim import Engine


def run_app(engine, rts, app, rescale_plan=None):
    """Run app to completion; optionally send CCS rescales at given steps.

    ``rescale_plan``: list of (virtual_time, target_pes).
    """
    server = CcsServer(engine)
    app.attach_ccs(server)
    client = CcsClient(engine, server)
    proc = engine.process(app.main(rts), name="app")
    if rescale_plan:
        def fire(target):
            def waiter():
                try:
                    yield client.request("rescale", {"target": target})
                except Exception:  # noqa: BLE001 - declined requests are fine
                    pass

            engine.process(waiter())

        for at, target in rescale_plan:
            engine.schedule(at, fire, target)
    engine.run()
    assert proc.triggered
    return app


class TestJacobiCorrectness:
    def test_matches_serial_reference_exactly(self, engine):
        config = JacobiConfig(n=32, blocks=4, steps=25)
        rts = CharmRuntime(engine, num_pes=4)
        app = Jacobi2D(config)
        run_app(engine, rts, app)
        expected = jacobi_reference(config, 25)
        assert np.array_equal(app.solution(rts), expected)

    def test_placement_independence(self):
        """The same problem on different PE counts gives identical results."""
        def solve(num_pes):
            engine = Engine()
            rts = CharmRuntime(engine, num_pes=num_pes)
            app = Jacobi2D(JacobiConfig(n=24, blocks=4, steps=20))
            run_app(engine, rts, app)
            return app.solution(rts)

        assert np.array_equal(solve(1), solve(4))
        assert np.array_equal(solve(4), solve(7))

    def test_residual_decreases(self, engine):
        config = JacobiConfig(n=32, blocks=4, steps=40)
        rts = CharmRuntime(engine, num_pes=4)
        app = Jacobi2D(config)
        run_app(engine, rts, app)
        assert len(app.residual_history) == 40
        assert app.residual_history[-1] < app.residual_history[0]

    def test_shrink_mid_run_preserves_solution(self, engine):
        # Inflated per-point cost slows the run so the CCS rescale signal
        # lands mid-solve rather than racing completion.
        config = JacobiConfig(n=32, blocks=4, steps=60, compute_per_point=1e-5)
        rts = CharmRuntime(engine, num_pes=4)
        app = Jacobi2D(config)
        run_app(engine, rts, app, rescale_plan=[(0.05, 2)])
        assert rts.num_pes == 2
        assert len(app.rescale_reports) == 1
        expected = jacobi_reference(config, 60)
        assert np.array_equal(app.solution(rts), expected)

    def test_expand_mid_run_preserves_solution(self, engine):
        config = JacobiConfig(n=32, blocks=4, steps=60, compute_per_point=1e-5)
        rts = CharmRuntime(engine, num_pes=2)
        app = Jacobi2D(config)
        run_app(engine, rts, app, rescale_plan=[(0.05, 6)])
        assert rts.num_pes == 6
        expected = jacobi_reference(config, 60)
        assert np.array_equal(app.solution(rts), expected)

    def test_shrink_then_expand_timeline_recorded(self, engine):
        config = JacobiConfig(n=32, blocks=4, steps=80, compute_per_point=1e-4)
        rts = CharmRuntime(engine, num_pes=4)
        app = Jacobi2D(config)
        run_app(engine, rts, app, rescale_plan=[(0.05, 2), (3.0, 4)])
        assert [r.kind for r in app.rescale_reports] == ["shrink", "expand"]
        timeline = app.timeline()
        assert timeline[-1][1] == 80
        # Timestamps strictly increase.
        times = [t for t, _ in timeline]
        assert all(a <= b for a, b in zip(times, times[1:]))
        expected = jacobi_reference(config, 80)
        assert np.array_equal(app.solution(rts), expected)

    def test_block_durations_reflect_shrink(self, engine):
        # Fig 6a's shape: per-block time grows after a shrink.
        config = JacobiConfig(n=64, blocks=4, steps=60, compute_per_point=2e-6)
        rts = CharmRuntime(engine, num_pes=4)
        app = Jacobi2D(config)
        run_app(engine, rts, app, rescale_plan=[(0.04, 1)])
        durations = app.block_durations()
        assert durations[-1][1] > durations[0][1] * 1.5

    def test_solve_strong_scales_on_the_runtime(self):
        # Fig 4's shape on real compute: a 128x128 grid in 64 chares
        # finishes sooner in virtual time on more PEs.
        def solve_time(pes):
            engine = Engine()
            config = JacobiConfig(n=128, blocks=8, steps=10,
                                  compute_per_point=2e-6)
            run_app(engine, CharmRuntime(engine, num_pes=pes), Jacobi2D(config))
            return engine.now

        assert solve_time(1) > solve_time(4) > solve_time(8)

    def test_indivisible_grid_rejected(self):
        with pytest.raises(ValueError):
            JacobiConfig(n=30, blocks=4)


class TestJacobiConvergence:
    def test_converges_toward_laplace_solution(self, engine):
        # With enough iterations the interior approaches the harmonic
        # solution; near the top boundary values approach 1.
        config = JacobiConfig(n=16, blocks=2, steps=600)
        rts = CharmRuntime(engine, num_pes=2)
        app = Jacobi2D(config)
        run_app(engine, rts, app)
        solution = app.solution(rts)
        assert solution[0].mean() > 0.5  # first interior row pulled to BC=1
        assert solution[-1].mean() < 0.1
        assert app.residual < 1e-3
