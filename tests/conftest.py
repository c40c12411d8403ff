"""Shared pytest fixtures for the repro test suite."""

import pytest

from repro.sim import Engine, Tracer


@pytest.fixture(autouse=True)
def _isolate_sweep_cache(monkeypatch):
    """Keep the suite hermetic from a developer's exported sweep cache.

    ``run_tasks`` resolves ``REPRO_SWEEP_CACHE`` by default; with it
    exported, the parallel-vs-serial equivalence tests would compare
    cache hits against cache hits (hiding pool bugs) and pollute the
    user's on-disk cache.  Tests that want the env path set it
    explicitly via ``monkeypatch.setenv`` on top of this scrub.
    """
    monkeypatch.delenv("REPRO_SWEEP_CACHE", raising=False)


@pytest.fixture
def engine():
    """A fresh simulation engine starting at t=0."""
    return Engine()


@pytest.fixture
def tracer(engine):
    """A tracer bound to the engine fixture."""
    return Tracer(engine)
