"""Parallel-vs-serial sweep equivalence and pool machinery."""

import functools
import os
import time

import pytest

from repro.schedsim import compare_policies, run_trials, sweep_submission_gap
from repro.workloads.parallel import parallel_map, resolve_workers


def _square(x):
    return x * x


def _worker_pid(rendezvous, _x):
    """This worker's pid, returned once a second worker has checked in
    under ``rendezvous`` (or after a timeout).  Without the wait the
    first worker up could take every item before the second started."""
    pid = os.getpid()
    open(os.path.join(rendezvous, str(pid)), "w").close()
    deadline = time.monotonic() + 30.0
    while len(os.listdir(rendezvous)) < 2 and time.monotonic() < deadline:
        time.sleep(0.01)
    return pid


class TestParallelMap:
    def test_preserves_order(self):
        items = list(range(23))
        assert parallel_map(_square, items, workers=3) == [x * x for x in items]

    def test_serial_fallback(self):
        assert parallel_map(_square, [1, 2, 3], workers=1) == [1, 4, 9]

    def test_empty(self):
        assert parallel_map(_square, [], workers=4) == []

    def test_uses_multiple_worker_processes(self, tmp_path):
        pids = set(parallel_map(functools.partial(_worker_pid, str(tmp_path)),
                                list(range(16)), workers=2))
        assert os.getpid() not in pids  # work really left this process
        assert len(pids) >= 2

    def test_resolve_workers(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers(4) == 4
        assert resolve_workers() == 1  # parallelism is opt-in
        assert resolve_workers(0) == (os.cpu_count() or 1)  # 0 = all cores
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert resolve_workers() == 3

    def test_resolve_workers_rejects_non_integer_env(self, monkeypatch):
        from repro.errors import SchedulingError

        monkeypatch.setenv("REPRO_WORKERS", "auto")
        with pytest.raises(SchedulingError, match="REPRO_WORKERS"):
            resolve_workers()

    def test_resolve_workers_rejects_negative_arg(self, monkeypatch):
        from repro.errors import SchedulingError

        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        with pytest.raises(SchedulingError, match="workers must be >= 0"):
            resolve_workers(-1)

    def test_resolve_workers_rejects_negative_env(self, monkeypatch):
        from repro.errors import SchedulingError

        monkeypatch.setenv("REPRO_WORKERS", "-3")
        with pytest.raises(SchedulingError, match="REPRO_WORKERS must be >= 0"):
            resolve_workers()

    def test_env_enables_pool_at_call_sites(self, monkeypatch):
        # REPRO_WORKERS must reach the sweep layer's gating, not just
        # parallel_map: same results, pool path taken.
        serial = run_trials("elastic", submission_gap=90.0, trials=3)
        monkeypatch.setenv("REPRO_WORKERS", "2")
        via_env = run_trials("elastic", submission_gap=90.0, trials=3)
        assert serial == via_env


class TestEquivalence:
    """The acceptance bar: parallel results identical to serial, same seeds."""

    def test_run_trials_identical(self):
        serial = run_trials("elastic", submission_gap=90.0, trials=6)
        parallel = run_trials("elastic", submission_gap=90.0, trials=6,
                              workers=2)
        assert serial == parallel

    def test_compare_policies_identical(self):
        serial = compare_policies(trials=3)
        parallel = compare_policies(trials=3, workers=2)
        assert serial == parallel

    def test_sweep_identical_across_grid(self):
        kwargs = dict(gaps=(50.0, 250.0), trials=3,
                      policies=("elastic", "moldable"))
        serial = sweep_submission_gap(**kwargs)
        parallel = sweep_submission_gap(workers=2, **kwargs)
        assert serial.values == parallel.values
        assert serial.policies() == parallel.policies()
        for policy in serial.stats:
            assert serial.stats[policy] == parallel.stats[policy]

    def test_sweep_parallel_fanout_is_balanced_and_identical(self):
        # The sweep path dispatches through submit-based scheduling (one
        # long-tail cell must not serialize a chunk); results still match
        # the serial grid exactly.
        kwargs = dict(gaps=(0.0, 300.0), trials=2,
                      policies=("elastic", "min_replicas"))
        serial = sweep_submission_gap(**kwargs)
        parallel = sweep_submission_gap(workers=3, **kwargs)
        assert serial.stats == parallel.stats

    def test_sweep_respects_base_seed_pairing(self):
        # Different base seeds must give different stats (no accidental
        # seed reuse in the flattened grid).
        a = sweep_submission_gap(gaps=(90.0,), trials=2, workers=2,
                                 policies=("elastic",), base_seed=0)
        b = sweep_submission_gap(gaps=(90.0,), trials=2, workers=2,
                                 policies=("elastic",), base_seed=1000)
        assert a.stats["elastic"] != b.stats["elastic"]
