"""The content-addressed per-trial sweep cache (PR 3 tentpole).

Acceptance bars: a repeated identical sweep is answered ≥ 90% from the
cache (here: 100%), a one-cell edit re-runs only that cell's trials, and
cached results are bit-identical to uncached ones.
"""

import json
import os

import pytest

from repro.errors import SchedulingError
from repro.schedsim import (
    TrialCache,
    code_salt,
    compare_policies,
    resolve_trial_cache,
    run_trials,
    sweep_submission_gap,
)
from repro.schedsim.experiment import run_trial_task, trial_task

TASK = trial_task("elastic", 90.0, 180.0, 3, 64, 8)


@pytest.fixture
def cache(tmp_path):
    return TrialCache(tmp_path / "sweep-cache")


class TestTrialCacheStore:
    def test_roundtrip_is_exact(self, cache):
        metrics = run_trial_task(TASK)
        cache.put(TASK, metrics)
        assert cache.get(TASK) == metrics  # JSON round-trips floats exactly

    def test_get_unknown_is_miss(self, cache):
        assert cache.get(TASK) is None
        assert cache.misses == 1 and cache.hits == 0
        assert cache.hit_rate == 0.0

    def test_key_is_content_addressed(self, cache):
        assert cache.key(TASK) == cache.key(list(TASK))  # canonical form
        other = trial_task("elastic", 90.0, 180.0, 4, 64, 8)  # seed differs
        assert cache.key(TASK) != cache.key(other)

    def test_key_ignores_int_float_spelling(self, cache):
        # gaps=(0, 150) and gaps=(0.0, 150.0) describe identical trials.
        assert cache.key(("elastic", 90, 180, 3, 64, 8)) == cache.key(
            ("elastic", 90.0, 180.0, 3.0, 64.0, 8.0)
        )

    def test_salt_invalidates_entries(self, tmp_path):
        metrics = run_trial_task(TASK)
        old = TrialCache(tmp_path, salt="code-v1")
        old.put(TASK, metrics)
        new = TrialCache(tmp_path, salt="code-v2")
        assert new.get(TASK) is None  # a code edit must never serve stale rows

    def test_default_salt_is_code_derived_and_stable(self, cache):
        assert cache.salt == code_salt()
        assert code_salt() == code_salt()  # memoized, deterministic

    def test_corrupted_entry_degrades_to_miss(self, cache):
        metrics = run_trial_task(TASK)
        cache.put(TASK, metrics)
        path = cache._path(cache.key(TASK))
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{not json")
        assert cache.get(TASK) is None
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"schema": 1, "metrics": {"unexpected": True}}, handle)
        assert cache.get(TASK) is None  # schema drift is a miss, not a crash

    def test_faults_layer_edit_moves_the_salt(self, tmp_path):
        """A fault-plan edit must invalidate cached *cloud* trials: the
        ``faults`` tree participates in the code-version salt."""
        import shutil

        import repro

        copy = tmp_path / "repro"
        shutil.copytree(os.path.dirname(repro.__file__), copy,
                        ignore=shutil.ignore_patterns("__pycache__"))
        before = code_salt(package_root=str(copy))
        assert before == code_salt(package_root=str(copy))  # walk is stable
        with open(copy / "faults" / "plan.py", "a", encoding="utf-8") as f:
            f.write("\n# tweak the fault timeline\n")
        after = code_salt(package_root=str(copy))
        assert after != before

        # and a salt change really does miss previously cached records
        record = {"total_time": 2.0, "total_cost": 1.0}
        old = TrialCache(tmp_path / "c", salt=before)
        old.put(TASK, record)
        assert TrialCache(tmp_path / "c", salt=before).get(TASK) == record
        assert TrialCache(tmp_path / "c", salt=after).get(TASK) is None

    def test_clear_removes_entries(self, cache):
        cache.put(TASK, run_trial_task(TASK))
        assert cache.clear() == 1
        assert cache.get(TASK) is None

    def test_clear_sweeps_orphaned_tmp_files(self, cache):
        cache.put(TASK, run_trial_task(TASK))
        shard = os.path.dirname(cache._path(cache.key(TASK)))
        orphan = os.path.join(shard, "interrupted-put.tmp")
        with open(orphan, "w", encoding="utf-8") as handle:
            handle.write("{}")
        assert cache.clear() == 1  # counts entries, but sweeps orphans too
        assert not os.path.exists(orphan)


class TestResolveTrialCache:
    def test_passthrough_and_disable(self, cache, monkeypatch):
        monkeypatch.delenv("REPRO_SWEEP_CACHE", raising=False)
        assert resolve_trial_cache(cache) is cache
        assert resolve_trial_cache(False) is None
        assert resolve_trial_cache(None) is None  # opt-in by default

    def test_env_enables_and_disables(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_CACHE", str(tmp_path))
        resolved = resolve_trial_cache(None)
        assert resolved is not None and resolved.root == str(tmp_path)
        for off in ("0", "off", ""):
            monkeypatch.setenv("REPRO_SWEEP_CACHE", off)
            assert resolve_trial_cache(None) is None

    def test_true_is_rejected(self):
        with pytest.raises(SchedulingError, match="cache=True"):
            resolve_trial_cache(True)

    def test_path_becomes_cache(self, tmp_path):
        resolved = resolve_trial_cache(tmp_path / "c")
        assert isinstance(resolved, TrialCache)


class TestSweepCaching:
    GRID = dict(gaps=(0.0, 100.0), trials=3, policies=("elastic", "moldable"))

    def test_repeat_sweep_hits_at_least_90_percent(self, cache):
        first = sweep_submission_gap(cache=cache, **self.GRID)
        assert cache.hits == 0  # cold cache: everything simulated
        total = 2 * 2 * 3
        assert cache.misses == total and cache.writes == total
        hits_before = cache.hits
        second = sweep_submission_gap(cache=cache, **self.GRID)
        repeat_hits = cache.hits - hits_before
        assert repeat_hits / total >= 0.90  # acceptance bar (actually 100%)
        assert repeat_hits == total
        assert first.stats == second.stats

    def test_cached_results_identical_to_uncached(self, cache):
        cached = sweep_submission_gap(cache=cache, **self.GRID)
        recached = sweep_submission_gap(cache=cache, **self.GRID)
        plain = sweep_submission_gap(**self.GRID)
        assert cached.stats == plain.stats
        assert recached.stats == plain.stats

    def test_one_cell_edit_reruns_only_that_cell(self, cache):
        sweep_submission_gap(cache=cache, **self.GRID)
        misses_before, hits_before = cache.misses, cache.hits
        edited = dict(self.GRID, gaps=(0.0, 150.0))  # one grid value changed
        sweep_submission_gap(cache=cache, **edited)
        # 2 policies x 3 trials for the edited value simulate; the rest hit.
        assert cache.misses - misses_before == 2 * 3
        assert cache.hits - hits_before == 2 * 3

    def test_run_trials_and_compare_policies_take_cache(self, cache):
        direct = run_trials("elastic", submission_gap=90.0, trials=3)
        cached = run_trials("elastic", submission_gap=90.0, trials=3, cache=cache)
        again = run_trials("elastic", submission_gap=90.0, trials=3, cache=cache)
        assert direct == cached == again
        assert cache.hits == 3  # the second call was fully served

        rows = compare_policies(trials=2, policies=("elastic", "moldable"),
                                cache=cache)
        rows_again = compare_policies(trials=2, policies=("elastic", "moldable"),
                                      cache=cache)
        assert rows == rows_again

    def test_parallel_sweep_with_cache_matches_serial(self, cache):
        parallel = sweep_submission_gap(cache=cache, workers=2, **self.GRID)
        serial = sweep_submission_gap(**self.GRID)
        assert parallel.stats == serial.stats
        # Warm parallel pass: no pool needed, everything from the store.
        warm = sweep_submission_gap(cache=cache, workers=2, **self.GRID)
        assert warm.stats == serial.stats

    def test_env_cache_reaches_sweeps(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_CACHE", str(tmp_path / "env-cache"))
        first = sweep_submission_gap(**self.GRID)
        second = sweep_submission_gap(**self.GRID)
        assert first.stats == second.stats
        assert os.path.isdir(str(tmp_path / "env-cache"))
