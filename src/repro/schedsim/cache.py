"""Content-addressed per-trial result cache for sweeps.

The paper's evaluation grids are embarrassingly repetitive: a Figure-7
sweep is 4 policies x 7 gaps x 100 seeds = 2800 simulations, and editing
one grid value — or re-running the same sweep for a plot tweak — used to
recompute every cell from scratch.  Each trial is a pure function of its
task tuple plus the simulator code itself, so its record can be cached
under a content hash of exactly those inputs (the prefix-cache idea from
LLM schedulers, applied to scheduler trials).  A key is any substrate's
task tuple — :func:`~repro.schedsim.experiment.trial_task`'s ``(policy,
submission_gap, rescale_gap, seed, total_slots, num_jobs)`` or
:func:`~repro.cloud.sweep.cloud_trial_task`'s, which starts with
``"cloud-trial", 1`` so the two never collide in one directory — and a
value is the trial's JSON record, a flat dict of floats:

* **key** — SHA-256 over the canonical JSON of the task tuple and a
  *code-version salt*;
* **salt** — SHA-256 over the source bytes of every module that can
  change a trial's result (``repro.scheduling``, ``repro.schedsim``,
  ``repro.sim``, ``repro.perfmodel``, ``repro.workloads``,
  ``repro.cloud``, ``repro.faults``, ``repro.charm``, ``repro.units``
  and ``repro.errors``), so editing simulator code silently invalidates
  every stale entry — no manual versioning to forget.  Registry-resolved
  policies from *outside* the tree (``repro.policies`` entry points) are
  covered too: their factory source is folded in via
  :meth:`repro.scheduling.registry.SchedulerRegistry.external_salt`;
* **store** — one small JSON file per trial, sharded two-hex-deep under
  the cache root, written atomically (tmp + rename) so parallel sweeps
  can share a cache directory.

Enable it by passing ``cache=`` to
:func:`~repro.schedsim.experiment.run_tasks` or to anything built on it
— :func:`run_trials`, :func:`compare_policies`, the Figure-7/8 sweeps
and :func:`~repro.cloud.sweep.compare_cloud` — or globally via the
``REPRO_SWEEP_CACHE`` environment variable (a directory path; ``0`` /
``off`` disables).  Deleting the directory is the only "clear" anyone
needs.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Optional, Sequence, Union

from ..errors import SchedulingError

__all__ = ["TrialCache", "code_salt", "resolve_trial_cache", "CACHE_ENV"]

#: Environment override enabling the cache for every sweep in a process.
CACHE_ENV = "REPRO_SWEEP_CACHE"

#: Subpackages whose source participates in the code-version salt — the
#: transitive implementation of one simulated trial.  ``faults`` and
#: ``charm`` joined when the cloud simulator grew fault injection and
#: checkpoint recovery: a fault-plan or checkpoint-store edit changes
#: faulted cloud trials, so it must invalidate their cached results.
_SALTED_TREES = ("scheduling", "schedsim", "sim", "perfmodel", "workloads",
                 "cloud", "faults", "charm")
_SALTED_FILES = ("units.py", "errors.py")

_code_salt: Optional[str] = None


def _compute_salt(package_root: str) -> str:
    digest = hashlib.sha256()
    paths = [os.path.join(package_root, name) for name in _SALTED_FILES]
    for tree in _SALTED_TREES:
        for dirpath, dirnames, filenames in os.walk(
            os.path.join(package_root, tree)
        ):
            dirnames.sort()
            paths.extend(
                os.path.join(dirpath, f) for f in filenames if f.endswith(".py")
            )
    for path in sorted(paths):
        try:
            with open(path, "rb") as handle:
                source = handle.read()
        except OSError:
            continue
        digest.update(os.path.relpath(path, package_root).encode())
        digest.update(b"\0")
        digest.update(source)
        digest.update(b"\0")
    return digest.hexdigest()


def code_salt(package_root: Optional[str] = None) -> str:
    """SHA-256 of every source file that can change a trial's result.

    Computed once per process (for the installed tree); a one-character
    edit anywhere in the simulator stack yields a different salt, so
    every previously cached trial silently misses instead of serving
    stale metrics.  ``package_root`` points the walk at an alternate
    copy of the ``repro`` package — uncached, for tests that prove an
    edit really does move the salt.
    """
    global _code_salt
    if package_root is not None:
        return _compute_salt(package_root)
    if _code_salt is None:
        _code_salt = _compute_salt(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        )
    return _code_salt


class TrialCache:
    """On-disk store of per-trial records, keyed by content hash."""

    SCHEMA = 1

    def __init__(self, root: Union[str, os.PathLike], salt: Optional[str] = None):
        self.root = os.fspath(root)
        if salt is None:
            salt = code_salt()
            # Registry-resolved policies can live outside the salted
            # source trees (entry-point plugins): fold their factory
            # source into the salt so editing a plugin invalidates its
            # cached trials exactly like an in-tree edit.  Empty for
            # in-tree-only registries, keeping existing keys valid.
            from ..scheduling.registry import REGISTRY

            external = REGISTRY.external_salt()
            if external:
                salt = f"{salt}:{external}"
        self.salt = salt
        self.hits = 0
        self.misses = 0
        self.writes = 0
        from ..obs.metrics import active_registry

        registry = active_registry()
        if registry.enabled:
            self._obs_hits = registry.counter("cache.hits")
            self._obs_misses = registry.counter("cache.misses")
            self._note_salt(registry)
        else:
            self._obs_hits = None
            self._obs_misses = None

    def _note_salt(self, registry) -> None:
        """Count salt rollovers: a SALT marker in the cache root records
        the last salt this directory served; a mismatch means a code edit
        invalidated every prior entry (``cache.salt_invalidations``).
        Best-effort — a read-only cache directory just skips the count.
        """
        marker = os.path.join(self.root, "SALT")
        try:
            with open(marker, "r", encoding="utf-8") as handle:
                previous = handle.read().strip()
        except OSError:
            previous = None
        if previous == self.salt:
            return
        if previous is not None:
            registry.counter("cache.salt_invalidations").inc()
        try:
            os.makedirs(self.root, exist_ok=True)
            with open(marker, "w", encoding="utf-8") as handle:
                handle.write(self.salt + "\n")
        except OSError:  # pragma: no cover - read-only cache dir
            pass

    # ------------------------------------------------------------------

    def key(self, task: Sequence) -> str:
        """Content hash of one trial: the task tuple + the code salt.

        Numeric fields are canonicalized to float first so equal-valued
        tuples hash alike regardless of int/float spelling — ``gaps=(0,
        150)`` and ``gaps=(0.0, 150.0)`` describe the same trials and
        must share cache entries.
        """
        canonical = [
            float(field)
            if isinstance(field, (int, float)) and not isinstance(field, bool)
            else field
            for field in task
        ]
        document = json.dumps(
            {"schema": self.SCHEMA, "salt": self.salt, "task": canonical},
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(document.encode()).hexdigest()

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], f"{key}.json")

    def get(self, task: Sequence) -> Optional[dict]:
        """The cached record for ``task``, or None (counted as a miss)."""
        try:
            with open(self._path(self.key(task)), "r", encoding="utf-8") as handle:
                document = json.load(handle)
        except (OSError, ValueError):
            # ValueError covers JSONDecodeError *and* UnicodeDecodeError:
            # an entry damaged on disk is a miss, never a sweep abort.
            document = None
        record = document.get("record") if isinstance(document, dict) else None
        if isinstance(record, dict):
            self.hits += 1
            if self._obs_hits is not None:
                self._obs_hits.inc()
            return record
        self.misses += 1
        if self._obs_misses is not None:
            self._obs_misses.inc()
        return None

    def put(self, task: Sequence, record: dict) -> None:
        """Store one trial record atomically (safe for shared caches)."""
        path = self._path(self.key(task))
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(
                    {"schema": self.SCHEMA, "task": list(task), "record": record},
                    handle,
                )
            os.replace(tmp, path)
        except OSError:
            try:  # pragma: no cover - cleanup on exotic filesystems
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.writes += 1

    # ------------------------------------------------------------------

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the store (0.0 when unused)."""
        total = self.lookups
        return self.hits / total if total else 0.0

    def clear(self) -> int:
        """Delete every entry under the cache root; returns the count."""
        removed = 0
        if not os.path.isdir(self.root):
            return removed
        for dirpath, _dirnames, filenames in os.walk(self.root):
            for name in filenames:
                # .tmp files are writes orphaned by an interrupted put().
                if name.endswith((".json", ".tmp")):
                    try:
                        os.unlink(os.path.join(dirpath, name))
                        if name.endswith(".json"):
                            removed += 1
                    except OSError:  # pragma: no cover - concurrent clear
                        pass
        return removed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TrialCache(root={self.root!r}, hits={self.hits}, "
            f"misses={self.misses}, writes={self.writes})"
        )


def resolve_trial_cache(
    cache: Union[None, bool, str, os.PathLike, TrialCache] = None,
) -> Optional[TrialCache]:
    """Normalize a ``cache=`` argument (or the environment) to a cache.

    ``None`` defers to ``REPRO_SWEEP_CACHE``: unset, empty, ``0`` or
    ``off`` mean disabled, anything else is the cache directory.  ``False``
    forces the cache off regardless of the environment; a string/path
    names the directory; an existing :class:`TrialCache` passes through
    (so callers can share hit/miss counters across sweeps).
    """
    if isinstance(cache, TrialCache):
        return cache
    if cache is False:
        return None
    if cache is True:
        raise SchedulingError(
            "cache=True is ambiguous — pass a directory path, a TrialCache, "
            f"or set {CACHE_ENV}"
        )
    if cache is None:
        env = os.environ.get(CACHE_ENV, "").strip()
        if not env or env.lower() in ("0", "off", "none"):
            return None
        return TrialCache(env)
    return TrialCache(cache)
