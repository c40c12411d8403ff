"""Run provenance: who produced this artifact, from what, and at what cost.

Every perf_gate document, sweep and exported trace this repository emits
carries a :class:`RunManifest` — the minimum record needed to audit a
performance trajectory across commits: the git SHA the numbers were
measured on, the workload seed and policy, a digest of the configuration
that shaped the run, wall and virtual durations, and the process's peak
RSS.  The trend dashboard (:mod:`repro.obs.dashboard`) orders documents
by the manifest's UTC timestamp and labels points with its SHA.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import subprocess
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Any, Dict, Optional

__all__ = ["RunManifest", "git_sha", "config_digest", "MANIFEST_SCHEMA_VERSION"]

#: Bumped when the manifest's fields change shape.
MANIFEST_SCHEMA_VERSION = 2

_git_sha: Optional[str] = None


def git_sha() -> str:
    """The repository HEAD's short SHA, or ``"unknown"`` outside a checkout.

    Resolved once per process via ``git rev-parse`` against the package's
    own directory (artifacts may be produced from any cwd); the
    ``REPRO_GIT_SHA`` environment variable overrides — the escape hatch
    for containers shipping the source without ``.git``.
    """
    global _git_sha
    if _git_sha is None:
        sha = os.environ.get("REPRO_GIT_SHA", "").strip()
        if not sha:
            try:
                proc = subprocess.run(
                    ["git", "rev-parse", "--short=12", "HEAD"],
                    cwd=os.path.dirname(os.path.abspath(__file__)),
                    capture_output=True, text=True, timeout=10,
                )
                sha = proc.stdout.strip() if proc.returncode == 0 else ""
            except (OSError, subprocess.SubprocessError):
                sha = ""
        _git_sha = sha or "unknown"
    return _git_sha


def utc_timestamp() -> str:
    """The current instant as ISO-8601 UTC (``2026-08-08T12:00:00Z``)."""
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def config_digest(config: Any) -> str:
    """Short SHA-256 over the canonical JSON of a configuration mapping."""
    document = json.dumps(config, sort_keys=True, separators=(",", ":"),
                          default=str)
    return hashlib.sha256(document.encode()).hexdigest()[:16]


def peak_rss_kb() -> int:
    """The process's lifetime peak RSS in KiB."""
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


@dataclass
class RunManifest:
    """Provenance attached to one produced artifact."""

    schema_version: int = MANIFEST_SCHEMA_VERSION
    git_sha: str = "unknown"
    created_utc: str = ""
    command: Optional[str] = None
    seed: Optional[int] = None
    policy: Optional[str] = None
    config_digest: Optional[str] = None
    wall_seconds: Optional[float] = None
    virtual_seconds: Optional[float] = None
    peak_rss_kb: Optional[int] = None
    python: str = ""
    machine: str = ""
    extra: Dict[str, Any] = field(default_factory=dict)

    @classmethod
    def collect(
        cls,
        *,
        command: Optional[str] = None,
        seed: Optional[int] = None,
        policy: Optional[str] = None,
        config: Any = None,
        wall_seconds: Optional[float] = None,
        virtual_seconds: Optional[float] = None,
        **extra: Any,
    ) -> "RunManifest":
        """Build a manifest from the current process + the run's facts."""
        return cls(
            git_sha=git_sha(),
            created_utc=utc_timestamp(),
            command=command,
            seed=seed,
            policy=policy,
            config_digest=config_digest(config) if config is not None else None,
            wall_seconds=round(wall_seconds, 6) if wall_seconds is not None else None,
            virtual_seconds=(
                round(virtual_seconds, 6) if virtual_seconds is not None else None
            ),
            peak_rss_kb=peak_rss_kb(),
            python=platform.python_version(),
            machine=platform.machine(),
            extra=dict(extra),
        )

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready dict; ``None`` fields and empty extras are dropped."""
        out: Dict[str, Any] = {
            "schema_version": self.schema_version,
            "git_sha": self.git_sha,
            "created_utc": self.created_utc,
        }
        for key in ("command", "seed", "policy", "config_digest",
                    "wall_seconds", "virtual_seconds", "peak_rss_kb"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        if self.python:
            out["python"] = self.python
        if self.machine:
            out["machine"] = self.machine
        if self.extra:
            out["extra"] = dict(self.extra)
        return out
