"""repro.obs — the zero-overhead-when-off observability layer.

Four pieces, one contract:

* :mod:`repro.obs.metrics` — a process-wide :class:`MetricsRegistry` of
  counters/gauges/histograms.  Disabled by default; components bind
  their instruments at construction, so the uninstrumented hot paths
  stay branch-free (the blocking perf gate measures them that way).
* :mod:`repro.obs.spans` / :mod:`repro.obs.perfetto` — span-style phase
  timing over the existing :class:`repro.sim.trace.Tracer`, exported as
  Chrome-trace/Perfetto JSON (``repro obs export-trace``).
* :mod:`repro.obs.manifest` — :class:`RunManifest` provenance (git SHA,
  seed, policy, config digest, wall/virtual time, peak RSS) attached to
  every perf-gate document and exported trace.
* :mod:`repro.obs.dashboard` — the static-HTML trend report the nightly
  workflow publishes (``repro obs dashboard``).

Import discipline: this ``__init__`` pulls in only the dependency-free
core (metrics, log, manifest) because :mod:`repro.sim.engine` imports
``repro.obs.metrics`` — anything here that imported ``repro.sim`` back
would cycle.  Spans, perfetto, and the dashboard are explicit submodule
imports for the same reason.
"""

from .log import StructuredLogger, get_logger, set_level
from .manifest import RunManifest, config_digest, git_sha
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    active_registry,
    disable,
    enable,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "active_registry",
    "enable",
    "disable",
    "StructuredLogger",
    "get_logger",
    "set_level",
    "RunManifest",
    "git_sha",
    "config_digest",
]
