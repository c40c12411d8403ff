"""Deterministic, replayable fault plans for the cloud substrate.

A :class:`FaultPlan` is the single input that makes failure a first-class
scenario parameter: a seed, a horizon, and a sorted timeline of
:class:`FaultEvent` entries.  Plans come from two sources that compose —
seeded generators (:meth:`FaultPlan.synthesize` draws event times from a
named :func:`repro.sim.rng.stream`, so the same ``(seed, load)`` always
yields the same timeline) and explicit hand-written entries (via the
constructor or :meth:`FaultPlan.extend`).  Either way the plan
round-trips through JSON, so a chaos run observed in CI can be replayed
locally byte-for-byte with ``repro faults replay``.

Five fault kinds cover the failure modes the HPC-on-cloud literature
calls out (provisioning failures and retries per Armstrong et al.'s
Cloud Scheduler; interruption notice windows per the spot-market
survey):

``node_crash``
    A node disappears with no warning: running work is lost.
``spot_interrupt``
    A reclaim *notice* arrives ``notice`` seconds before the node is
    taken, giving the scheduler a window to checkpoint.
``provision_fail``
    For ``duration`` seconds, boot attempts fail after ``delay`` seconds
    (default: half the pool's provisioning delay).
``provision_timeout``
    Like ``provision_fail`` but the attempt hangs first — the failure is
    detected only after ``delay`` seconds (default: 3x the pool's
    provisioning delay).
``capacity_shortage``
    For ``duration`` seconds the pool has no capacity: requests are
    rejected immediately.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Tuple

from ..errors import FaultPlanError
from ..sim.rng import stream

__all__ = [
    "FAULT_KINDS",
    "WINDOW_KINDS",
    "FaultEvent",
    "FaultLoad",
    "FaultPlan",
    "reference_chaos_plan",
]

PLAN_SCHEMA_VERSION = 1

#: Point events strike one node at a fixed time.
POINT_KINDS = ("node_crash", "spot_interrupt")
#: Window events degrade provisioning for a span of time.
WINDOW_KINDS = ("provision_fail", "provision_timeout", "capacity_shortage")
FAULT_KINDS = POINT_KINDS + WINDOW_KINDS


@dataclass(frozen=True)
class FaultEvent:
    """One entry on a fault timeline.

    ``pool`` restricts the event to a named node pool (``None`` = any).
    ``notice`` applies to ``spot_interrupt``; ``duration``/``count``/
    ``delay`` apply to the window kinds (``count`` caps how many boot
    attempts the window may affect, ``None`` = unlimited).
    """

    kind: str
    time: float
    pool: Optional[str] = None
    notice: float = 0.0
    duration: float = 0.0
    count: Optional[int] = None
    delay: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultPlanError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{', '.join(FAULT_KINDS)}"
            )
        if self.time < 0.0:
            raise FaultPlanError(f"fault time must be >= 0, got {self.time}")
        if self.kind == "spot_interrupt" and self.notice < 0.0:
            raise FaultPlanError(
                f"notice must be >= 0, got {self.notice}"
            )
        if self.kind in WINDOW_KINDS and self.duration <= 0.0:
            raise FaultPlanError(
                f"{self.kind} requires a positive duration, got "
                f"{self.duration}"
            )
        if self.count is not None and self.count <= 0:
            raise FaultPlanError(f"count must be positive, got {self.count}")
        if self.delay is not None and self.delay < 0.0:
            raise FaultPlanError(f"delay must be >= 0, got {self.delay}")

    @property
    def end(self) -> float:
        """When the event stops mattering (== ``time`` for point events)."""
        return self.time + self.duration

    def as_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {"kind": self.kind, "time": self.time}
        if self.pool is not None:
            out["pool"] = self.pool
        if self.kind == "spot_interrupt":
            out["notice"] = self.notice
        if self.kind in WINDOW_KINDS:
            out["duration"] = self.duration
            if self.count is not None:
                out["count"] = self.count
            if self.delay is not None:
                out["delay"] = self.delay
        return out

    @classmethod
    def from_dict(cls, data: object) -> "FaultEvent":
        if not isinstance(data, dict):
            raise FaultPlanError(
                f"fault entry must be an object, got {type(data).__name__}"
            )
        known = {"kind", "time", "pool", "notice", "duration", "count",
                 "delay"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise FaultPlanError(
                f"unknown fault entry fields: {', '.join(unknown)}"
            )
        try:
            return cls(
                kind=str(data.get("kind", "")),
                time=float(data.get("time", -1.0)),
                pool=(None if data.get("pool") is None
                      else str(data["pool"])),
                notice=float(data.get("notice", 0.0)),
                duration=float(data.get("duration", 0.0)),
                count=(None if data.get("count") is None
                       else int(data["count"])),
                delay=(None if data.get("delay") is None
                       else float(data["delay"])),
            )
        except (TypeError, ValueError) as exc:
            raise FaultPlanError(f"malformed fault entry: {exc}") from exc


def _sort_key(entry: FaultEvent) -> Tuple[float, str, str]:
    return (entry.time, entry.kind, entry.pool or "")


@dataclass(frozen=True)
class FaultLoad:
    """Generator spec: how much fault pressure to synthesize per horizon.

    Counts are exact (not expected values): ``crashes=2`` draws exactly
    two crash times, uniformly over the middle 90% of the horizon.
    """

    crashes: int = 0
    interruptions: int = 0
    notice: float = 120.0
    fail_windows: int = 0
    timeout_windows: int = 0
    shortage_windows: int = 0
    window_duration: float = 600.0
    pool: Optional[str] = None

    def __post_init__(self) -> None:
        for name in ("crashes", "interruptions", "fail_windows",
                     "timeout_windows", "shortage_windows"):
            if getattr(self, name) < 0:
                raise FaultPlanError(f"{name} must be >= 0")
        if self.notice < 0.0:
            raise FaultPlanError("notice must be >= 0")
        if self.window_duration <= 0.0:
            raise FaultPlanError("window_duration must be positive")


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, sorted fault timeline with a JSON round-trip."""

    seed: int = 0
    horizon: float = 0.0
    entries: Tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.entries, key=_sort_key))
        object.__setattr__(self, "entries", ordered)

    @property
    def is_zero(self) -> bool:
        """True when the plan injects nothing (healthy-cloud baseline)."""
        return not self.entries

    def extend(self, entries: Iterable[FaultEvent]) -> "FaultPlan":
        """A new plan with ``entries`` merged into the timeline."""
        return replace(self, entries=self.entries + tuple(entries))

    # -- JSON round-trip ------------------------------------------------

    def as_dict(self) -> Dict[str, object]:
        return {
            "schema": PLAN_SCHEMA_VERSION,
            "seed": self.seed,
            "horizon": self.horizon,
            "entries": [entry.as_dict() for entry in self.entries],
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, data: object) -> "FaultPlan":
        if not isinstance(data, dict):
            raise FaultPlanError(
                f"fault plan must be an object, got {type(data).__name__}"
            )
        schema = data.get("schema", PLAN_SCHEMA_VERSION)
        if schema != PLAN_SCHEMA_VERSION:
            raise FaultPlanError(
                f"unsupported fault-plan schema {schema!r} "
                f"(this build reads schema {PLAN_SCHEMA_VERSION})"
            )
        raw_entries = data.get("entries", [])
        if not isinstance(raw_entries, list):
            raise FaultPlanError("fault plan 'entries' must be a list")
        try:
            seed = int(data.get("seed", 0))
            horizon = float(data.get("horizon", 0.0))
        except (TypeError, ValueError) as exc:
            raise FaultPlanError(f"malformed fault plan: {exc}") from exc
        entries = tuple(FaultEvent.from_dict(raw) for raw in raw_entries)
        return cls(seed=seed, horizon=horizon, entries=entries)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise FaultPlanError(f"fault plan is not valid JSON: {exc}") \
                from exc
        return cls.from_dict(data)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise FaultPlanError(f"cannot read fault plan: {exc}") from exc
        return cls.from_json(text)

    # -- synthesis ------------------------------------------------------

    @classmethod
    def synthesize(cls, seed: int, horizon: float,
                   load: FaultLoad) -> "FaultPlan":
        """Draw a timeline from the ``faults.plan`` stream of ``seed``.

        Draw order is fixed (crashes, interruptions, fail, timeout,
        shortage) so a given ``(seed, horizon, load)`` always produces
        the same plan, and per-kind draws never shift each other.
        """
        if horizon <= 0.0:
            raise FaultPlanError(
                f"synthesize requires a positive horizon, got {horizon}"
            )
        rng = stream(seed, "faults.plan")
        lo, hi = 0.05 * horizon, 0.95 * horizon

        def times(n: int) -> List[float]:
            if n <= 0:
                return []
            return sorted(float(t) for t in rng.uniform(lo, hi, size=n))

        entries: List[FaultEvent] = []
        for t in times(load.crashes):
            entries.append(FaultEvent("node_crash", time=t, pool=load.pool))
        for t in times(load.interruptions):
            entries.append(FaultEvent("spot_interrupt", time=t,
                                      pool=load.pool, notice=load.notice))
        for kind, n in (("provision_fail", load.fail_windows),
                        ("provision_timeout", load.timeout_windows),
                        ("capacity_shortage", load.shortage_windows)):
            for t in times(n):
                entries.append(FaultEvent(kind, time=t, pool=load.pool,
                                          duration=load.window_duration))
        return cls(seed=seed, horizon=horizon, entries=tuple(entries))


def reference_chaos_plan(seed: int = 7,
                         horizon: float = 2400.0) -> FaultPlan:
    """The committed chaos scenario used by CI, the tests, and docs.

    Mixes synthesized pressure (crashes + noticed interruptions drawn
    from the seed) with explicit entries that pin the corner cases: a
    notice window too short to checkpoint in, a provisioning-failure
    window, a hang-then-timeout window, and a capacity shortage.

    The default horizon matches the reference chaos workload's healthy
    makespan (:func:`repro.faults.runner.chaos_scenario` with 24 jobs at
    a 60 s gap finishes near t=2000), so the injected pressure lands
    while jobs are actually running.
    """
    plan = FaultPlan.synthesize(
        seed, horizon,
        FaultLoad(crashes=2, interruptions=3, notice=180.0),
    )
    return plan.extend((
        FaultEvent("spot_interrupt", time=0.30 * horizon, notice=1.0),
        FaultEvent("provision_fail", time=0.35 * horizon,
                   duration=900.0, delay=45.0),
        FaultEvent("provision_timeout", time=0.55 * horizon,
                   duration=600.0, delay=240.0),
        FaultEvent("capacity_shortage", time=0.75 * horizon,
                   duration=600.0),
    ))
