"""Application driver base class.

A :class:`CharmApplication` is what the launcher pod's ``mpirun`` runs: it
builds chare arrays, iterates, and cooperates with the rescale protocol.
Per §2.2, "the application triggers rescaling during the next
load-balancing step after receiving the signal" — a pending CCS rescale
request is applied at the next sync point (every ``sync_every``
iterations) and acknowledged once the shrink/expand completes, which is
exactly when the operator may delete/attach pods.

Real-compute apps run one sync block at a time.  An app whose block time
depends only on the PE count declares :meth:`CharmApplication.block_seconds`
instead, and the driver *hops*: it lays out the sync-point times the
per-block sleeps would reach and waits once, until the first sync point
where something can happen — the last block, the next disk checkpoint, or
the sync point a newly accepted rescale request pulls the hop back to.
``completed_steps`` stays exact at any read during a hop.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from itertools import accumulate, islice, repeat
from math import gcd
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..charm import CcsRequest, CcsServer, CharmRuntime, RescaleReport, perform_rescale
from ..charm.pe import HostBinding
from ..errors import CheckpointError, ProcessKilled, RescaleError

__all__ = ["CharmApplication", "RescaleDecision"]


def _blocks_to_multiple(start: int, sync: int, every: int) -> Optional[int]:
    """Smallest ``k >= 1`` with ``(start + k * sync) % every == 0``, or
    ``None`` when no number of ``sync``-step blocks from ``start`` lands
    on a multiple of ``every``."""
    g = gcd(sync, every)
    need = -start % every
    if need % g:
        return None
    m = every // g
    return need // g * pow(sync // g, -1, m) % m or m


class RescaleDecision:
    """Application-side veto hook (paper §6, future work).

    The paper proposes letting applications accept or decline a rescale
    based on remaining work and parallel efficiency.  The default accepts
    everything, matching the evaluated system; the §3.2.2 extension
    policies (``aging``, ``preemptive``) live in
    :mod:`repro.scheduling.policies`.
    """

    def should_accept(self, app: "CharmApplication", target: int) -> bool:  # noqa: ARG002
        return True


class CharmApplication:
    """Base class for applications driven by the operator's launcher.

    Subclasses implement :meth:`setup` and one of :meth:`step` (real-compute
    apps: one generator per iteration), :meth:`run_block` (a whole sync
    block per generator) or :meth:`block_seconds` (modeled apps: the driver
    hops over every sync block where nothing can happen).

    Parameters
    ----------
    total_steps:
        Iterations to run.
    sync_every:
        Iterations between load-balancing sync points — the only places a
        rescale can happen.
    record_iterations:
        Keep a per-sync-block timeline (time, completed_steps) for
        Figure-6-style plots.
    """

    def __init__(
        self,
        name: str,
        total_steps: int,
        sync_every: int = 10,
        lb_strategy: str = "greedy",
        record_iterations: bool = True,
        decision: Optional[RescaleDecision] = None,
        ft_store=None,
        disk_checkpoint_every: Optional[int] = None,
    ):
        if total_steps < 1:
            raise ValueError("total_steps must be positive")
        if sync_every < 1:
            raise ValueError("sync_every must be positive")
        if disk_checkpoint_every is not None and ft_store is None:
            raise ValueError("disk_checkpoint_every requires an ft_store")
        self.name = name
        self.total_steps = int(total_steps)
        self.sync_every = int(sync_every)
        self.lb_strategy = lb_strategy
        self.record_iterations = record_iterations
        self.decision = decision or RescaleDecision()
        #: Optional fault tolerance (§3.2.2): a shared-filesystem
        #: checkpoint store and the period (in iterations) between disk
        #: checkpoints.  On startup, an existing checkpoint is restored
        #: (the '+restart' command-line behaviour).
        self.ft_store = ft_store
        self.disk_checkpoint_every = disk_checkpoint_every
        self.restored_from_step: Optional[int] = None
        self._steps = 0
        self.iteration_log: List[Tuple[float, int]] = []
        self.rescale_reports: List[RescaleReport] = []
        self._pending: Optional[Tuple[int, Optional[Sequence[HostBinding]], CcsRequest]] = None
        self._rts: Optional[CharmRuntime] = None
        self._finished = False
        # The hop in flight: its first step, the sync-point times it
        # spans, the index of the sync point it ends at, and the timer
        # that wakes the driver there.
        self._hop_start = 0
        self._hop_times: Optional[Sequence[float]] = None
        self._hop_end = 0
        self._hop_timer = None
        self._hop_wake = None

    # ------------------------------------------------------------------
    # Operator integration
    # ------------------------------------------------------------------

    def attach_ccs(self, server: CcsServer) -> None:
        """Register the rescale control endpoint on the app's CCS server."""
        server.register("rescale", self._on_rescale_request)
        server.register("status", self._on_status_request)

    def _on_rescale_request(self, request: CcsRequest) -> None:
        payload: Dict[str, Any] = request.payload or {}
        target = payload.get("target")
        if not isinstance(target, int) or target < 1:
            request.reject(f"invalid rescale target {target!r}")
            return
        if self._finished:
            request.reject("application finished before the rescale")
            return
        if self._pending is not None:
            request.reject("a rescale is already pending")
            return
        if not self.decision.should_accept(self, target):
            request.reject("application declined the rescale")
            return
        self._pending = (target, payload.get("hosts"), request)
        self._cut_hop()

    def _on_status_request(self, request: CcsRequest) -> None:
        request.reply(
            {
                "name": self.name,
                "completed_steps": self.completed_steps,
                "total_steps": self.total_steps,
                "num_pes": self._rts.num_pes if self._rts else 0,
            }
        )

    @property
    def completed_steps(self) -> int:
        """Iterations completed by now (during a hop: every sync point
        at or before the current virtual time)."""
        if self._hop_times is None:
            return self._steps
        return self._hop_steps(self._hop_reached())

    @completed_steps.setter
    def completed_steps(self, value: int) -> None:
        self._steps = value

    @property
    def progress(self) -> float:
        """Fraction of iterations completed (0..1)."""
        return self.completed_steps / self.total_steps

    @property
    def rescale_pending(self) -> bool:
        return self._pending is not None

    # ------------------------------------------------------------------
    # Subclass API
    # ------------------------------------------------------------------

    def setup(self, rts: CharmRuntime) -> None:
        """Create chare arrays.  Called once at startup and never again —
        chares survive rescales through checkpoint/restore."""
        raise NotImplementedError

    def step(self, rts: CharmRuntime, index: int):
        """Generator advancing one iteration (real-compute apps)."""
        raise NotImplementedError
        yield  # pragma: no cover - marks this as a generator

    def run_block(self, rts: CharmRuntime, start_step: int, num_steps: int):
        """Generator advancing ``num_steps`` iterations between sync points.

        The default delegates to :meth:`step` per iteration.
        """
        for i in range(num_steps):
            yield from self.step(rts, start_step + i)

    #: ``block_seconds(rts, num_steps) -> seconds`` for apps whose block
    #: time depends only on the PE count.  Declaring it replaces
    #: :meth:`run_block` with the hop; ``None`` keeps the per-block loop.
    block_seconds: Optional[Callable[[CharmRuntime, int], float]] = None

    def finalize(self, rts: CharmRuntime) -> None:
        """Hook run after the last iteration (reductions, verification)."""

    # ------------------------------------------------------------------
    # Main driver
    # ------------------------------------------------------------------

    def main(self, rts: CharmRuntime):
        """The launcher's driver generator: run to completion.

        Returns the application object itself (handy for runners).
        """
        self._rts = rts
        self.setup(rts)
        yield rts.wait_quiescence()
        yield from self._maybe_restore_from_disk(rts)
        self._record(rts)
        advance = self._run_next_block if self.block_seconds is None else self._hop
        while self.completed_steps < self.total_steps:
            yield from advance(rts)
            yield rts.wait_quiescence()
            self._record(rts)
            if self._pending is not None and self.completed_steps < self.total_steps:
                yield from self._apply_pending_rescale(rts)
                self._record(rts)
            yield from self._maybe_disk_checkpoint(rts)
        self.finalize(rts)
        yield rts.wait_quiescence()
        self._finished = True
        # A rescale arriving in the final block is declined: the job is done.
        if self._pending is not None:
            _, _, request = self._pending
            self._pending = None
            request.reject("application finished before the rescale")
        return self

    def _run_next_block(self, rts: CharmRuntime):
        block = min(self.sync_every, self.total_steps - self._steps)
        yield from self.run_block(rts, self._steps, block)
        self._steps += block

    # ------------------------------------------------------------------
    # The hop (apps declaring block_seconds)
    # ------------------------------------------------------------------

    def _hop(self, rts: CharmRuntime):
        """Advance to the next sync point where something can happen.

        Sync-point times accumulate exactly as per-block ``yield dt``
        sleeps would (``t_k = t_{k-1} + dt_k``, skipping ``dt <= 0``).  The
        hop ends at the last block, the next disk-checkpoint sync point,
        or, with a rescale already pending, the first sync point;
        :meth:`_cut_hop` pulls the end in when a request arrives mid-hop.
        The full blocks' times are one ``accumulate`` over ``repeat``: the
        same left-to-right float sums, added in C.
        """
        engine = rts.engine
        start = self._steps
        sync = self.sync_every
        full = self.block_seconds(rts, sync)
        every = self.disk_checkpoint_every
        full_blocks, last = divmod(self.total_steps - start, sync)
        # The hop ends after block ``stop``: the first one with a rescale
        # pending, else the next disk-checkpoint sync point, else the last.
        stop = full_blocks + 1
        if self._pending is not None:
            stop = 1
        elif every is not None:
            stop = min(stop, _blocks_to_multiple(start, sync, every) or stop)
        n = min(stop, full_blocks)
        t = engine.now
        if full > 0:
            times = array("d", islice(accumulate(repeat(full, n), initial=t), 1, None))
            if n:
                t = times[-1]
        else:
            times = array("d", repeat(t, n))
        if last and stop > full_blocks:
            dt = self.block_seconds(rts, last)
            if dt > 0:
                t += dt
            times.append(t)
        self._hop_start = start
        self._hop_times = times
        self._hop_end = len(times) - 1
        if t > engine.now:
            self._hop_wake = wake = engine.event()
            self._hop_timer = engine.schedule_at(t, wake.succeed)
            try:
                yield wake
            except ProcessKilled:
                # Pod death: progress stops at the sync points reached.
                self._hop_timer.cancel()
                reached = self._hop_reached()
                self._end_hop(reached, reached)
                raise
        # The driver records the final sync point itself.
        self._end_hop(self._hop_end + 1, self._hop_end)

    def _cut_hop(self) -> None:
        """End the hop in flight at the first sync point at or after now."""
        if self._hop_times is None or self._hop_timer.cancelled:
            return
        engine = self._rts.engine
        k = bisect_left(self._hop_times, engine.now)
        if k < self._hop_end:
            self._hop_end = k
            self._hop_timer = engine.reschedule_at(
                self._hop_timer, self._hop_times[k], self._hop_wake.succeed
            )

    def _hop_reached(self) -> int:
        """Sync points of the hop at or before now."""
        reached = bisect_right(self._hop_times, self._rts.engine.now)
        return min(reached, self._hop_end + 1)

    def _hop_steps(self, reached: int) -> int:
        """Completed iterations after ``reached`` sync points of the hop."""
        return min(self._hop_start + reached * self.sync_every, self.total_steps)

    def _end_hop(self, reached: int, recorded: int) -> None:
        """Settle the hop at ``reached`` sync points, logging the first
        ``recorded`` of them as the per-block loop would have."""
        times = self._hop_times
        self._hop_times = None
        self._hop_timer = self._hop_wake = None
        if self.record_iterations:
            self.iteration_log.extend(
                (times[i], self._hop_steps(i + 1)) for i in range(recorded)
            )
        self._steps = self._hop_steps(reached)

    def _apply_pending_rescale(self, rts: CharmRuntime):
        target, hosts, request = self._pending
        self._pending = None
        try:
            report = yield from perform_rescale(
                rts, target, hosts=hosts, lb_strategy=self.lb_strategy
            )
        except (RescaleError, CheckpointError) as err:
            # The rescale could not proceed (e.g. the checkpoint exceeds a
            # pod's /dev/shm).  The application keeps running at its current
            # size; the operator reconciles the spec back.
            request.reject(str(err))
            return
        self.rescale_reports.append(report)
        self.on_rescaled(rts, report)
        request.reply({"replicas": rts.num_pes, "stages": report.row()})

    def on_rescaled(self, rts: CharmRuntime, report: RescaleReport) -> None:
        """Hook after a completed rescale (e.g. re-derive neighbor maps)."""

    # ------------------------------------------------------------------
    # Fault tolerance (§3.2.2)
    # ------------------------------------------------------------------

    def _maybe_restore_from_disk(self, rts: CharmRuntime):
        if self.ft_store is None or not self.ft_store.has(self.name):
            return
        checkpoint = self.ft_store.read(self.name)
        self.ft_store.restore_into(rts, checkpoint)
        self.completed_steps = min(checkpoint.completed_steps, self.total_steps)
        self.restored_from_step = checkpoint.completed_steps
        yield checkpoint.io_seconds

    def _maybe_disk_checkpoint(self, rts: CharmRuntime):
        if (
            self.disk_checkpoint_every is None
            or self.completed_steps >= self.total_steps
            or self.completed_steps % self.disk_checkpoint_every != 0
        ):
            return
        checkpoint = self.ft_store.write(rts, self.name, self.completed_steps)
        yield checkpoint.io_seconds

    def _record(self, rts: CharmRuntime) -> None:
        if self.record_iterations:
            self.iteration_log.append((rts.engine.now, self.completed_steps))

    # ------------------------------------------------------------------

    def timeline(self) -> List[Tuple[float, int]]:
        """(virtual time, completed iterations) samples — Figure 6b data."""
        return list(self.iteration_log)

    def block_durations(self) -> List[Tuple[int, float]]:
        """(iteration, seconds for the preceding block) — Figure 6a data."""
        out = []
        for (t0, _s0), (t1, s1) in zip(self.iteration_log, self.iteration_log[1:]):
            if s1 > _s0:  # skip rescale-only records
                out.append((s1, t1 - t0))
        return out
