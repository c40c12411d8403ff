"""Oracle for the block hop: the per-block driver loop it replaced.

:class:`PerBlockModeledApp` runs a :class:`~repro.apps.modeled.ModeledApp`
the way the driver did before the hop: one ``yield dt`` sleep, one
quiescence wait and one pending-rescale check per sync block.  ``main``
and ``run_block`` are copied verbatim from that driver, with one addition
at the end of ``main``: the app marks itself finished, so both drivers
answer a rescale request that arrives after the run the same way.

``test_block_hop.py`` diffs the shipped hop against it.  Not a test
module: no test here is collected.
"""

from repro.apps.modeled import ModeledApp
from repro.charm import CharmRuntime


class PerBlockModeledApp(ModeledApp):
    """A modeled app driven one sync block at a time."""

    def run_block(self, rts: CharmRuntime, start_step: int, num_steps: int):
        dt = self.config.step_time(rts.num_pes) * num_steps
        if dt > 0:
            yield dt

    def main(self, rts: CharmRuntime):
        self._rts = rts
        self.setup(rts)
        yield rts.wait_quiescence()
        yield from self._maybe_restore_from_disk(rts)
        self._record(rts)
        while self.completed_steps < self.total_steps:
            block = min(self.sync_every, self.total_steps - self.completed_steps)
            yield from self.run_block(rts, self.completed_steps, block)
            self.completed_steps += block
            yield rts.wait_quiescence()
            self._record(rts)
            if self._pending is not None and self.completed_steps < self.total_steps:
                yield from self._apply_pending_rescale(rts)
                self._record(rts)
            yield from self._maybe_disk_checkpoint(rts)
        self.finalize(rts)
        yield rts.wait_quiescence()
        # A rescale arriving in the final block is declined: the job is done.
        if self._pending is not None:
            _, _, request = self._pending
            self._pending = None
            request.reject("application finished before the rescale")
        self._finished = True
        return self
