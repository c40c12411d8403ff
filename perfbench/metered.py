"""The measured run's probe: a chunked engine and a timed policy engine.

:class:`MeteredEngine` runs the program's own event loop
(:meth:`repro.sim.Engine.run`) in virtual-time chunks sized to take
about :data:`~measure.TARGET_SEGMENT_S` of wall time each, and closes a
meter segment — running a reference slice — between chunks.  Chunking
only moves the ``until`` horizon, so no event is added, dropped or
reordered.  The timed policy engine adds one ``perf_counter`` pair per
``on_submit``/``on_complete`` call: the only instrumentation of the
measured run.
"""

from __future__ import annotations

from time import perf_counter

from measure import TARGET_SEGMENT_S, Meter
from repro.scheduling import ElasticPolicyEngine
from repro.sim import Engine
from workloads import Probe


class MeteredEngine(Engine):
    def __init__(self, meter: Meter, probe: "MeteredProbe"):
        super().__init__()
        self._meter = meter
        self._probe = probe

    def run(self, until=None, max_events=None):
        probe = self._probe
        while True:
            horizon = self.now + probe.chunk
            if until is not None and horizon > until:
                horizon = until
            super().run(until=horizon, max_events=max_events)
            seg = self._meter.tick()
            # Steer the next chunk toward the target segment length.
            probe.chunk *= min(2.0, max(0.5, TARGET_SEGMENT_S / max(seg, 1e-6)))
            if self.peek() is None or (until is not None and self.now >= until):
                return self.now


def timed_policy_engine(meter: Meter) -> type:
    """An :class:`ElasticPolicyEngine` that records each call's latency."""
    record_submit = meter.samples["submit"].append
    record_complete = meter.samples["complete"].append
    on_submit = ElasticPolicyEngine.on_submit
    on_complete = ElasticPolicyEngine.on_complete

    class TimedPolicyEngine(ElasticPolicyEngine):
        def on_submit(self, request, now):
            begin = perf_counter()
            decisions = on_submit(self, request, now)
            record_submit(perf_counter() - begin)
            return decisions

        def on_complete(self, name, now):
            begin = perf_counter()
            decisions = on_complete(self, name, now)
            record_complete(perf_counter() - begin)
            return decisions

    return TimedPolicyEngine


class MeteredProbe(Probe):
    def __init__(self, meter: Meter, chunk: float):
        self.meter = meter
        #: Virtual seconds per engine chunk, adapted across units.
        self.chunk = chunk
        self.policy_engine_cls = timed_policy_engine(meter)

    def engine(self) -> Engine:
        return MeteredEngine(self.meter, self)
