"""The randomized event stream that drives policy engines in the tests.

One :class:`Stream` feeds one engine: submissions (several at one
``now``), completions, substrate rescale failures, capacity growth,
cooperative and forced capacity shrinks, and rebalances.  Every draw is
taken unconditionally or gated only on state two equivalent engines
share (the running list in priority order, ``total_slots``), so two
engines fed the same seed see the same events, and a divergence shows up
as a log diff.  Not a test module: no test here is collected.
"""

import random

from repro.scheduling import JobRequest

#: Runtime estimates on a coarse grid, so releases tie exactly, plus
#: offsets inside (1e-10) and just outside (3e-9) EASY's 1e-9 tolerance.
EST_GRID = (50.0, 100.0, 150.0, 300.0, 600.0)
EST_OFFSETS = (0.0, 0.0, 0.0, 1e-10, -1e-10, 3e-9)
#: Some jobs name a §4.3.1 size class instead, so their estimates (and
#: EWT and PRB) come from the performance model at each width, and
#: their watts from the class.
SIZE_CLASSES = (None, None, None, None, "small", "medium", "large", "xlarge")


def serialize(decision):
    """A decision as comparable plain data (engines hold distinct jobs)."""
    extra = tuple(
        (field, getattr(decision, field))
        for field in ("replicas", "from_replicas", "to_replicas",
                      "released_replicas")
        if hasattr(decision, field)
    )
    return (type(decision).__name__, decision.job.name, extra)


def by_name(job, new_replicas):
    """A shrink veto keyed on a stream job's name, which two engines fed
    one stream share (``seq`` is process-global, so they disagree on it)."""
    return int(job.name[1:]) % 4 != 1


class Stream:
    """One engine's randomized event stream.

    ``submit_share`` is the chance that an event submits a job while any
    are left; a high share on a large cluster builds the deep backlog in
    which the engine's job lists span many blocks.  Capacity shrinks stop
    at half the starting cluster.
    """

    def __init__(self, engine, seed, prefix="j", n_jobs=70, submit_share=0.6):
        self.engine = engine
        self.rng = random.Random(seed)
        self.prefix = prefix
        self.n_jobs = n_jobs
        self.submit_share = submit_share
        self.slots = engine.total_slots
        self.floor = self.slots // 2
        self.submitted = 0
        self.now = 0.0
        self.log = []
        self.decisions = []

    @property
    def done(self):
        return self.submitted >= self.n_jobs and not self.engine.running

    def record(self, decisions):
        self.decisions.extend(decisions)
        self.log.extend(serialize(d) for d in decisions)

    def step(self, now=None):
        """One event, at ``now`` if given (a clock shared with another
        stream), else after a random gap — zero half the time, so
        several events land on one ``now``."""
        rng, engine = self.rng, self.engine
        gap = rng.expovariate(1.0 / 40.0) if rng.random() < 0.5 else 0.0
        self.now = self.now + gap if now is None else now
        roll = rng.random()
        share = self.submit_share
        rest = (roll - share) / (1.0 - share)  # uniform on [0, 1) past share
        left = self.submitted < self.n_jobs
        if left and (not engine.running or roll < share):
            low = rng.randint(1, 12)
            est = rng.choice(EST_GRID) + rng.choice(EST_OFFSETS)
            size = rng.choice(SIZE_CLASSES)
            request = JobRequest(
                name=f"{self.prefix}{self.submitted}",
                min_replicas=low,
                max_replicas=low + rng.choice((0, 0, 2, 6)),
                priority=rng.randint(1, 4),
                params={"size_class": size} if size else {"est_runtime": est},
            )
            self.submitted += 1
            self.record(engine.on_submit(request, self.now))
        elif rest < 0.6 and engine.running:
            victim = rng.choice([j.name for j in engine.running])
            self.record(engine.on_complete(victim, self.now))
        elif rest < 0.72 and engine.running:
            job = rng.choice(list(engine.running))
            actual = rng.randint(job.min_replicas, job.replicas)
            engine.on_rescale_failed(job.name, actual)
            self.log.append(("RescaleFailed", job.name, actual))
        elif rest < 0.82:
            self.record(engine.grow_capacity(rng.randint(1, 8), self.now))
        elif rest < 0.88:
            self.record(engine.rebalance(self.now))
        elif engine.total_slots > self.floor:
            force = rng.random() < 0.5
            removed, decisions = engine.shrink_capacity(
                rng.randint(1, 8), self.now, force=force
            )
            self.log.append(("ShrinkCapacity", force, removed))
            self.record(decisions)

    def run(self):
        while not self.done:
            self.step()
        return self

    def settle(self):
        """Run the stream, then restore the starting cluster and, a minute
        apart, hand out the free slots and complete every running job,
        until no job is left or a hand-out leaves nobody running."""
        engine = self.run().engine
        while engine.queue or engine.running:
            self.now += 60.0
            if engine.total_slots < self.slots:
                self.record(engine.grow_capacity(
                    self.slots - engine.total_slots, self.now))
            else:
                self.record(engine.rebalance(self.now))
            if not engine.running:
                break
            for job in list(engine.running):
                self.record(engine.on_complete(job.name, self.now))
        return self
