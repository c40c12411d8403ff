"""The running list at a large running count.

``ElasticPolicyEngine.running`` is a plain list kept in ``sort_key``
order: a start builds the job's key once and inserts it by a bisect on
the cached key, and a completion finds it by the same bisect.  At 8,192
slots and rigid one-replica jobs with a launcher slot each, 4,096 jobs
run at once, far more than any benchmark run holds.
"""

import operator
from random import Random

from repro.scheduling import ElasticPolicyEngine, JobRequest, PolicyConfig
from repro.scheduling import elastic

SLOTS = 8_192


def test_running_order_holds_at_4k_running_jobs(monkeypatch):
    keyed = 0
    priority_order_key = elastic.priority_order_key

    def counted(job):
        nonlocal keyed
        keyed += 1
        return priority_order_key(job)

    monkeypatch.setattr(elastic, "priority_order_key", counted)
    engine = ElasticPolicyEngine(SLOTS, PolicyConfig(launcher_slots=1))
    engine.keep_decision_log = False
    pick = Random(36)
    n_jobs = SLOTS // 2

    def check(n_running):
        keys = [job.sort_key for job in engine.running]
        assert len(keys) == n_running
        assert all(map(operator.lt, keys, keys[1:])), "running order broken"
        assert engine.free_slots == SLOTS - 2 * n_running

    for i in range(n_jobs):
        request = JobRequest(name=f"j{i}", min_replicas=1, max_replicas=1,
                             priority=pick.randint(1, 9))
        engine.on_submit(request, float(i))
        check(i + 1)
        assert keyed == i + 1, "a start priced its key more than once"
    assert not engine.queue
    names = [f"j{i}" for i in range(n_jobs)]
    pick.shuffle(names)
    for done, name in enumerate(names, 1):
        engine.on_complete(name, float(n_jobs + done))
        check(n_jobs - done)
    assert keyed == n_jobs, "a completion priced a key"
