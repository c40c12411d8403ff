"""Mutants of the scheduler that ``test_spec.py`` must kill.

Each row of :data:`MUTANTS` is ``(file, snippet, replacement)``: a file
of ``src/repro/scheduling``, a snippet that occurs in it exactly once,
and what replaces it.  Running this module checks the table::

    python tests/scheduling/mutants.py

It copies ``src/`` to a temporary directory and runs ``test_spec.py``
against the copy, which must pass.  Then, for each row, a fresh copy
gets that one mutant and ``test_spec.py`` runs with ``-x``; it must
fail.  A snippet that does not match exactly once is an error.  The exit
status is 0 only if every mutant was killed.  Not a test module: no test
here is collected.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

MUTANTS = [
    # -- elastic.py: Figure 2 -------------------------------------------
    ("elastic.py",  # refund the constraint one unit short on every shrink
     "self._used_slots -= old - new_replicas\n"
     "        self.transitions += 1\n"
     "        if self._constraint is not None:\n"
     "            self._constraint.charge(job.request, new_replicas - old)",
     "self._used_slots -= old - new_replicas\n"
     "        self.transitions += 1\n"
     "        if self._constraint is not None:\n"
     "            self._constraint.charge(job.request,"
     " new_replicas - old + 1)"),
    ("elastic.py",  # the real pass may shrink the index-0 job
     "max(0, len(running) - 1)):\n            if slot_target <= 0",
     "len(running)):\n            if slot_target <= 0"),
    ("elastic.py",  # the dry run may count the index-0 job's spare replicas
     "max(0, len(running) - 1)):\n            if now - candidate.last_action",
     "len(running)):\n            if now - candidate.last_action"),
    ("elastic.py",  # the real pass stops at equal priority
     "if candidate.priority > priority:\n                return\n",
     "if candidate.priority >= priority:\n                return\n"),
    ("elastic.py",  # the dry run stops at equal priority
     "if candidate.priority > priority:\n                return False",
     "if candidate.priority >= priority:\n                return False"),
    ("elastic.py",  # an arrival past a one-job queue skips the backfill rule
     "if self._backfill is not None and len(self.queue):",
     "if self._backfill is not None and len(self.queue) > 1:"),
    ("elastic.py",  # preemption may take a victim of equal priority
     "if needed <= 0 or candidate.priority >= job.priority:",
     "if needed <= 0 or candidate.priority > job.priority:"),
    # -- elastic.py: Figure 3 -------------------------------------------
    ("elastic.py",  # a queued start does not pay for its launcher slot
     "num_workers -= add + reserve",
     "num_workers -= add"),
    ("elastic.py",  # literal_completion_budget is ignored
     "num_workers = freed",
     "num_workers = self.free_slots"),
    ("elastic.py",  # a queue block whose cheapest member just fits is skipped
     "if block.min_needed > budget:",
     "if block.min_needed >= budget:"),
    ("elastic.py",  # expansions ignore the constraint
     "if cons is not None:\n                    room = cons.admit("
     "candidate.request)",
     "if False:\n                    room = cons.admit("
     "candidate.request)"),
    ("elastic.py",  # the running side is skipped at finite gaps, not at inf
     "] if gap < math.inf else []",
     "] if gap >= math.inf else []"),
    ("elastic.py",  # a runner inside its rescale gap may expand
     "if job.replicas < job.request.max_replicas\n"
     "            and now - job.last_action >= gap\n",
     "if job.replicas < job.request.max_replicas\n"),
    ("elastic.py",  # a checkpointed job restarts without its ResumeJob
     "self._preempted.discard(job.name)\n"
     "            return ResumeJob(job=job, replicas=replicas)",
     "self._preempted.discard(job.name)\n            return start"),
    # -- elastic.py: the running list -------------------------------------
    ("elastic.py",  # a start appends instead of inserting in key order
     "insort(self.running, job, key=_sort_key)",
     "self.running.append(job)"),
    # -- elastic.py: aging, capacity and substrate feedback --------------
    ("elastic.py",  # a re-keyed waiter loses its submission-order tie-break
     "key = job.sort_key = (-priority, job.submit_time, job.seq)",
     "key = job.sort_key = (-priority, job.submit_time, -job.seq)"),
    ("elastic.py",  # a head passed in flight loses its reservation
     "                queue.add(job)\n            due = ",
     "                if queue.add(job) and len(queue) > 1 and (\n"
     "                        self._backfill_overtaken is not None):\n"
     "                    self._backfill_overtaken(queue[1])\n"
     "            due = "),
    ("elastic.py",  # a forced shrink honours the rescale gap
     'gap = float("-inf") if force else self.config.rescale_gap',
     "gap = self.config.rescale_gap"),
    ("elastic.py",  # a failed rescale is charged backwards
     "self._constraint.charge(job.request, actual - old)",
     "self._constraint.charge(job.request, old - actual)"),
    # -- joblist.py -------------------------------------------------------
    ("joblist.py",  # min_needed stays high when a cheaper job joins
     "if needed < block.min_needed:",
     "if needed < block.min_needed - 1:"),
    ("joblist.py",  # a merged block keeps the left block's minimum
     "if other.min_needed < block.min_needed:",
     "if False:"),
    ("joblist.py",  # a split half keeps a too-high min_needed
     "del block.floors[half:]\n        block.min_needed = min(block.needs)",
     "del block.floors[half:]\n        block.min_needed = max(block.needs)"),
    ("joblist.py",  # the last minimum holder leaves min_needed behind
     "if needed == block.min_needed:\n            block.min_needed = min(",
     "if False:\n            block.min_needed = min("),
    ("joblist.py",  # a removal drops another member's need
     "needed = block.needs.pop(i)",
     "needed = block.needs.pop(i - 1 if i else i)"),
    ("joblist.py",  # the front of any block counts as the queue front
     "return i == 0 and b == 0",
     "return i == 0"),
    ("joblist.py",  # a block keeps its runtime floor when a job joins it
     "block.floors.insert(i, None)\n        block._floor = None\n",
     "block.floors.insert(i, None)\n"),
    ("joblist.py",  # a block's runtime floor is its slowest member's
     "floor = self._floor = min(floors)",
     "floor = self._floor = max(floors)"),
    ("joblist.py",  # removing the minimum holder keeps the cached minimum
     "if block.floors.pop(i) == block._floor:",
     "if block.floors.pop(i) is None:"),
    # -- literature.py ----------------------------------------------------
    ("literature.py",  # Lifka's test lets a candidate take exactly E+1
     "if (need > self._extra and",
     "if (need > self._extra + 1 and"),
    ("literature.py",  # a block whose least need is exactly E is rejected
     "or block.min_needed + launcher <= self._extra):",
     "or block.min_needed + launcher < self._extra):"),
    ("literature.py",  # the shadow time loses its tolerance
     "> self._shadow + 1e-9):",
     "> self._shadow):"),
    ("literature.py",  # releases within the tolerance of S are not spare
     "limit = shadow + 1e-9",
     "limit = shadow"),
    ("literature.py",  # a reserved job takes no slots in the projection
     "out[head.name] = at\n            free -= need",
     "out[head.name] = at"),
    ("literature.py",  # an overtaken head keeps its reservation
     "self.last_head_reservations.pop(head.name, None)",
     "pass"),
    ("literature.py",  # an overdue job releases in the past
     "releases.append((done if done > now else now,",
     "releases.append((done,"),
    ("literature.py",  # EWT ranks by the runtime at the maximum width
     "return -estimate_runtime(request, request.min_replicas)",
     "return -estimate_runtime(request, request.max_replicas)"),
    ("literature.py",  # PRB ranks by the maximum width
     "- math.log2(float(request.min_replicas))",
     "- math.log2(float(request.max_replicas))"),
    # -- power.py ---------------------------------------------------------
    ("power.py",  # weightless draws are refused instead of uncapped
     "return request.max_replicas  # weightless draws are uncapped",
     "return 0"),
    ("power.py",  # less than one replica's headroom admits nothing
     "if head <= 0:\n            return 0",
     "if head <= w:\n            return 0"),
    ("power.py",  # a release charges the budget instead of refunding it
     "self.used += self.weight(request) * delta",
     "self.used += self.weight(request) * abs(delta)"),
    ("power.py",  # the dry run sees the whole budget as headroom
     "def headroom(self) -> float:\n"
     "        return self.budget_watts - self.used",
     "def headroom(self) -> float:\n        return self.budget_watts"),
]

REPO = Path(__file__).resolve().parents[2]
SUITE = REPO / "tests" / "scheduling" / "test_spec.py"


def copy_src(dest: Path) -> Path:
    shutil.copytree(REPO / "src", dest,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def run_suite(src: Path, *flags: str) -> int:
    """Exit status of ``test_spec.py`` against the package in ``src``."""
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         *flags, str(SUITE)],
        cwd=REPO, env={**os.environ, "PYTHONPATH": str(src)},
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    ).returncode


def mutate(src: Path, file: str, snippet: str, replacement: str,
           write: bool = True) -> None:
    path = src / "repro" / "scheduling" / file
    text = path.read_text()
    count = text.count(snippet)
    if count != 1:
        raise SystemExit(f"{file}: snippet matches {count} times, "
                         f"not once:\n{snippet}")
    if write:
        path.write_text(text.replace(snippet, replacement))


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for row in MUTANTS:  # every snippet, before any run
            mutate(REPO / "src", *row, write=False)
        started = time.monotonic()
        if run_suite(copy_src(tmp / "clean")) != 0:
            print("the unmutated copy fails test_spec.py")
            return 1
        print(f"clean copy passes ({time.monotonic() - started:.0f} s)",
              flush=True)
        survivors = 0
        for i, row in enumerate(MUTANTS):
            src = copy_src(tmp / f"mutant{i}")
            mutate(src, *row)
            started = time.monotonic()
            status = run_suite(src, "-x")
            verdict = {0: "SURVIVED", 1: "killed"}.get(status,
                                                       f"error {status}")
            survivors += status != 1
            first = row[1].strip().splitlines()[0]
            print(f"{i:2d} {row[0]:14s} {verdict:9s} "
                  f"{time.monotonic() - started:5.1f} s  {first}", flush=True)
        print(f"{len(MUTANTS) - survivors}/{len(MUTANTS)} mutants killed")
        return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
