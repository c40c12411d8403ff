"""Process-pool fan-out for trial grids.

The paper's evaluation repeats every configuration over 100 random
workloads; a Figure-7 sweep is 7 gaps x 4 policies x 100 trials = 2800
independent simulations that the seed code ran serially.  This module
provides the pool machinery the sweep layer fans out with: results come
back in submission order, so callers aggregate them exactly as the
serial path does and the two produce identical floats.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, List, Optional, Sequence, TypeVar

from ..errors import SchedulingError

__all__ = ["resolve_workers", "parallel_map"]

T = TypeVar("T")
R = TypeVar("R")

#: Environment override for the default pool size (CI runners vary).
WORKERS_ENV = "REPRO_WORKERS"


def resolve_workers(workers: Optional[int] = None) -> int:
    """Decide the pool size: explicit arg > ``REPRO_WORKERS`` env > serial.

    Parallelism is opt-in (an unannounced pool surprises CI boxes and
    laptops alike); ``0`` — from either source — means "use every core".
    A negative count from either source is an error, not a serial run.
    """
    source = "workers"
    if workers is None:
        env = os.environ.get(WORKERS_ENV)
        if env is None:
            return 1
        source = WORKERS_ENV
        try:
            workers = int(env)
        except ValueError:
            raise SchedulingError(
                f"{WORKERS_ENV} must be an integer, got {env!r}"
            ) from None
    workers = int(workers)
    if workers < 0:
        raise SchedulingError(
            f"{source} must be >= 0 (0 means every core), got {workers}"
        )
    return workers or os.cpu_count() or 1


def parallel_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    workers: Optional[int] = None,
) -> List[R]:
    """``[fn(x) for x in items]`` across a process pool, order-preserving.

    ``fn`` and the items must be picklable (module-level functions and
    plain data).  With one worker (or one item) this degrades to the
    plain list comprehension — no pool, no pickling, same results —
    which is also the fallback if the platform cannot spawn processes
    (e.g. a sandbox without a working semaphore implementation).

    Items are handed out one at a time (``submit``), so with
    heterogeneous per-item costs (sweep cells at different scales, cache
    misses scattered through a grid) the long tail spreads across the
    pool instead of serializing in one pre-assigned chunk; results come
    back in submission order, bit-identical to the serial path.
    """
    items = list(items)
    workers = min(resolve_workers(workers), len(items) or 1)
    if workers <= 1:
        return [fn(item) for item in items]
    try:
        pool = ProcessPoolExecutor(max_workers=workers)
    except OSError:  # pragma: no cover - platform without process support
        return [fn(item) for item in items]
    # Errors raised by fn itself propagate: they are the caller's bug,
    # not a platform quirk, and must not trigger a silent serial re-run.
    with pool:
        futures = [pool.submit(fn, item) for item in items]
        return [future.result() for future in futures]
