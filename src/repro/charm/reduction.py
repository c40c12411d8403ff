"""Reductions over chare arrays.

Chares call :meth:`Chare.contribute`; once every live element of the array
has contributed to the current reduction round, the reduced value is
published (with a log-tree virtual-time cost) to the array's reduction
queue, where the driver/mainchare awaits it.

Rounds are sequenced per array: elements may run ahead and contribute to
round *k+1* while stragglers still owe round *k*, exactly like Charm++'s
reduction sequencing.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List

import numpy as np

from ..errors import CharmError
from ..sim import Queue

__all__ = ["ReductionManager", "REDUCERS"]


def _sum(values: List[Any]) -> Any:
    total = values[0]
    for v in values[1:]:
        total = total + v
    return total


REDUCERS: Dict[str, Callable[[List[Any]], Any]] = {
    "sum": _sum,
    "max": max,
    "min": min,
    "product": lambda vs: float(np.prod(vs)),
    "logical_and": lambda vs: all(vs),
    "logical_or": lambda vs: any(vs),
}


class _ArrayReductionState:
    def __init__(self, engine, array_id: int):
        self.engine = engine
        self.array_id = array_id
        self.results = Queue(engine, name=f"array{array_id}.reductions")
        self.round = 0
        # round -> {index: value}; op recorded per round for consistency.
        self.pending: Dict[int, Dict[Any, Any]] = {}
        self.ops: Dict[int, str] = {}
        self.contributed_round: Dict[Any, int] = {}


class ReductionManager:
    """Tracks reduction rounds for every chare array in a runtime."""

    def __init__(self, engine, commlayer, tracer=None):
        self.engine = engine
        self.commlayer = commlayer
        self.tracer = tracer
        self._arrays: Dict[int, _ArrayReductionState] = {}

    def register_array(self, array_id: int) -> None:
        if array_id in self._arrays:
            raise CharmError(f"array {array_id} already registered for reductions")
        self._arrays[array_id] = _ArrayReductionState(self.engine, array_id)

    def reset_membership(self, array_id: int) -> None:
        """Forget in-progress rounds (used after restore from checkpoint)."""
        state = self._state(array_id)
        state.pending.clear()
        state.ops.clear()
        state.contributed_round.clear()

    def clear(self) -> None:
        """Forget every array (the runtime closed)."""
        self._arrays.clear()

    # ------------------------------------------------------------------

    def contribute(
        self, array_id: int, index: Any, value: Any, op: str, expected: int, num_pes: int
    ) -> None:
        """Record one element's contribution to its next round."""
        if op not in REDUCERS:
            raise CharmError(f"unknown reducer {op!r}; available: {sorted(REDUCERS)}")
        state = self._state(array_id)
        rnd = state.contributed_round.get(index, state.round - 1) + 1
        state.contributed_round[index] = rnd
        bucket = state.pending.setdefault(rnd, {})
        recorded_op = state.ops.setdefault(rnd, op)
        if recorded_op != op:
            raise CharmError(
                f"mismatched reducers in round {rnd} of array {array_id}: "
                f"{recorded_op!r} vs {op!r}"
            )
        if index in bucket:
            raise CharmError(f"element {index!r} contributed twice to round {rnd}")
        bucket[index] = value
        if rnd == state.round and len(bucket) == expected:
            self._complete_round(state, num_pes)

    def _complete_round(self, state: _ArrayReductionState, num_pes: int) -> None:
        bucket = state.pending.pop(state.round)
        op = state.ops.pop(state.round)
        values = [bucket[idx] for idx in sorted(bucket, key=_index_sort_key)]
        result = REDUCERS[op](values)
        tree_cost = self.commlayer.barrier_time(num_pes)
        state.round += 1
        if self.tracer is not None:
            self.tracer.emit(
                "charm.reduction", f"array {state.array_id} round {state.round - 1}",
                op=op, value=result,
            )
        self.engine.schedule(tree_cost, state.results.put, result)
        # A completed round may unlock the next one if everyone ran ahead.
        expected = len(state.contributed_round) if state.contributed_round else 0
        next_bucket = state.pending.get(state.round)
        if next_bucket is not None and expected and len(next_bucket) == expected:
            self._complete_round(state, num_pes)

    # ------------------------------------------------------------------

    def results_queue(self, array_id: int) -> Queue:
        return self._state(array_id).results

    def _state(self, array_id: int) -> _ArrayReductionState:
        try:
            return self._arrays[array_id]
        except KeyError:
            raise CharmError(f"array {array_id} not registered for reductions") from None


def _index_sort_key(index: Any):
    if isinstance(index, tuple):
        return (1, tuple(index))
    return (0, (index,))
