"""Sort / top-N operators.

``ORDER BY key [DESC] LIMIT n``, the clause TPC-H Q3 and Q10 end with.
:class:`TopNOperator` drains its child completely (sorting is a pipeline
breaker), keeps each thread's ``limit`` best rows, merges them at a
barrier, and emits the globally best rows from thread 0.  Rows with
equal keys rank in arrival order: thread by thread, batch by batch.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.engine.operator import Operator, OpState, concat_batches
from repro.sim import Barrier

__all__ = ["TopNOperator"]

#: per-tuple heap maintenance cost.
TOPN_NS_PER_TUPLE = 6.0


class TopNOperator(Operator):
    """``ORDER BY key [DESC] LIMIT n`` over the child's output."""

    def __init__(self, node, child: Operator, key_column: str, limit: int,
                 num_threads: int, descending: bool = True):
        super().__init__(node, child)
        if limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
        self.key_column = key_column
        self.limit = limit
        self.descending = descending
        self.num_threads = num_threads
        #: per thread: its best rows so far, best first.
        self._partials: List[Optional[np.ndarray]] = [None] * num_threads
        self._barrier = Barrier(node.sim, num_threads)
        self._done = [False] * num_threads

    def _best(self, batches: List[np.ndarray]) -> Optional[np.ndarray]:
        """The ``limit`` best rows of ``batches`` laid end to end, best
        first; the stable sort leaves equal keys in the order given."""
        rows = concat_batches(batches)
        if rows is None:
            return None
        keys = self.column(rows, self.key_column, "key").astype(np.float64)
        order = np.argsort(-keys if self.descending else keys, kind="stable")
        return rows[order[:self.limit]]

    def next(self, tid: int):
        if self._done[tid]:
            return (OpState.DEPLETED, None)
            yield  # pragma: no cover
        while True:
            state, batch = yield from self.child.next(tid)
            if batch is not None and len(batch):
                yield self.per_tuple_cost(len(batch),
                                          ns_per_tuple=TOPN_NS_PER_TUPLE)
                kept = self._partials[tid]
                self._partials[tid] = self._best(
                    [batch] if kept is None else [kept, batch])
            if state == OpState.DEPLETED:
                break
        yield self._barrier.arrive()
        self._done[tid] = True
        if tid != 0:
            return (OpState.DEPLETED, None)
        return (OpState.DEPLETED,
                self._best([p for p in self._partials if p is not None]))
