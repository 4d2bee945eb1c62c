"""Table scan operators (in-memory, vectorized)."""

from __future__ import annotations


import numpy as np

from repro.engine.operator import OPS_DEPLETED, OPS_MORE_DATA, Operator

__all__ = ["ScanOperator", "RepeatedSourceOperator"]

#: per-tuple cost of streaming from an in-memory columnar table.
SCAN_NS_PER_TUPLE = 0.4


class ScanOperator(Operator):
    """Scans a node-local table partition (a numpy structured array).

    The partition is statically divided among worker threads; each NEXT
    returns up to ``batch_rows`` tuples (vectorized pull, §2.1).
    """

    def __init__(self, node, table: np.ndarray, num_threads: int,
                 batch_rows: int = 64 * 1024):
        super().__init__(node)
        if batch_rows < 1:
            raise ValueError(f"batch_rows must be >= 1, got {batch_rows}")
        self.table = table
        self.batch_rows = batch_rows
        bounds = np.linspace(0, len(table), num_threads + 1).astype(np.int64)
        self._cursor = list(bounds[:-1])
        self._end = list(bounds[1:])

    def next(self, tid: int):
        lo = self._cursor[tid]
        hi = min(lo + self.batch_rows, self._end[tid])
        if lo >= hi:
            return (OPS_DEPLETED, None)
            yield  # pragma: no cover
        batch = self.table[lo:hi]
        self._cursor[tid] = hi
        yield self.per_tuple_cost(len(batch), ns_per_tuple=SCAN_NS_PER_TUPLE)
        state = OPS_DEPLETED if hi >= self._end[tid] else OPS_MORE_DATA
        return (state, batch)


class RepeatedSourceOperator(Operator):
    """Streams one template batch over and over up to a byte budget.

    The synthetic receive-throughput workloads (§5.1) scan and transmit
    the R table ten times; re-serving the same in-memory batch keeps the
    host-side footprint flat while the simulation still charges full scan
    and hash costs for every pass.
    """

    def __init__(self, node, template: np.ndarray, num_threads: int,
                 total_bytes_per_thread: int):
        super().__init__(node)
        if not len(template):
            raise ValueError("template batch must not be empty")
        self.template = template
        self._remaining = [total_bytes_per_thread] * num_threads

    def next(self, tid: int):
        remaining = self._remaining[tid]
        if remaining <= 0:
            return (OPS_DEPLETED, None)
            yield  # pragma: no cover
        batch = self.template
        if batch.nbytes > remaining:
            rows = max(1, remaining // batch.dtype.itemsize)
            batch = batch[:rows]
        self._remaining[tid] = remaining - batch.nbytes
        yield self.per_tuple_cost(len(batch), ns_per_tuple=SCAN_NS_PER_TUPLE)
        state = (OPS_DEPLETED if self._remaining[tid] <= 0
                 else OPS_MORE_DATA)
        return (state, batch)
