"""Hash group-by aggregation.

Each worker thread accumulates thread-local partial aggregates while
draining its child; a barrier then lets thread 0 merge the partials and
emit the final groups.  Supported aggregate functions: count, sum.

On the host a thread's partial is a set of columns (distinct keys, one
running total per aggregate) and each batch is folded into it by sorting
the keys and one ``bincount`` per aggregate: whole-column numpy passes,
no per-row Python.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.operator import OPS_DEPLETED, Operator, pack_columns
from repro.sim import Barrier

__all__ = ["HashAggregateOperator"]

#: per-tuple group-lookup + accumulate cost.
AGG_NS_PER_TUPLE = 9.0


#: key columns and value columns, all of one length.
_Columns = Tuple[List[np.ndarray], List[np.ndarray]]


def _fold(parts: Sequence[_Columns]) -> _Columns:
    """Sum the value columns of ``parts``, laid end to end, per distinct key.

    Keys come back in sorted order.  Every total adds its rows in the
    order given (``bincount`` is one sequential pass), so folding a
    running partial in ahead of a new batch rounds exactly as adding the
    batch's rows to it one at a time would.
    """
    keys = [np.concatenate(cols) for cols in zip(*(k for k, _ in parts))]
    values = [np.concatenate(cols) for cols in zip(*(v for _, v in parts))]
    order = np.lexsort(keys[::-1]) if keys else np.arange(len(values[0]))
    keys = [k[order] for k in keys]
    # Rows that open a new key in sorted order; numbering them numbers
    # the groups, and undoing the sort gives every row its group.
    opens = np.ones(len(order), dtype=bool)
    opens[1:] = np.logical_or.reduce([k[1:] != k[:-1] for k in keys])
    group_of = np.empty(len(order), dtype=np.intp)
    group_of[order] = np.cumsum(opens) - 1
    return ([k[opens] for k in keys],
            [np.bincount(group_of, weights=v) for v in values])


class HashAggregateOperator(Operator):
    """``GROUP BY group_cols`` with count/sum aggregates.

    ``aggregates`` is a list of ``(func, column, output_name)`` where
    ``func`` is "count" or "sum" ("count" ignores the column).  Thread 0
    returns the merged result as one batch, sorted by group key, with
    ``int64`` integer group columns and ``float64`` for everything else;
    other threads return Depleted with no data.
    """

    def __init__(self, node, child: Operator, group_cols: Sequence[str],
                 aggregates: Sequence[Tuple[str, Optional[str], str]],
                 num_threads: int):
        super().__init__(node, child)
        for func, _col, _name in aggregates:
            if func not in ("count", "sum"):
                raise ValueError(f"unsupported aggregate function: {func}")
        self.group_cols = list(group_cols)
        self.aggregates = list(aggregates)
        #: per thread: the groups seen so far, None before the first batch.
        self._partials: List[Optional[_Columns]] = [None] * num_threads
        self._barrier = Barrier(node.sim, num_threads)
        self._done = [False] * num_threads

    def next(self, tid: int):
        if self._done[tid]:
            return (OPS_DEPLETED, None)
            yield  # pragma: no cover
        while True:
            state, batch = yield from self.child.next(tid)
            if batch is not None and len(batch):
                yield self.per_tuple_cost(len(batch),
                                          ns_per_tuple=AGG_NS_PER_TUPLE)
                self._accumulate(tid, batch)
            if state == OPS_DEPLETED:
                break
        yield self._barrier.arrive()
        self._done[tid] = True
        if tid != 0:
            return (OPS_DEPLETED, None)
        return (OPS_DEPLETED, self._merge())

    def _accumulate(self, tid: int, batch: np.ndarray) -> None:
        keys = []
        for name in self.group_cols:
            column = self.column(batch, name, "group")
            wide = (np.float64 if np.issubdtype(column.dtype, np.floating)
                    else np.int64)
            keys.append(column.astype(wide, copy=False))
        values = [
            np.ones(len(batch)) if func == "count"
            else self.column(batch, col, "sum").astype(np.float64, copy=False)
            for func, col, _name in self.aggregates
        ]
        seen = self._partials[tid]
        self._partials[tid] = _fold(
            [(keys, values)] if seen is None else [seen, (keys, values)])

    def _merge(self) -> Optional[np.ndarray]:
        partials = [p for p in self._partials if p is not None]
        if not partials:
            return None
        keys, totals = _fold(partials)
        return pack_columns(
            list(zip(self.group_cols, keys))
            + [(name, total) for (_f, _c, name), total
               in zip(self.aggregates, totals)])
