"""Hash group-by aggregation.

Each worker thread accumulates thread-local partial aggregates while
draining its child; a barrier then lets thread 0 merge the partials and
emit the final groups.  Supported aggregate functions: count, sum.

On the host a thread keeps each batch's key and value columns as they
arrive and folds them once, just before its barrier: one sort of the
keys and one ``bincount`` per aggregate over all of the thread's rows,
whole-column numpy passes with no per-row Python.  The partial is then
a set of columns (distinct keys, one total per aggregate).
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

    Keys come back in sorted order, ``int64`` if integer and ``float64``
    otherwise: they are widened once they are distinct, so a key column
    that widens exactly sorts in its own width (a radix sort at 8 and 16
    bits; see :meth:`HashAggregateOperator._columns_of`).  Every
    total adds its rows in the order given (``bincount`` is one
    sequential pass), so folding a thread's batches in arrival order
    rounds exactly as adding their rows one at a time would, and folding
    the threads' partials in thread order as adding each partial's
    totals would.
    """
    keys = [np.concatenate(cols) for cols in zip(*(k for k, _ in parts))]
    values = [np.concatenate(cols) for cols in zip(*(v for _, v in parts))]
    order = np.lexsort(keys[::-1]) if keys else np.arange(len(values[0]))
    keys = [k.take(order) for k in keys]
    # Rows that open a new key in sorted order; numbering them numbers
    # the groups, and undoing the sort gives every row its group.
    opens = np.ones(len(order), dtype=bool)
    opens[1:] = np.logical_or.reduce([k[1:] != k[:-1] for k in keys])
    group_of = np.empty(len(order), dtype=np.intp)
    group_of[order] = np.cumsum(opens) - 1
    return ([k.compress(opens).astype(_wide(k.dtype), copy=False)
             for k in keys],
            [np.bincount(group_of, weights=v) for v in values])


def _wide(dtype: np.dtype) -> type:
    """The dtype a group column comes out in."""
    return np.float64 if np.issubdtype(dtype, np.floating) else np.int64


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
        #: per thread: the key and value columns of each batch, in
        #: arrival order, until the thread folds them.  They may be views
        #: of the batch, which holds because no operator writes a batch
        #: it has returned (the join's build side keeps batches alike).
        self._batches: List[List[_Columns]] = [[] for _ in range(num_threads)]
        #: per thread: its groups once folded, None if it saw no rows.
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
                self._batches[tid].append(self._columns_of(batch))
            if state == OPS_DEPLETED:
                break
        batches = self._batches[tid]
        if batches:
            self._partials[tid] = _fold(batches)
            batches.clear()
        yield self._barrier.arrive()
        self._done[tid] = True
        if tid != 0:
            return (OPS_DEPLETED, None)
        return (OPS_DEPLETED, self._merge())

    def _columns_of(self, batch: np.ndarray) -> _Columns:
        keys = []
        for name in self.group_cols:
            column = self.column(batch, name, "group")
            # A column that widens exactly sorts and groups alike in its
            # own width; one that does not (uint64, a long double) is
            # widened first, so it groups as its output column holds it.
            wide = _wide(column.dtype)
            keys.append(column if np.can_cast(column.dtype, wide)
                        else column.astype(wide))
        values = [
            np.ones(len(batch)) if func == "count"
            else self.column(batch, col, "sum").astype(np.float64, copy=False)
            for func, col, _name in self.aggregates
        ]
        return keys, values

    def _merge(self) -> Optional[np.ndarray]:
        partials = [p for p in self._partials if p is not None]
        if not partials:
            return None
        keys, totals = _fold(partials)
        return pack_columns(
            list(zip(self.group_cols, keys))
            + [(name, total) for (_f, _c, name), total
               in zip(self.aggregates, totals)])
