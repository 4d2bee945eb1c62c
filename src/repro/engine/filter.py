"""Selection (filter) operator."""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.engine.operator import OPS_DEPLETED, Operator

__all__ = ["FilterOperator"]

#: per-tuple predicate evaluation cost.
FILTER_NS_PER_TUPLE = 0.8


class FilterOperator(Operator):
    """Keeps tuples for which ``predicate(batch)`` is True.

    ``predicate`` is vectorized: it receives a batch and returns a boolean
    mask of the same length.
    """

    def __init__(self, node, child: Operator,
                 predicate: Callable[[np.ndarray], np.ndarray]):
        super().__init__(node, child)
        self.predicate = predicate

    def next(self, tid: int):
        while True:
            state, batch = yield from self.child.next(tid)
            if batch is None or not len(batch):
                if state == OPS_DEPLETED:
                    return (OPS_DEPLETED, None)
                continue
            yield self.per_tuple_cost(len(batch),
                                      ns_per_tuple=FILTER_NS_PER_TUPLE)
            mask = self.predicate(batch)
            kept = batch[mask]
            if len(kept) or state == OPS_DEPLETED:
                return (state, kept if len(kept) else None)
