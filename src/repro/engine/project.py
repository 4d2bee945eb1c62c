"""Projection operator."""

from __future__ import annotations

from typing import Sequence

from repro.engine.operator import Operator, pack_columns

__all__ = ["ProjectOperator"]

#: per-tuple cost of materializing the projected columns.
PROJECT_NS_PER_TUPLE = 0.5


class ProjectOperator(Operator):
    """Keeps a subset of columns of a structured-array batch."""

    def __init__(self, node, child: Operator, columns: Sequence[str]):
        super().__init__(node, child)
        if not columns:
            raise ValueError("projection needs at least one column")
        self.columns = list(columns)

    def next(self, tid: int):
        state, batch = yield from self.child.next(tid)
        if batch is None or not len(batch):
            return (state, None)
        yield self.per_tuple_cost(len(batch),
                                  ns_per_tuple=PROJECT_NS_PER_TUPLE)
        # The selected fields packed in selection order: the bytes and
        # dtype numpy's ``repack_fields`` gives.
        return (state, pack_columns([
            (name, self.column(batch, name, "projected"))
            for name in self.columns]))
