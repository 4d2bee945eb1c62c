"""The vectorized pull-based operator interface (§2.1).

Every operator implements ``next(tid)`` as a *process fragment*: a
generator invoked as ``state, batch = yield from op.next(tid)`` inside a
simulated worker thread.  ``tid`` selects thread-partitioned operator
state, exactly like Figure 1 of the paper.

Batches are numpy structured arrays (or None when an operator has nothing
to return with a Depleted state).  The helpers below centralize the batch
arithmetic so operators stay small.
"""

from __future__ import annotations

import enum
from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "OpState",
    "OPS_MORE_DATA",
    "OPS_DEPLETED",
    "Operator",
    "batch_nbytes",
    "concat_batches",
    "pack_columns",
]


class OpState(enum.IntEnum):
    """Return state of a NEXT call."""

    MORE_DATA = 0
    DEPLETED = 1


#: the members as module globals, for per-batch code (linter rule VS110;
#: see :mod:`repro.verbs.constants`).
OPS_MORE_DATA, OPS_DEPLETED = OpState.MORE_DATA, OpState.DEPLETED


def batch_nbytes(batch: Optional[np.ndarray]) -> int:
    """Payload size of a batch in bytes (0 for None)."""
    return 0 if batch is None else batch.nbytes


def concat_batches(batches: List[np.ndarray]) -> Optional[np.ndarray]:
    """Concatenate batches, tolerating the empty list.

    Batches of one record dtype are joined as raw bytes, in one copy
    into a fresh (writable) buffer: numpy would otherwise walk the
    fields to "promote" a dtype to itself on every call.  Mixed dtypes
    and non-contiguous batches still go through that promotion.
    """
    if not batches:
        return None
    if len(batches) == 1:
        return batches[0]
    dtype = batches[0].dtype
    if dtype.names is not None and not dtype.hasobject and all(
            b.dtype == dtype and b.ndim == 1 and b.flags.c_contiguous
            for b in batches):
        return np.frombuffer(bytearray().join(batches), dtype)
    return np.concatenate(batches)


def pack_columns(columns: Sequence[Tuple[str, np.ndarray]]) -> np.ndarray:
    """One packed record array holding equal-length ``(name, values)``
    columns in the given order; a repeated name is a ``ValueError``.

    Every batch an operator widens (a join's output, a derived column,
    an aggregate's result) is built here, so record sizes — and with
    them the bytes a later shuffle charges for — never carry padding.
    """
    dtype = np.dtype([(name, values.dtype) for name, values in columns])
    out = np.empty(len(columns[0][1]), dtype=dtype)
    for name, values in columns:
        out[name] = values
    return out


class Operator:
    """Base class for all operators.

    Subclasses override :meth:`next`.  The base class stores the cluster
    node the operator runs on (for CPU cost charging) and the child
    operator, forming the usual operator tree.
    """

    def __init__(self, node, child: Optional["Operator"] = None):
        #: the fabric Node this operator executes on.
        self.node = node
        self.sim = node.sim
        self.child = child

    def next(self, tid: int):
        """Process fragment returning ``(OpState, batch)``.

        A Depleted return means this thread will produce nothing further;
        the batch accompanying it may still hold trailing tuples.
        """
        raise NotImplementedError
        yield  # pragma: no cover - marks this as a generator signature

    def column(self, batch: np.ndarray, name: str, role: str) -> np.ndarray:
        """``batch[name]``, or a ``ValueError`` saying which operator asked
        for which column and what the batch has instead."""
        try:
            return batch[name]
        except (ValueError, IndexError):  # numpy: "no field of name ..."
            raise ValueError(
                f"{type(self).__name__}: {role} column {name!r} is not in "
                f"the batch (columns: {list(batch.dtype.names or ())})"
            ) from None

    def cpu(self, ns: float) -> int:
        """CPU time to charge the calling worker thread (``yield`` it)."""
        return self.node.config.cpu(ns)

    def per_tuple_cost(self, rows: int, nbytes: int = 0,
                       ns_per_tuple: float = 0.0,
                       ns_per_byte: float = 0.0) -> int:
        """A vectorized per-batch cost as one CPU sleep (``yield`` it)."""
        return self.node.config.cpu(rows * ns_per_tuple
                                    + nbytes * ns_per_byte)
