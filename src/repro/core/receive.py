"""The RECEIVE operator (§4.3.2, Algorithm 2).

Each worker thread asks its endpoint for received buffers, copies them
into its thread-partitioned output buffer, releases the transmission
buffer back to the endpoint, and returns the output batch to the parent
once full.  The copy out of the transmission buffer is charged in
simulated time through the CPU model, not performed per buffer on the
host: a buffer's payload is the tuple of views SHUFFLE staged, and the
concatenation into the output batch is the one host copy of the shuffle.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.core.transport.runtime import ReceiveEndpoint
from repro.engine.operator import (
    OPS_DEPLETED,
    OPS_MORE_DATA,
    Operator,
    concat_batches,
)

__all__ = ["OUTPUT_BATCH_BYTES", "ReceiveOperator"]

#: RECEIVE emits an output batch once this many bytes have accumulated
#: (the paper uses 32 KiB, the L1 data cache size, in §5.1.6).
OUTPUT_BATCH_BYTES = 32 * 1024


class ReceiveOperator(Operator):
    """Algorithm 2: fetch, copy, release, emit."""

    def __init__(self, node, endpoints: Sequence[ReceiveEndpoint],
                 num_threads: int):
        super().__init__(node, child=None)
        if not endpoints:
            raise ValueError("receive needs at least one endpoint")
        self.endpoints = list(endpoints)
        self.tuples_in = 0

    def _endpoint(self, tid: int) -> ReceiveEndpoint:
        return self.endpoints[tid % len(self.endpoints)]

    def _emit(self, acc: List[np.ndarray]):
        batch = concat_batches(acc)
        if batch is not None:
            self.tuples_in += len(batch)
        return batch

    def next(self, tid: int):
        target = self._endpoint(tid)
        net = self.node.config
        acc: List[np.ndarray] = []
        acc_bytes = 0
        while True:
            state, src, remote, local = yield from target.get_data()
            if local is None:
                # End-of-stream sentinel: every source is depleted.
                return (OPS_DEPLETED, self._emit(acc))
            payload, length = local.payload, local.length
            # Copy out of the registered buffer (Alg 2 l.8) and return it
            # to the endpoint (l.9): a per-byte cost, one CPU charge.
            yield net.cpu(length * net.copy_ns_per_byte)
            if payload:
                acc.extend(payload)
                acc_bytes += length
            yield from target.release(remote, local, src)
            if acc_bytes >= OUTPUT_BATCH_BYTES:
                return (OPS_MORE_DATA, self._emit(acc))
