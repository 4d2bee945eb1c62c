"""The SHUFFLE operator (§4.3.1, Algorithm 1).

A vectorized pull-based operator: each worker thread drains the child
operator, hashes every tuple to a transmission group, packs tuples into
RDMA-registered transmission buffers, and hands full buffers to the
endpoint.  Following the paper's measurement (§4.3.1, [18]), tuples are
always *copied* into registered buffers — no zero-copy — because tuples
are small.  That copy is charged in simulated time through the CPU model,
not performed on the host: a buffer's payload is the tuple of views of
the staged tuples, in order, and RECEIVE makes the one host copy when it
assembles its output batch.

Two partitioning modes are provided:

* :func:`hash_partitioner` — real hash partitioning on a key column
  (used by the TPC-H queries and correctness tests);
* :class:`striped_partitioner` — splits every batch evenly across all
  groups.  Statistically equivalent to hashing the paper's
  uniformly-random R.a key, and what the synthetic throughput benchmarks
  use so host-side numpy work stays off the critical path.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, Tuple

import numpy as np

from repro.core.endpoint import MORE_DATA
from repro.core.groups import TransmissionGroups
from repro.core.transport.runtime import SendEndpoint
from repro.engine.operator import OPS_DEPLETED, Operator

__all__ = [
    "ShuffleOperator",
    "hash_partitioner",
    "striped_partitioner",
]

#: Knuth multiplicative hashing constant, as used by in-memory engines.
_HASH_MULTIPLIER = 2654435761


def hash_partitioner(key_of: Callable[[np.ndarray], np.ndarray],
                     num_groups: int):
    """Partition by multiplicative hash of ``key_of(batch)`` (Alg 1 l.8).

    ``key_of`` extracts an integer key array from a batch (e.g.
    ``lambda b: b["orderkey"]``).  Hashed in ``uint32`` (the product's
    low 32 bits depend only on the key's); groups come back in the
    smallest unsigned dtype, so staging them by group is a radix sort.
    """
    multiplier = np.uint32(_HASH_MULTIPLIER)
    groups = np.uint32(num_groups)
    dtype = np.min_scalar_type(num_groups - 1)

    def partition(batch: np.ndarray) -> np.ndarray:
        keys = key_of(batch).astype(np.uint32)
        return (keys * multiplier % groups).astype(dtype, copy=False)

    return partition


class striped_partitioner:
    """Even split of every batch across all groups (uniform traffic).

    Per-tuple hashing of a uniformly random key sends each destination an
    equal share of every batch, with transmission buffers for all
    destinations filling in lockstep.  Striping reproduces that traffic
    pattern exactly — equal slices per group, interleaved buffer fills —
    without per-row numpy hashing on the host's critical path.  The
    SHUFFLE operator recognizes this class and splits batches by slicing.
    """

    def __init__(self, num_groups: int):
        self.num_groups = num_groups
        self._offset = 0
        # Slice bounds of the last batch length: a scan emits equal-length
        # batches, so they are computed once per run of that length.
        self._bounds_len = -1
        self._bounds: List[int] = []

    def split(self, batch: np.ndarray):
        """Yields ``(group, slice)`` pairs covering the batch evenly.

        The starting group rotates between calls so remainders do not pile
        onto group 0.
        """
        n = self.num_groups
        if len(batch) != self._bounds_len:
            self._bounds_len = len(batch)
            self._bounds = np.linspace(
                0, len(batch), n + 1).astype(np.int64).tolist()
        bounds = self._bounds
        start = self._offset
        self._offset = (self._offset + 1) % n
        for i in range(n):
            g = (start + i) % n
            lo, hi = bounds[i], bounds[i + 1]
            if hi > lo:
                yield g, batch[lo:hi]


def _take(chunks: List[np.ndarray], rows: int) -> Tuple[np.ndarray, ...]:
    """Remove exactly ``rows`` tuples from the front of a group's staged
    ``chunks`` (the caller checks there are that many) and return them
    as views of the staged arrays, in order — no copy."""
    taken: List[np.ndarray] = []
    need = rows
    used = 0  # whole chunks consumed from the front
    while need > 0:
        head = chunks[used]
        if len(head) <= need:
            taken.append(head)
            need -= len(head)
            used += 1
        else:
            taken.append(head[:need])
            chunks[used] = head[need:]
            need = 0
    del chunks[:used]
    return tuple(taken)


class ShuffleOperator(Operator):
    """Algorithm 1: hash, pack, transmit.

    One ``next(tid)`` call drains the child completely (the operator is a
    pipeline breaker toward the network) and returns Depleted.  The
    endpoint array holds one endpoint in the single-endpoint (SE)
    configuration or one per thread in the multi-endpoint (ME) one;
    thread ``tid`` uses ``endpoints[tid % len(endpoints)]`` (Alg 1 l.1-4).
    """

    def __init__(self, node, child: Operator,
                 endpoints: Sequence[SendEndpoint],
                 groups: TransmissionGroups,
                 partition_fn,
                 num_threads: int):
        super().__init__(node, child)
        if not endpoints:
            raise ValueError("shuffle needs at least one endpoint")
        self.endpoints = list(endpoints)
        self.groups = groups
        self.partition_fn = partition_fn
        # Per thread, tuples awaiting transmission: each group's staged
        # arrays, and beside them each group's staged row count.
        self._chunks = [[[] for _ in range(groups.num_groups)]
                        for _ in range(num_threads)]
        self._rows = [[0] * groups.num_groups for _ in range(num_threads)]
        for tid in range(num_threads):
            self.endpoints[tid % len(self.endpoints)].attach_thread()
        self.tuples_out = 0

    def _endpoint(self, tid: int) -> SendEndpoint:
        return self.endpoints[tid % len(self.endpoints)]

    def _capacity_rows(self, batch: np.ndarray) -> int:
        target = self._endpoint(0)
        itemsize = batch.dtype.itemsize
        if itemsize > target.config.message_size:
            raise ValueError(
                f"tuple of {itemsize} B exceeds the {target.config.message_size} B "
                "transmission buffer"
            )
        return max(1, target.config.message_size // itemsize)

    def next(self, tid: int):
        target = self._endpoint(tid)
        net = self.node.config
        groups = tuple(self.groups)
        chunks = self._chunks[tid]
        rows = self._rows[tid]
        capacity_rows = None
        depleted = False
        while not depleted:
            state, batch = yield from self.child.next(tid)
            depleted = state == OPS_DEPLETED
            # (group, parts) of each buffer to transmit, in order.
            ready = []
            if batch is not None and len(batch):
                if capacity_rows is None:
                    capacity_rows = self._capacity_rows(batch)
                # Hash + copy into registered buffers (Alg 1 l.8-10),
                # charged per batch through the CPU cost model.
                yield self.per_tuple_cost(
                    len(batch), batch.nbytes,
                    ns_per_tuple=net.hash_ns_per_tuple,
                    ns_per_byte=net.copy_ns_per_byte,
                )
                self._scatter(chunks, rows, batch)
                self.tuples_out += len(batch)
                # Every full buffer (Alg 1 l.11-13), interleaving
                # destinations the way per-tuple hashing fills buffers in
                # lockstep — one full buffer per group per pass.
                busy = True
                while busy:
                    busy = False
                    for g in range(len(rows)):
                        if rows[g] >= capacity_rows:
                            rows[g] -= capacity_rows
                            ready.append((g, _take(chunks[g],
                                                   capacity_rows)))
                            busy = busy or rows[g] >= capacity_rows
            if depleted:
                # Then flush the partial buffers (Alg 1 l.14-17).
                for g in range(len(rows)):
                    if rows[g]:
                        ready.append((g, _take(chunks[g], rows[g])))
                        rows[g] = 0
            # Staging is this thread's own, so taking the parts before
            # transmitting them moves nothing simulated.
            for g, parts in ready:
                buf = yield from target.get_free()
                nbytes = 0
                for part in parts:
                    nbytes += part.nbytes
                buf.fill(parts, nbytes)
                yield from target.send(buf, groups[g], MORE_DATA)
        # Propagate end-of-stream; the endpoint emits the Depleted
        # markers once its last attached thread finishes.
        yield from target.finish()
        return (OPS_DEPLETED, None)

    def _scatter(self, chunks, rows, batch: np.ndarray) -> None:
        """Stage the (non-empty) ``batch`` by group; no staged part is
        empty."""
        if isinstance(self.partition_fn, striped_partitioner):
            for g, part in self.partition_fn.split(batch):
                chunks[g].append(part)
                rows[g] += len(part)
            return
        assignment = self.partition_fn(batch)
        if np.isscalar(assignment) or isinstance(assignment, (int, np.integer)):
            g = int(assignment)
            chunks[g].append(batch)
            rows[g] += len(batch)
            return
        order = np.argsort(assignment, kind="stable")
        sorted_batch = batch[order]
        sorted_groups = assignment[order]
        boundaries = np.searchsorted(
            sorted_groups, np.arange(self.groups.num_groups + 1))
        for g in range(self.groups.num_groups):
            lo, hi = boundaries[g], boundaries[g + 1]
            if hi > lo:
                chunks[g].append(sorted_batch[lo:hi])
                rows[g] += int(hi - lo)
