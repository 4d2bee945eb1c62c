"""The synthetic table R of §5.1 and the fragments that shuffle it.

The receive-throughput experiments scan a replicated table R of 16-byte
tuples (two long integers, uniformly random key) on every node and
repartition or broadcast it.  The simulation reproduces that with a
template batch re-served up to a per-node byte budget; the *striped*
partitioner gives every destination an equal slice of each batch -- the
exact traffic pattern per-tuple hashing of a uniform key produces --
while keeping host-side numpy work off the critical path.

The workload runners of :mod:`repro.bench.workloads` (flat and
two-phase) and the jobs of :mod:`repro.service` all build their
fragments here.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core.receive import ReceiveOperator
from repro.core.shuffle import ShuffleOperator, striped_partitioner
from repro.core.stage import ShuffleStage
from repro.engine.compute import ComputeOperator
from repro.engine.fragment import CountSink, QueryFragment
from repro.engine.operator import Operator
from repro.engine.scan import RepeatedSourceOperator

__all__ = ["R_DTYPE", "SyntheticShuffle", "make_template_batch"]

#: the synthetic table R: two long integers per tuple (§5.1).
R_DTYPE = np.dtype([("a", np.int64), ("b", np.int64)])


#: odd multipliers of the closed-form keys, one per column (bits of the
#: usual golden-ratio and sqrt(2) hashing constants, reduced mod 2**62).
_KEY_STEPS = (0x1E3779B97F4A7C15, 0x3504F333F9DE6485)
_KEY_MASK = (1 << 62) - 1


def make_template_batch(rows: int = 16 * 1024) -> np.ndarray:
    """A read-only batch of R tuples whose keys spread evenly.

    Row ``i`` holds ``(i * step) mod 2**62`` in each column, with an
    odd step per column: a multiplicative hash of the row index, so the
    keys are distinct and lie in ``[0, 2**62)``.  The contents matter to
    no simulated result -- the striped partitioner slices batches
    without reading a key -- but a real hash partitioner would still
    spread them evenly, and no random generator is needed to make them.

    Read-only because in-flight messages hold views of it: a write would
    otherwise change tuples already on the wire.
    """
    index = np.arange(rows, dtype=np.uint64)
    batch = np.empty(rows, dtype=R_DTYPE)
    for name, step in zip(R_DTYPE.names, _KEY_STEPS):
        batch[name] = (index * np.uint64(step)) & np.uint64(_KEY_MASK)
    batch.flags.writeable = False
    return batch


class SyntheticShuffle:
    """Builds one run's R-shuffling fragments and counts what arrives.

    ``sender`` is source -> SHUFFLE on one node of a stage; ``receiver``
    is RECEIVE -> optional per-batch compute -> a counting sink.  Every
    sink is kept in ``sinks``, whichever stage its fragment drains.
    """

    def __init__(self, cluster, compute_ns_per_batch: float = 0.0):
        self.cluster = cluster
        self.threads = cluster.threads_per_node
        self.compute_ns_per_batch = compute_ns_per_batch
        self.template = make_template_batch()
        self.sinks: List[CountSink] = []

    def sender(self, stage: ShuffleStage, node_id: int, nbytes: int,
               tag: str = "") -> QueryFragment:
        """The fragment streaming ``nbytes`` of R out of ``node_id``."""
        node = self.cluster.nodes[node_id]
        groups = stage.groups_for[node_id]
        per_thread = max(self.template.nbytes, nbytes // self.threads)
        source = RepeatedSourceOperator(node, self.template, self.threads,
                                        per_thread)
        shuffle = ShuffleOperator(
            node, source, stage.send_endpoints[node_id], groups,
            striped_partitioner(groups.num_groups), self.threads)
        return QueryFragment(node, shuffle, self.threads,
                             name=f"{tag}shuffle-{node_id}")

    def receiver(self, stage: ShuffleStage, node_id: int,
                 tag: str = "") -> QueryFragment:
        """The fragment draining the stage's endpoints on ``node_id``."""
        node = self.cluster.nodes[node_id]
        root: Operator = ReceiveOperator(
            node, stage.recv_endpoints[node_id], self.threads)
        if self.compute_ns_per_batch:
            root = ComputeOperator(node, root,
                                   ns_per_batch=self.compute_ns_per_batch)
        sink = CountSink()
        self.sinks.append(sink)
        return QueryFragment(node, root, self.threads, sink=sink,
                             name=f"{tag}receive-{node_id}")

    def fragments(self, stage: ShuffleStage, nbytes: int,
                  tag: str = "") -> List[QueryFragment]:
        """Every node's sender and receiver over one flat stage."""
        out: List[QueryFragment] = []
        for node_id in range(self.cluster.num_nodes):
            out.append(self.sender(stage, node_id, nbytes, tag))
            out.append(self.receiver(stage, node_id, tag))
        return out
