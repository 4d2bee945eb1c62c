"""Synthetic shuffle workloads (§5.1).

The paper's receive-throughput experiments scan a replicated table R on
every node and repartition or broadcast it; :mod:`repro.core.synthetic`
builds those fragments, and the runners here set the stages up, run the
fragments, and report.  Each runner owns its schedule:
:func:`run_repartition` and :func:`run_broadcast` run one stage of the
planned design, and :func:`run_hierarchical` splits a leaf-spine
repartition into two flat stages — intra-leaf and inter-leaf — and
paces the inter-leaf senders to the trunk rate.

Absolute volumes are scaled down from the paper's 160 GiB per node — the
simulation measures steady-state throughput, which converges within tens
of MiB.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.cluster import Cluster
from repro.core.endpoint import EndpointConfig
from repro.core.groups import TransmissionGroups
from repro.core.policy import DesignLike, StageContext, resolve_plan
from repro.core.stage import ShuffleStage
from repro.core.synthetic import R_DTYPE, SyntheticShuffle
from repro.engine.fragment import QueryFragment, run_fragments

__all__ = ["R_DTYPE", "ShuffleRunResult", "run_repartition",
           "run_broadcast", "run_hierarchical"]

GIB = float(1 << 30)


@dataclass
class ShuffleRunResult:
    """Everything a shuffle-throughput experiment reports."""

    design: str
    pattern: str
    network: str
    num_nodes: int
    threads: int
    bytes_per_node: int
    elapsed_ns: int
    setup_ns: int
    total_received_bytes: int
    total_received_rows: int
    registered_bytes_per_node: int
    qps_per_node: int
    messages_sent: int
    #: total time receiver threads spent blocked waiting for data
    #: (summed across all receive endpoints; drives the Fig 13 metric).
    recv_data_wait_ns: int = 0
    #: total time sender threads spent stalled for flow-control credit
    #: (summed across all send endpoints; the §5.1.3 profiling signal).
    send_credit_wait_ns: int = 0

    def receive_throughput_gib_per_node(self) -> float:
        """Received GiB/s per node — the paper's §5.1 metric."""
        if self.elapsed_ns <= 0:
            return 0.0
        return (self.total_received_bytes / GIB) / (
            self.elapsed_ns / 1e9) / self.num_nodes

    def response_time_ms(self) -> float:
        return self.elapsed_ns / 1e6

    def receiver_busy_fraction(self) -> float:
        """Fraction of receiving-thread time not blocked on data.

        Reaches 1.0 when communication is completely hidden behind the
        receiving fragment's computation (the Fig 13 y-axis).
        """
        total = self.elapsed_ns * self.threads * self.num_nodes
        if total <= 0:
            return 0.0
        return max(0.0, 1.0 - self.recv_data_wait_ns / total)


def _execute(cluster: Cluster, design: str, pattern: str,
             bytes_per_node: int, stages: Sequence[ShuffleStage],
             shuffle: SyntheticShuffle, immediate: List[QueryFragment],
             chains: Sequence[List[QueryFragment]] = ()) -> ShuffleRunResult:
    """Set ``stages`` up, run the fragments built over them, report."""
    setup_ns = 0
    for stage in stages:
        cluster.run_process(stage.setup(), name="stage-setup")
        setup_ns += stage.max_setup_ns
    messages_before = cluster.fabric.delivered_messages
    elapsed = cluster.run_process(
        run_fragments(cluster.sim, immediate, chains), name="shuffle-query")
    n = cluster.num_nodes
    stats = [stage.stats() for stage in stages]
    return ShuffleRunResult(
        design=design,
        pattern=pattern,
        network=cluster.config.network.name,
        num_nodes=n,
        threads=cluster.threads_per_node,
        bytes_per_node=bytes_per_node,
        elapsed_ns=elapsed,
        setup_ns=setup_ns,
        total_received_bytes=sum(s.nbytes for s in shuffle.sinks),
        total_received_rows=sum(s.rows for s in shuffle.sinks),
        registered_bytes_per_node=max(
            sum(stage.registered_bytes(i) for stage in stages)
            for i in range(n)),
        qps_per_node=max(
            sum(stage.qps_created(i) for stage in stages)
            for i in range(n)),
        messages_sent=cluster.fabric.delivered_messages - messages_before,
        recv_data_wait_ns=sum(s.recv_data_wait_ns for s in stats),
        send_credit_wait_ns=sum(s.credit_wait_ns for s in stats),
    )


def _run_shuffle(cluster: Cluster, design: DesignLike, pattern: str,
                 groups_for,
                 bytes_per_node: int, config: Optional[EndpointConfig],
                 num_endpoints: Optional[int],
                 compute_ns_per_batch: float) -> ShuffleRunResult:
    plan = resolve_plan(design, StageContext.from_cluster(
        cluster, config=config, bytes_per_node=bytes_per_node,
        num_endpoints=num_endpoints))
    stage = cluster.shuffle_stage(plan, groups_for, config)
    shuffle = SyntheticShuffle(cluster, compute_ns_per_batch)
    return _execute(cluster, plan.design.name, pattern, bytes_per_node,
                    [stage], shuffle, shuffle.fragments(stage, bytes_per_node))


def run_repartition(cluster: Cluster, design: DesignLike,
                    bytes_per_node: int = 16 << 20,
                    config: Optional[EndpointConfig] = None,
                    num_endpoints: Optional[int] = None,
                    compute_ns_per_batch: float = 0.0) -> ShuffleRunResult:
    """Uniform repartition of table R across all nodes (§5.1, Fig 10a/c).

    ``design`` may be a design name, a :class:`Design`, a
    :class:`StagePlan`, or an :class:`AdaptivePolicy`; it is coerced
    once to a plan (against the live cluster).
    """
    groups = TransmissionGroups.repartition(cluster.num_nodes)
    return _run_shuffle(cluster, design, "repartition", groups,
                        bytes_per_node, config, num_endpoints,
                        compute_ns_per_batch)


def run_broadcast(cluster: Cluster, design: DesignLike,
                  bytes_per_node: int = 4 << 20,
                  config: Optional[EndpointConfig] = None,
                  num_endpoints: Optional[int] = None,
                  compute_ns_per_batch: float = 0.0) -> ShuffleRunResult:
    """Every node broadcasts R to every other node (§5.1, Fig 10b/d)."""
    n = cluster.num_nodes

    def groups_for(node: int) -> TransmissionGroups:
        return TransmissionGroups.broadcast(n, exclude=node)

    return _run_shuffle(cluster, design, "broadcast", groups_for,
                        bytes_per_node, config, num_endpoints,
                        compute_ns_per_batch)


# ---------------------------------------------------------------------------
# two-phase repartition for oversubscribed leaf-spine fabrics
# ---------------------------------------------------------------------------

#: the inter-leaf stage of a two-phase repartition: deep-window RC at
#: the Fig 9 sweet spot (64 KiB) or above.
INTER_LEAF_DESIGN = "SEMQ/SR"
INTER_LEAF_BUFFERS = 16
INTER_LEAF_MIN_MESSAGE = 64 << 10


def run_hierarchical(cluster: Cluster, design: DesignLike,
                     bytes_per_node: int = 16 << 20,
                     config: Optional[EndpointConfig] = None,
                     compute_ns_per_batch: float = 0.0
                     ) -> ShuffleRunResult:
    """Two-phase leaf-spine repartition: two flat stages, one schedule.

    The abl-oversub ablation shows MESQ/SR losing ~40% of its
    repartition throughput at 4:1 trunk oversubscription with the
    trunks only ~70% utilized: m uncoordinated senders per leaf, each
    spraying shallow UD windows across every remote node, leave the
    constrained trunk idle between bursts.  This runner splits the
    repartition by destination locality into two concurrent stages:

    * an **intra-leaf** stage of ``design`` carrying each node's share
      destined for its own leaf — never crosses a trunk, runs at full
      parallelism;
    * an **inter-leaf** :data:`INTER_LEAF_DESIGN` stage with
      :data:`INTER_LEAF_BUFFERS` buffers per connection and messages of
      at least :data:`INTER_LEAF_MIN_MESSAGE`, carrying the remaining
      share to every remote-leaf node.  The senders of one source leaf
      are partitioned round-robin into ``c`` chains that each run their
      fragments *sequentially*, where ``c = nodes_per_leaf /
      oversubscription`` (at least 2, at most the leaf) matches the
      senders' aggregate link rate to the trunk rate: each active
      stream fills the trunk instead of queueing behind its leaf-mates'
      bursts, and the floor of two keeps the trunk fed through any one
      stream's per-destination stalls (one stream leaves ~8% idle).

    Every byte lands at its final destination (no gateway forwarding),
    so received-bytes throughput accounting is directly comparable to
    the flat runner's.  Without leaf-spine locality to exploit — a
    single-switch fabric or one leaf — it runs ``design`` flat.
    """
    n = cluster.num_nodes
    spec = cluster.config.topology
    per_leaf = spec.nodes_per_leaf if spec.kind == "leaf-spine" else n
    leaves = [list(range(lo, min(lo + per_leaf, n)))
              for lo in range(0, n, per_leaf)]
    if len(leaves) < 2:
        return run_repartition(
            cluster, design, bytes_per_node=bytes_per_node, config=config,
            compute_ns_per_batch=compute_ns_per_batch)
    leaf_of = {node: i for i, members in enumerate(leaves)
               for node in members}
    concurrency = min(per_leaf, max(2, per_leaf // spec.oversubscription))

    def intra_groups(node: int) -> TransmissionGroups:
        return TransmissionGroups(
            [(dest,) for dest in leaves[leaf_of[node]]])

    def inter_groups(node: int) -> TransmissionGroups:
        return TransmissionGroups(
            [(dest,) for dest in range(n) if leaf_of[dest] != leaf_of[node]])

    base = config if config is not None else EndpointConfig()
    inter_config = dataclasses.replace(
        base, buffers_per_connection=INTER_LEAF_BUFFERS,
        message_size=max(base.message_size, INTER_LEAF_MIN_MESSAGE))
    intra_stage = cluster.shuffle_stage(design, intra_groups, config)
    inter_stage = cluster.shuffle_stage(
        INTER_LEAF_DESIGN, inter_groups, inter_config)
    shuffle = SyntheticShuffle(cluster, compute_ns_per_batch)
    immediate: List[QueryFragment] = []
    inter_senders: List[QueryFragment] = []
    for node_id in range(n):
        own = len(leaves[leaf_of[node_id]])
        intra_bytes = bytes_per_node * own // n
        immediate.append(
            shuffle.sender(intra_stage, node_id, intra_bytes, "intra-"))
        immediate.append(shuffle.receiver(intra_stage, node_id, "intra-"))
        immediate.append(shuffle.receiver(inter_stage, node_id, "inter-"))
        inter_senders.append(shuffle.sender(
            inter_stage, node_id, bytes_per_node - intra_bytes, "inter-"))

    # Round-robin each leaf's inter-leaf senders into c sequential
    # chains: at most c senders per source leaf are active at any time.
    chains: List[List[QueryFragment]] = []
    for members in leaves:
        leaf_chains: List[List[QueryFragment]] = [
            [] for _ in range(concurrency)]
        for slot, node_id in enumerate(members):
            leaf_chains[slot % concurrency].append(inter_senders[node_id])
        chains.extend(chain for chain in leaf_chains if chain)

    label = (f"{intra_stage.design.name}+{inter_stage.design.name}"
             f"/hier(x{concurrency})")
    return _execute(cluster, label, "repartition", bytes_per_node,
                    (intra_stage, inter_stage), shuffle, immediate, chains)
