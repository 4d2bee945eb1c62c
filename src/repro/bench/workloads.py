"""Synthetic shuffle workloads (§5.1).

The paper's receive-throughput experiments scan a replicated table R on
every node and repartition or broadcast it; :mod:`repro.core.synthetic`
builds those fragments, and the runners here set up the stage(s) a plan
asks for, run the fragments, and report.

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
from repro.core.policy import (
    DesignLike,
    StageContext,
    StagePlan,
    resolve_plan,
)
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


def _execute(cluster: Cluster, plan: StagePlan, pattern: str,
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
        design=plan.describe(),
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
        num_endpoints=num_endpoints,
        allow_hierarchical=(pattern == "repartition")))
    if plan.hierarchical:
        if pattern != "repartition":
            raise ValueError(
                f"hierarchical plans only support repartition, "
                f"not {pattern!r}")
        return run_hierarchical(
            cluster, plan, bytes_per_node=bytes_per_node, config=config,
            compute_ns_per_batch=compute_ns_per_batch)
    stage = cluster.shuffle_stage(plan, groups_for, config)
    shuffle = SyntheticShuffle(cluster, compute_ns_per_batch)
    return _execute(cluster, plan, pattern, bytes_per_node, [stage],
                    shuffle, shuffle.fragments(stage, bytes_per_node))


def run_repartition(cluster: Cluster, design: DesignLike,
                    bytes_per_node: int = 16 << 20,
                    config: Optional[EndpointConfig] = None,
                    num_endpoints: Optional[int] = None,
                    compute_ns_per_batch: float = 0.0) -> ShuffleRunResult:
    """Uniform repartition of table R across all nodes (§5.1, Fig 10a/c).

    ``design`` may be a design name, a :class:`Design`, a
    :class:`StagePlan`, or a :class:`ShufflePolicy`; it is coerced once
    to a plan (against the live cluster), and hierarchical plans run
    via :func:`run_hierarchical`.
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
# two-phase (hierarchical) repartition for oversubscribed leaf-spine
# ---------------------------------------------------------------------------


def run_hierarchical(cluster: Cluster, plan: StagePlan,
                     bytes_per_node: int = 16 << 20,
                     config: Optional[EndpointConfig] = None,
                     compute_ns_per_batch: float = 0.0
                     ) -> ShuffleRunResult:
    """Two-phase leaf-spine repartition from a hierarchical StagePlan.

    Splits the uniform repartition by destination locality into two
    concurrent single-phase shuffles:

    * an **intra-leaf** stage (``plan.design``, typically UD) carrying
      each node's share destined for its own leaf — never crosses a
      trunk, runs at full parallelism;
    * an **inter-leaf** stage (``plan.inter``, typically deep-window RC)
      carrying the remaining share to every remote-leaf node.  The
      senders of one source leaf are partitioned round-robin into
      ``plan.inter_concurrency`` chains that each run their fragments
      *sequentially*, keeping the aggregate injection rate of a leaf
      near its trunk rate — each active stream fills the trunk instead
      of queueing behind its leaf-mates' bursts.

    Every byte lands at its final destination (no gateway forwarding),
    so received-bytes throughput accounting is directly comparable to
    the flat runner's.
    """
    if plan.inter is None:
        raise ValueError("run_hierarchical needs a plan with an inter-leaf "
                         "sub-plan; use run_repartition for flat plans")
    n = cluster.num_nodes
    per_leaf = cluster.config.topology.nodes_per_leaf
    leaves = [list(range(lo, min(lo + per_leaf, n)))
              for lo in range(0, n, per_leaf)]
    if len(leaves) < 2:
        # A single leaf has no trunk to coordinate: run the intra design
        # flat, preserving the plan's parameter overrides.
        flat = dataclasses.replace(plan, inter=None, inter_concurrency=1)
        return run_repartition(
            cluster, flat, bytes_per_node=bytes_per_node, config=config,
            compute_ns_per_batch=compute_ns_per_batch)
    leaf_of = {node: i for i, members in enumerate(leaves)
               for node in members}

    def intra_groups(node: int) -> TransmissionGroups:
        return TransmissionGroups(
            [(dest,) for dest in leaves[leaf_of[node]]])

    def inter_groups(node: int) -> TransmissionGroups:
        return TransmissionGroups(
            [(dest,) for dest in range(n) if leaf_of[dest] != leaf_of[node]])

    intra_stage = cluster.shuffle_stage(
        dataclasses.replace(plan, inter=None), intra_groups, config)
    inter_stage = cluster.shuffle_stage(plan.inter, inter_groups, config)
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
    concurrency = plan.inter_concurrency
    for members in leaves:
        leaf_chains: List[List[QueryFragment]] = [
            [] for _ in range(concurrency)]
        for slot, node_id in enumerate(members):
            leaf_chains[slot % concurrency].append(inter_senders[node_id])
        chains.extend(chain for chain in leaf_chains if chain)

    return _execute(cluster, plan, "repartition", bytes_per_node,
                    (intra_stage, inter_stage), shuffle, immediate, chains)
