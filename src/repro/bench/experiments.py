"""Drivers that regenerate every table and figure of the evaluation (§5).

Each ``figN`` function reproduces the corresponding figure's data; the
returned :class:`~repro.bench.report.ExperimentResult` holds the same
x-axis and series the paper plots.  A global ``scale`` parameter shrinks
transfer volumes for quick runs (the benchmarks use ``scale=0.25``); the
shapes are volume-independent once past warmup.

Simulated volumes are far below the paper's 160 GiB per node — throughput
is steady-state within tens of MiB — and TPC-H scale factors are reduced
proportionally; EXPERIMENTS.md records the paper-vs-measured comparison.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Dict, List, Optional, Sequence

from repro.baselines.qperf import run_qperf
from repro.bench.report import ExperimentResult, Series
from repro.bench.workloads import run_broadcast, run_repartition
from repro.cluster import Cluster
from repro.core.designs import PAPER_ORDER, design_properties
from repro.core.endpoint import EndpointConfig
from repro.core.groups import TransmissionGroups
from repro.core.policy import HierarchicalPolicy, StageContext, parse_policy
from repro.fabric.config import (
    EDR,
    FDR,
    LEAF_SPINE,
    ClusterConfig,
    NetworkConfig,
)
from repro.telemetry import nic_cache_stats
from repro.tpch import generate, run_query

__all__ = [
    "fig8", "fig9", "fig10", "fig10_scaleout", "fig11", "fig12", "fig13",
    "fig14a", "fig14_scaling", "table1", "abl_oversub", "abl_adaptive",
    "abl_hierarchical", "svc_tenants", "ALL_EXPERIMENTS",
]

MIB = 1 << 20


def _volume(design: str, scale: float, nodes: int = 8,
            pattern: str = "repartition") -> int:
    """Per-node transfer volume: UD datagrams and the baselines' per-packet
    models cost more host time per byte than the MQ designs' RC messages."""
    base = int((72 if "MQ/" in design else 24) * MIB * scale)
    if pattern == "broadcast":
        base = base // max(1, nodes - 1)
    return max(2 * MIB, base)


def _run(network: NetworkConfig, design: str, nodes: int,
         pattern: str, scale: float,
         config: Optional[EndpointConfig] = None,
         num_endpoints: Optional[int] = None,
         threads: int = 0):
    """One shuffle run; returns ``(cluster, workload result)`` so callers
    can harvest transport telemetry alongside the throughput number."""
    cluster = Cluster(ClusterConfig(network=network, num_nodes=nodes,
                                    threads_per_node=threads))
    runner = run_repartition if pattern == "repartition" else run_broadcast
    result = runner(cluster, design,
                    bytes_per_node=_volume(design, scale, nodes, pattern),
                    config=config, num_endpoints=num_endpoints)
    return cluster, result


def _peak_trunk_util(cluster: Cluster, result) -> float:
    """Peak switch-trunk utilization (0..1) over the transfer window
    (setup excluded: trunk ports only carry shuffle data)."""
    elapsed = max(1, result.elapsed_ns)
    return min(1.0, max((p.pipe.busy_ns / elapsed
                         for p in cluster.fabric.topology.ports()),
                        default=0.0))


def _throughput(network: NetworkConfig, design: str, nodes: int,
                pattern: str, scale: float,
                config: Optional[EndpointConfig] = None,
                num_endpoints: Optional[int] = None,
                threads: int = 0) -> float:
    _cluster, result = _run(network, design, nodes, pattern, scale,
                            config=config, num_endpoints=num_endpoints,
                            threads=threads)
    return result.receive_throughput_gib_per_node()


# -- Figure 8: credit write-back frequency ------------------------------------------


def fig8(network: NetworkConfig = EDR, nodes: int = 8,
         frequencies: Sequence[int] = (1, 2, 3, 4, 8, 16),
         scale: float = 1.0) -> ExperimentResult:
    """Fig 8: flow-control overhead of the Send/Receive designs.

    Matches §5.1.1's setup: 16 RDMA buffers per remote node per thread;
    the x axis is how many Receives the receiver posts before writing
    credit back.
    """
    series = []
    for design in ["SEMQ/SR", "MEMQ/SR", "SESQ/SR", "MESQ/SR"]:
        ys = []
        for freq in frequencies:
            cfg = EndpointConfig(buffers_per_connection=16,
                                 credit_frequency=freq, ud_window_factor=1)
            ys.append(_throughput(network, design, nodes, "repartition",
                                  scale, config=cfg))
        series.append(Series(design, ys))
    mpi = _throughput(network, "MPI", nodes, "repartition", scale)
    series.append(Series("MPI", [mpi] * len(frequencies)))
    qperf = run_qperf(network)
    series.append(Series("qperf", [qperf] * len(frequencies)))
    return ExperimentResult(
        experiment=f"fig8-{network.name}",
        title=f"Credit write-back frequency, {network.name} "
              f"({nodes} nodes)",
        x_label="credit update frequency", x=list(frequencies),
        y_label="receive throughput per node (GiB/s)", series=series,
        notes="16 buffers per remote node per thread (§5.1.1)",
    )


# -- Figure 9: message size (throughput + pinned memory) ------------------------------


def fig9(network: NetworkConfig = EDR, nodes: int = 8,
         sizes: Sequence[int] = (4 << 10, 16 << 10, 64 << 10, 256 << 10,
                                 1 << 20),
         scale: float = 1.0):
    """Fig 9(a,b): RC message size vs throughput and registered memory."""
    throughput = {d: [] for d in PAPER_ORDER}
    memory = {d: [] for d in PAPER_ORDER}
    for size in sizes:
        for design in PAPER_ORDER:
            _cluster, result = _run(
                network, design, nodes, "repartition", scale,
                config=EndpointConfig(message_size=size))
            throughput[design].append(
                result.receive_throughput_gib_per_node())
            memory[design].append(
                result.registered_bytes_per_node / MIB)
    thr = ExperimentResult(
        experiment=f"fig9a-{network.name}",
        title=f"Effect of message size ({network.name}): throughput",
        x_label="message size (B)", x=list(sizes),
        y_label="receive throughput per node (GiB/s)",
        series=[Series(d, throughput[d]) for d in PAPER_ORDER],
        notes="UD designs are pinned at the 4 KiB MTU regardless of the "
              "requested size (§2.2.2)",
    )
    mem = ExperimentResult(
        experiment=f"fig9b-{network.name}",
        title=f"Effect of message size ({network.name}): pinned memory",
        x_label="message size (B)", x=list(sizes),
        y_label="registered memory per node (MiB)",
        series=[Series(d, memory[d]) for d in PAPER_ORDER],
        notes="double buffering per thread per destination (§5.1.2)",
    )
    return thr, mem


# -- Figure 10: throughput when scaling out --------------------------------------------


def fig10(networks: Sequence[NetworkConfig] = (FDR, EDR),
          node_counts: Sequence[int] = (2, 4, 8, 16),
          scale: float = 1.0) -> List[ExperimentResult]:
    """Fig 10(a-d): repartition and broadcast throughput vs cluster size."""
    results = []
    panel = {("FDR", "repartition"): "fig10a", ("FDR", "broadcast"): "fig10b",
             ("EDR", "repartition"): "fig10c", ("EDR", "broadcast"): "fig10d"}
    for network in networks:
        for pattern in ("repartition", "broadcast"):
            series = []
            for design in PAPER_ORDER + ["MPI", "IPoIB"]:
                ys = [
                    _throughput(network, design, n, pattern, scale)
                    for n in node_counts
                ]
                series.append(Series(design, ys))
            qperf = run_qperf(network)
            if pattern == "repartition":  # qperf has no broadcast mode
                series.append(Series("qperf", [qperf] * len(node_counts)))
            results.append(ExperimentResult(
                experiment=panel[(network.name, pattern)],
                title=f"{pattern.capitalize()} throughput, "
                      f"{network.name} InfiniBand",
                x_label="nodes", x=list(node_counts),
                y_label="receive throughput per node (GiB/s)",
                series=series,
            ))
    return results


# -- Mesoscale scale-out: 64..1024 nodes on leaf-spine --------------------------------


#: default node counts for the mesoscale sweep.
SCALEOUT_COUNTS = (64, 128, 256, 512, 1024)

#: largest cluster the MQ design runs at — n QPs per node means n^2
#: connections cluster-wide, so the sweep caps it and reports "-" above.
SCALEOUT_MQ_CAP = 256


@contextmanager
def _gc_paused():
    """Pause the cyclic collector for one mesoscale run.

    A 1024-node cluster holds millions of live objects (connections,
    buffer pools, address handles); full collections traverse all of
    them and come to dominate wall-clock (~2x at 256 nodes, worse
    beyond).  Reference counting still reclaims the simulator's acyclic
    churn; one collection after the run picks up the cycles.
    """
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
        gc.collect()


def _scaleout_volume(nodes: int, scale: float) -> int:
    """Per-node transfer volume for the mesoscale sweep.

    Decays as n^-2 so per-link work stays roughly constant across the
    sweep: every source batch emits one message per destination, so
    cluster-wide messages grow as nodes^2 x batches and a flat per-node
    volume would explode the 1024-node run.  Floored at one template
    batch (256 KiB) so every destination still receives data.
    """
    return max(256 << 10, int(32 * MIB * scale * (64.0 / nodes) ** 2))


def _scaleout_point(network: NetworkConfig, design: str, n: int,
                    scale: float, nodes_per_leaf: int,
                    oversubscription: int, want_trunk_note: bool):
    """Run one (design, node count) point; the cluster dies on return.

    Keeping the cluster's lifetime inside this frame is what makes the
    caller's post-point ``gc.collect()`` cheap: reference counting frees
    the acyclic bulk as the frame unwinds.
    """
    topology = LEAF_SPINE(oversubscription=oversubscription,
                          nodes_per_leaf=nodes_per_leaf)
    cluster = Cluster(ClusterConfig(network=network, num_nodes=n,
                                    threads_per_node=1, topology=topology))
    # ud_window_factor=1: at mesoscale fan-out each link carries ~1
    # message per batch, so the deep UD byte window of §5.1.1 buys
    # nothing and costs O(n^2) receive buffers cluster-wide.
    cfg = EndpointConfig(
        message_size=4096 if design.startswith("MESQ") else 65536,
        buffers_per_connection=2, credit_frequency=2, ud_window_factor=1)
    result = run_repartition(cluster, design,
                             bytes_per_node=_scaleout_volume(n, scale),
                             config=cfg)
    note = None
    if want_trunk_note:
        note = (f"n={n} peak trunk util "
                f"{100.0 * _peak_trunk_util(cluster, result):.0f}%")
    y = result.receive_throughput_gib_per_node()
    cluster.dispose()
    return y, note


def fig10_scaleout(network: NetworkConfig = EDR,
                   node_counts: Sequence[int] = SCALEOUT_COUNTS,
                   scale: float = 1.0,
                   nodes_per_leaf: int = 32,
                   oversubscription: int = 2,
                   designs: Sequence[str] = ("MESQ/SR", "MEMQ/SR"),
                   mq_cap: int = SCALEOUT_MQ_CAP) -> ExperimentResult:
    """Repartition throughput from 64 to 1024 nodes on a leaf-spine fabric.

    The paper stops at 16 nodes on one switch (Fig 10); this extrapolation
    asks how the two surviving designs behave at mesoscale on a 2:1
    oversubscribed leaf-spine fabric (32 nodes per leaf).  It is the
    flow-level packet-train abstraction that makes the sweep tractable:
    every multi-MTU message crosses each pipe as a single event, so event
    counts scale with messages rather than packets.

    One thread per node and double buffering keep per-node state minimal;
    the MQ design stops at ``mq_cap`` nodes (n^2 connections cluster-wide)
    while the SQ design runs the full sweep — the paper's §5.1.4 argument
    about QP-context thrash, restated as a scale-out feasibility boundary.
    """
    series = []
    trunk_notes = []
    for design in designs:
        ys = []
        for n in node_counts:
            if "MQ/" in design and n > mq_cap:
                ys.append(None)  # rendered as "-": beyond the MQ cap
                continue
            with _gc_paused():
                # The point runs in a helper so the cluster is already
                # dead when _gc_paused collects on exit: the collector
                # then traverses surviving cycles, not a ~10 GB live
                # heap (tens of seconds at 1024 nodes).
                y, note = _scaleout_point(
                    network, design, n, scale, nodes_per_leaf,
                    oversubscription, want_trunk_note=design == designs[0])
            ys.append(y)
            if note is not None:
                trunk_notes.append(note)
        series.append(Series(design, ys))
    return ExperimentResult(
        experiment=f"fig10-scaleout-{network.name}",
        title=f"Mesoscale repartition scale-out ({network.name}, "
              f"leaf-spine {oversubscription}:1, {nodes_per_leaf}/leaf)",
        x_label="nodes", x=list(node_counts),
        y_label="receive throughput per node (GiB/s)", series=series,
        notes=f"1 thread/node, double buffering; MQ capped at {mq_cap} "
              f"nodes; {designs[0]}: " + ", ".join(trunk_notes),
    )


# -- Figure 11: number of Queue Pairs --------------------------------------------------


def fig11(network: NetworkConfig = EDR, nodes: int = 16,
          endpoint_counts: Sequence[int] = (1, 2, 4, 8),
          scale: float = 1.0) -> ExperimentResult:
    """Fig 11: throughput vs Queue Pairs per operator (EDR, 16 nodes).

    The endpoint count k sweeps between the SE (k=1) and ME (k=t)
    extremes; the resulting QPs per operator are k for SQ designs and
    n*k for MQ designs.
    """
    x_qps: List[int] = []
    rows: Dict[str, Dict[int, float]] = {"SQ/SR": {}, "MQ/SR": {}, "MQ/RD": {}}
    miss_rates: Dict[str, Dict[int, float]] = {k: {} for k in rows}
    for k in endpoint_counts:
        for kind, design in (("SQ/SR", "MESQ/SR"), ("MQ/SR", "MEMQ/SR"),
                             ("MQ/RD", "MEMQ/RD")):
            qps = k if kind == "SQ/SR" else k * nodes
            cluster, result = _run(network, design, nodes, "repartition",
                                   scale, num_endpoints=k)
            rows[kind][qps] = result.receive_throughput_gib_per_node()
            miss_rates[kind][qps] = nic_cache_stats(cluster)["miss_rate"]
            if qps not in x_qps:
                x_qps.append(qps)
    x_qps.sort()
    series = [
        Series(kind, [rows[kind].get(q) for q in x_qps])
        for kind in ("SQ/SR", "MQ/SR", "MQ/RD")
    ]
    # The degradation mechanism (§5.1.4): once QPs outgrow the NIC's
    # context cache, every work request risks a PCIe round trip.
    cache_note = ", ".join(
        f"{kind} {100.0 * miss_rates[kind][max(miss_rates[kind])]:.0f}%"
        for kind in ("SQ/SR", "MQ/SR", "MQ/RD")
    )
    return ExperimentResult(
        experiment="fig11",
        title=f"Effect of many Queue Pairs ({network.name}, {nodes} nodes)",
        x_label="QPs per operator", x=x_qps,
        y_label="receive throughput per node (GiB/s)", series=series,
        notes="endpoint count sweeps 1..t; QPs = k (SQ) or n*k (MQ); "
              f"QP-cache miss rate at max QPs: {cache_note}",
    )


# -- Figure 12: connection setup cost --------------------------------------------------


def _setup_ns(network: NetworkConfig, design: str, nodes: int,
              threads: int = 0) -> int:
    """Slowest node's connection build time for one repartition stage."""
    cluster = Cluster(ClusterConfig(network=network, num_nodes=nodes,
                                    threads_per_node=threads))
    stage = cluster.shuffle_stage(
        design, TransmissionGroups.repartition(nodes))
    cluster.run_process(stage.setup())
    return stage.max_setup_ns


def fig12(network: NetworkConfig = EDR,
          node_counts: Sequence[int] = (2, 4, 6, 8, 10, 12, 14, 16),
          threads: int = 0) -> ExperimentResult:
    """Fig 12: time to build the RDMA connections vs cluster size."""
    series = {d: [] for d in PAPER_ORDER}
    for nodes in node_counts:
        for design in PAPER_ORDER:
            series[design].append(
                _setup_ns(network, design, nodes, threads) / 1e6)
    return ExperimentResult(
        experiment="fig12",
        title=f"Time to build RDMA connections ({network.name})",
        x_label="nodes", x=list(node_counts),
        y_label="time (ms)",
        series=[Series(d, series[d]) for d in PAPER_ORDER],
        notes="per-node setup: QP creation + handshake + registration; "
              "MQ designs grow linearly, SQ designs stay flat (§5.1.5)",
    )


def setup_crossover_mb(network: NetworkConfig = EDR, nodes: int = 8,
                       scale: float = 1.0) -> float:
    """§5.1.5 claim: the shuffle volume above which MESQ/SR with runtime
    connection setup beats IPoIB (which needs none worth counting)."""
    setup_s = _setup_ns(network, "MESQ/SR", nodes) / 1e9
    mesq = _throughput(network, "MESQ/SR", nodes, "repartition", scale)
    ipoib = _throughput(network, "IPoIB", nodes, "repartition", scale)
    if mesq <= ipoib:
        return float("inf")
    # volume V satisfying V/ipoib == setup + V/mesq (GiB/s -> MB).
    volume_gib = setup_s / (1.0 / ipoib - 1.0 / mesq)
    return volume_gib * 1024.0


# -- Figure 13: compute-intensive receiving fragment -----------------------------------


def fig13(network: NetworkConfig = EDR, nodes: int = 8,
          compute_us: Sequence[float] = (0.0, 2.5, 5.0, 10.0, 15.0, 25.0,
                                         40.0),
          scale: float = 1.0) -> ExperimentResult:
    """Fig 13: relative shuffling throughput as the receiving fragment
    becomes compute intensive (batches of 32 KiB, §5.1.6).

    The y-axis is the receiving fragment's busy fraction — the measured
    share of receiver-thread time not blocked waiting for data.  It
    reaches 100% exactly when communication is completely overlapped
    with computation, matching the paper's definition.
    """
    batch = 32 * 1024
    series = []
    for design in PAPER_ORDER + ["MPI", "IPoIB"]:
        ys = []
        for c_us in compute_us:
            cluster = Cluster(ClusterConfig(network=network,
                                            num_nodes=nodes))
            result = run_repartition(
                cluster, design,
                bytes_per_node=_volume(design, scale, nodes),
                compute_ns_per_batch=c_us * 1000.0,
                receive_output_bytes=batch)
            ys.append(100.0 * result.receiver_busy_fraction())
        series.append(Series(design, ys))
    return ExperimentResult(
        experiment="fig13",
        title=f"Compute-intensive receiving fragment ({network.name})",
        x_label="compute per 32KiB batch (us)", x=list(compute_us),
        y_label="relative shuffling throughput (%)",
        series=series,
        notes="100% = communication fully hidden behind computation",
    )


# -- Figure 14: TPC-H ------------------------------------------------------------------


def fig14a(scale_factor: float = 0.06, nodes: int = 8,
           threads: int = 0) -> ExperimentResult:
    """Fig 14(a): TPC-H Q4 response time, FDR vs EDR, 8 nodes."""
    series = {"MPI": [], "MESQ/SR": [], "local data": []}
    for network in (FDR, EDR):
        data = generate(scale_factor, nodes, seed=42)
        for design in ("MPI", "MESQ/SR"):
            cluster = Cluster(ClusterConfig(network=network,
                                            num_nodes=nodes,
                                            threads_per_node=threads))
            res = run_query(cluster, "Q4", data, design=design)
            series[design].append(res.response_time_ms())
        local = generate(scale_factor, nodes, seed=42, copartition=True)
        cluster = Cluster(ClusterConfig(network=network, num_nodes=nodes,
                                        threads_per_node=threads))
        res = run_query(cluster, "Q4", local, design="MESQ/SR",
                        local_data=True)
        series["local data"].append(res.response_time_ms())
    return ExperimentResult(
        experiment="fig14a",
        title=f"TPC-H Q4 response time, {nodes} nodes, SF={scale_factor}",
        x_label="network", x=["FDR", "EDR"],
        y_label="response time (ms)",
        series=[Series(k, v) for k, v in series.items()],
    )


def fig14_scaling(query: str, scale_factor_per_node: float = 0.0075,
                  node_counts: Sequence[int] = (2, 4, 8, 16),
                  threads: int = 0) -> ExperimentResult:
    """Fig 14(b,c,d): query response time as the database grows in
    proportion to the cluster (Q4, Q3, Q10)."""
    labels = {"Q4": "fig14b", "Q3": "fig14c", "Q10": "fig14d"}
    series = {"MPI": [], "MESQ/SR": []}
    if query == "Q4":
        series["local data"] = []
    for nodes in node_counts:
        sf = scale_factor_per_node * nodes
        data = generate(sf, nodes, seed=42)
        for design in ("MPI", "MESQ/SR"):
            cluster = Cluster(ClusterConfig(network=EDR, num_nodes=nodes,
                                            threads_per_node=threads))
            res = run_query(cluster, query, data, design=design)
            series[design].append(res.response_time_ms())
        if query == "Q4":
            local = generate(sf, nodes, seed=42, copartition=True)
            cluster = Cluster(ClusterConfig(network=EDR, num_nodes=nodes,
                                            threads_per_node=threads))
            res = run_query(cluster, "Q4", local, design="MESQ/SR",
                            local_data=True)
            series["local data"].append(res.response_time_ms())
    return ExperimentResult(
        experiment=labels[query],
        title=f"TPC-H {query} response time, EDR, DB grows with cluster",
        x_label="nodes", x=list(node_counts),
        y_label="response time (ms)",
        series=[Series(k, v) for k, v in series.items()],
        notes=f"SF = {scale_factor_per_node} per node (scaled-down "
              "stand-in for the paper's 100 GiB per node)",
    )


# -- Ablation: trunk oversubscription --------------------------------------------------


def abl_oversub(network: NetworkConfig = EDR, nodes: int = 8,
                nodes_per_leaf: int = 4,
                factors: Sequence[int] = (1, 2, 4),
                designs: Sequence[str] = ("MESQ/SR", "MEMQ/SR"),
                scale: float = 1.0) -> ExperimentResult:
    """Repartition throughput vs leaf-spine trunk oversubscription.

    The paper's single-switch platform (§5) cannot exhibit cross-rack
    contention; this ablation re-runs the fig10 repartition workload on
    a two-tier leaf-spine fabric and sweeps the trunk oversubscription
    factor k.  At k:1 each leaf's uplink/downlink runs at
    ``nodes_per_leaf * link_rate / k``, so with uniform repartition
    traffic — a fraction (n - m)/(n - 1) of every byte crosses the
    spine — the trunks saturate once k exceeds roughly the inverse of
    that fraction, and throughput collapses no matter how good the
    NIC-level shuffle design is.  The per-switch-port utilization in
    the notes (and in ``--metrics`` snapshots) attributes the collapse
    to the trunk pipes directly.
    """
    series = []
    trunk_notes = []
    for design in designs:
        ys = []
        for k in factors:
            topology = LEAF_SPINE(oversubscription=k,
                                  nodes_per_leaf=nodes_per_leaf)
            cluster = Cluster(ClusterConfig(network=network,
                                            num_nodes=nodes,
                                            topology=topology))
            result = run_repartition(
                cluster, design,
                bytes_per_node=_volume(design, scale, nodes))
            ys.append(result.receive_throughput_gib_per_node())
            if design == designs[0]:
                trunk_notes.append(
                    f"{k}:1 peak trunk util "
                    f"{100.0 * _peak_trunk_util(cluster, result):.0f}%")
        series.append(Series(design, ys))
    return ExperimentResult(
        experiment=f"abl-oversub-{network.name}",
        title=f"Trunk oversubscription ({network.name}, {nodes} nodes, "
              f"{nodes_per_leaf}/leaf)",
        x_label="oversubscription (k:1)", x=list(factors),
        y_label="receive throughput per node (GiB/s)", series=series,
        notes=f"leaf-spine, {designs[0]}: " + ", ".join(trunk_notes),
    )


# -- Ablation: adaptive policy vs the static grid --------------------------------------


#: the measurement grid the AdaptivePolicy rule table is judged on: one
#: point per regime of the fig8–fig11 sweeps (label, network, nodes,
#: config).  ``None`` config = the workload defaults.
_ADAPTIVE_GRID = [
    ("fig8-edr-f1", EDR, 8,
     EndpointConfig(buffers_per_connection=16, credit_frequency=1,
                    ud_window_factor=1)),
    ("fig8-fdr-f16", FDR, 8,
     EndpointConfig(buffers_per_connection=16, credit_frequency=16,
                    ud_window_factor=1)),
    ("fig9-4k", EDR, 8, EndpointConfig(message_size=4 << 10)),
    ("fig9-1m", EDR, 8, EndpointConfig(message_size=1 << 20)),
    ("fig10-edr-n8", EDR, 8, None),
    ("fig10-fdr-n16", FDR, 16, None),
    ("fig11-edr-n16", EDR, 16, None),
]


def abl_adaptive(scale: float = 1.0, nodes: Optional[int] = None,
                 policy: str = "adaptive",
                 designs: Sequence[str] = PAPER_ORDER) -> ExperimentResult:
    """Adaptive design selection vs the static grid (the policy ablation).

    Re-runs one repartition point from each regime of the fig8–fig11
    measurement grid with every static design plus the ``--policy``
    selection, and reports the adaptive pick's throughput gap to the
    best static design at that point.  The acceptance bar is a gap
    within 5% everywhere: the rule table (see
    :class:`repro.core.policy.AdaptivePolicy`) must never leave a
    regime's winning design on the table.

    The policy plans against the same context the run uses, so the
    adaptive series *is* a normal planned run — including the clamp
    path — not a post-hoc argmax over the static series.
    """
    names, best_ys, policy_ys, notes = [], [], [], []
    for label, network, default_n, cfg in _ADAPTIVE_GRID:
        n = _n(nodes, default_n)
        best_design, best_y = "", 0.0
        for design in designs:
            y = _throughput(network, design, n, "repartition", scale,
                            config=cfg)
            if y > best_y:
                best_design, best_y = design, y
        pol = parse_policy(policy)
        cluster = Cluster(ClusterConfig(network=network, num_nodes=n))
        # Pre-plan with the RC-class volume to pick the run's volume;
        # the runner re-plans with the chosen design's own volume (the
        # starved-window rule keeps the two picks consistent).
        plan = pol.plan(StageContext.from_cluster(
            cluster, config=cfg,
            bytes_per_node=_volume("SEMQ/SR", scale, n)))
        result = run_repartition(
            cluster, pol,
            bytes_per_node=_volume(plan.design.name, scale, n),
            config=cfg)
        pol_y = result.receive_throughput_gib_per_node()
        cluster.dispose()
        gap = 100.0 * (best_y - pol_y) / max(1e-9, best_y)
        names.append(label)
        best_ys.append(best_y)
        policy_ys.append(pol_y)
        notes.append(f"{label}: {result.design} vs best {best_design} "
                     f"(gap {gap:+.1f}%)")
    return ExperimentResult(
        experiment="abl-adaptive",
        title=f"Adaptive policy vs static grid ({policy})",
        x_label="grid point", x=names,
        y_label="receive throughput per node (GiB/s)",
        series=[Series("best static", best_ys),
                Series(policy, policy_ys)],
        notes="; ".join(notes),
    )


def abl_hierarchical(network: NetworkConfig = EDR, nodes: int = 8,
                     nodes_per_leaf: int = 4, oversubscription: int = 4,
                     scale: float = 1.0) -> ExperimentResult:
    """Two-phase shuffle vs the flat design on an oversubscribed fabric.

    Runs the abl-oversub repartition point at the mesoscale per-node
    state budget (4 KiB UD messages, double buffering, no deep UD
    window — the fig10-scaleout configuration, which is how a
    leaf-spine fabric is actually operated) three ways: the flat UD
    design on a 1:1 fabric, the same on a ``oversubscription``:1
    fabric, and the :class:`~repro.core.policy.HierarchicalPolicy`
    two-phase plan on the constrained fabric.

    The notes decompose the flat design's oversubscription loss into
    the bisection-bound part — per-node throughput can never exceed
    ``link_rate * n / (k * (n - m))``, no matter the shuffle design
    (EXPERIMENTS.md, abl-oversub) — and the recoverable scheduling
    part, and report how much of each the two-phase plan wins back.
    """
    cfg = EndpointConfig(message_size=4096, buffers_per_connection=2,
                         credit_frequency=2, ud_window_factor=1)
    volume = max(2 * MIB, int(24 * MIB * scale))

    def point(design, factor):
        topology = LEAF_SPINE(oversubscription=factor,
                              nodes_per_leaf=nodes_per_leaf)
        cluster = Cluster(ClusterConfig(network=network, num_nodes=nodes,
                                        topology=topology))
        result = run_repartition(cluster, design, bytes_per_node=volume,
                                 config=cfg)
        trunk = _peak_trunk_util(cluster, result)
        cluster.dispose()
        return (result.design, result.receive_throughput_gib_per_node(),
                100.0 * trunk)

    flat1 = point("MESQ/SR", 1)
    flat_k = point("MESQ/SR", oversubscription)
    hier = point(HierarchicalPolicy(), oversubscription)

    # The bisection bound: every byte for a remote leaf crosses one
    # trunk of rate m*link/k shared by the leaf's m senders.
    remote = nodes - nodes_per_leaf
    ceiling = (network.link_bytes_per_ns * nodes /
               (oversubscription * remote)) / (1 << 30) * 1e9
    loss = max(1e-9, flat1[1] - flat_k[1])
    recoverable = max(0.0, min(ceiling, flat1[1]) - flat_k[1])
    won = hier[1] - flat_k[1]
    labels = ["flat 1:1", f"flat {oversubscription}:1",
              f"hier {oversubscription}:1"]
    return ExperimentResult(
        experiment=f"abl-hierarchical-{network.name}",
        title=f"Two-phase shuffle under {oversubscription}:1 "
              f"oversubscription ({network.name}, {nodes} nodes, "
              f"{nodes_per_leaf}/leaf)",
        x_label="configuration", x=labels,
        y_label="receive throughput per node (GiB/s)",
        series=[Series("throughput", [flat1[1], flat_k[1], hier[1]]),
                Series("peak trunk util %", [flat1[2], flat_k[2],
                                             hier[2]])],
        notes=(f"{hier[0]}; bisection ceiling {ceiling:.2f} GiB/s; "
               f"flat loss {loss:.2f} GiB/s of which "
               f"{recoverable:.2f} recoverable; two-phase wins back "
               f"{100.0 * won / loss:.0f}% of the loss "
               f"({100.0 * won / max(1e-9, recoverable):.0f}% of the "
               f"recoverable part)"),
    )


# -- Multi-tenant service ablation ----------------------------------------------------


def _svc_run(network: NetworkConfig, nodes: int, threads: int,
             specs, quota_caps, seed: int, qp_cache_entries: int):
    """One service run; returns the per-tenant rollup."""
    # Imported lazily: the service layer sits above bench's usual deps.
    from repro.service import (
        FairSharePolicy,
        QuotaManager,
        ServiceConfig,
        ShuffleService,
    )
    config = ClusterConfig(
        network=network, num_nodes=nodes, threads_per_node=threads,
        seed=seed).with_network(qp_cache_entries=qp_cache_entries)
    cluster = Cluster(config)
    quotas = None
    if quota_caps:
        quotas = QuotaManager()
        for tenant, max_qps in quota_caps.items():
            quotas.set_quota(tenant, max_qps=max_qps)
    service = ShuffleService(
        cluster, specs, policy=FairSharePolicy(), quotas=quotas,
        config=ServiceConfig(max_concurrent=len(specs) + 1, seed=seed))
    report = service.run()
    cluster.dispose()
    return report["tenants"]


def svc_tenants(network: NetworkConfig = FDR, nodes: int = 8,
                tenants: int = 3, threads: int = 4, scale: float = 1.0,
                load_factors: Sequence[float] = (0.5, 1.0, 2.0),
                qp_cache_entries: int = 64,
                seed: int = 1) -> ExperimentResult:
    """Isolation vs sharing on one fabric (the service-shape ablation).

    A MESQ/SR *victim* tenant shares the cluster with ``tenants - 1``
    MQ-style *aggressors* (MEMQ/SR, one endpoint per thread): each
    aggressor job creates O(n*t) Queue Pairs that thrash the NIC's
    QP-context cache — the Fig 10/11 degradation mechanism, now
    cross-tenant.  The x axis scales the tenants' open-loop offered
    load; for every point the victim's p50/p99 job latency is measured
    three ways: running *solo*, *shared* with the aggressors, and
    shared with per-tenant QP quotas that clamp each aggressor to a
    single-endpoint footprint.

    Runs on the FDR-era NIC with its context cache shrunk to
    ``qp_cache_entries`` so the simulated working set (n=8 rather than
    the paper's 16+ nodes) still overflows it, like the real 144-entry
    ConnectX-3 cache does at scale.
    """
    from repro.service import estimate_footprint

    victim = "tenant-a"
    aggressors = [f"tenant-{chr(ord('b') + i)}" for i in range(tenants - 1)]
    bytes_per_job = max(2 * MIB, int(8 * MIB * scale))
    jobs = 4 if scale >= 0.25 else 2
    base_gap_ns = 30_000_000

    def specs_for(names_designs, gap_ns):
        from repro.service import TenantSpec
        return [
            TenantSpec(name=name, design=design,
                       bytes_per_job=bytes_per_job,
                       mean_interarrival_ns=gap_ns, jobs=jobs)
            for name, design in names_designs
        ]

    aggressor_cap = estimate_footprint(
        "MEMQ/SR", nodes, threads, num_endpoints=1).qps

    labels = {}
    for mode in ("solo", "shared", "quota"):
        for q in ("p50", "p99"):
            labels[(mode, "victim", q)] = []
        if mode != "solo":
            labels[(mode, "aggressor", "p99")] = []
    miss_notes = []

    for factor in load_factors:
        gap_ns = max(1, int(base_gap_ns / factor))
        solo = _svc_run(network, nodes, threads,
                        specs_for([(victim, "MESQ/SR")], gap_ns),
                        None, seed, qp_cache_entries)
        mixed = [(victim, "MESQ/SR")] + [(a, "MEMQ/SR") for a in aggressors]
        shared = _svc_run(network, nodes, threads,
                          specs_for(mixed, gap_ns),
                          None, seed, qp_cache_entries)
        quota = _svc_run(network, nodes, threads,
                         specs_for(mixed, gap_ns),
                         {a: aggressor_cap for a in aggressors},
                         seed, qp_cache_entries)
        for mode, rollup in (("solo", solo), ("shared", shared),
                             ("quota", quota)):
            lat = rollup[victim]["latency_ns"]
            for q in ("p50", "p99"):
                labels[(mode, "victim", q)].append(
                    lat.get(q, 0.0) / 1e6)
            if mode != "solo":
                worst = max(
                    rollup[a]["latency_ns"].get("p99", 0.0)
                    for a in aggressors)
                labels[(mode, "aggressor", "p99")].append(worst / 1e6)
        if factor == load_factors[-1]:
            shared_deg = (labels[("shared", "victim", "p99")][-1] /
                          max(1e-9, labels[("solo", "victim", "p99")][-1]))
            quota_deg = (labels[("quota", "victim", "p99")][-1] /
                         max(1e-9, labels[("solo", "victim", "p99")][-1]))
            shared_misses = sum(
                shared[a]["qp_cache_misses"] for a in aggressors)
            quota_misses = sum(
                quota[a]["qp_cache_misses"] for a in aggressors)
            miss_notes.append(
                f"victim p99 degradation at load x{factor:g}: "
                f"{shared_deg:.2f}x shared, {quota_deg:.2f}x with quotas; "
                f"aggressor cache misses {shared_misses} -> {quota_misses}")

    series = [
        Series("victim p50 (solo)", labels[("solo", "victim", "p50")]),
        Series("victim p99 (solo)", labels[("solo", "victim", "p99")]),
        Series("victim p50 (shared)", labels[("shared", "victim", "p50")]),
        Series("victim p99 (shared)", labels[("shared", "victim", "p99")]),
        Series("victim p50 (quota)", labels[("quota", "victim", "p50")]),
        Series("victim p99 (quota)", labels[("quota", "victim", "p99")]),
        Series("aggressor p99 (shared)",
               labels[("shared", "aggressor", "p99")]),
        Series("aggressor p99 (quota)",
               labels[("quota", "aggressor", "p99")]),
    ]
    return ExperimentResult(
        experiment=f"svc-tenants-{network.name}",
        title=f"Tenant isolation vs sharing ({network.name}, {nodes} "
              f"nodes, {tenants} tenants, {qp_cache_entries}-entry QP "
              "cache)",
        x_label="offered load (x base rate)", x=list(load_factors),
        y_label="job latency (ms)", series=series,
        notes=f"MESQ/SR victim + {tenants - 1}x MEMQ/SR aggressors, "
              f"fair-share, {jobs} jobs/tenant; " + "; ".join(miss_notes),
    )


# -- Table 1 ---------------------------------------------------------------------------


def table1(nodes: int = 16, threads: int = 8) -> ExperimentResult:
    """Table 1: the design-property matrix, including live QP counts."""
    rows = design_properties(nodes, threads)
    return ExperimentResult(
        experiment="table1",
        title=f"Design alternatives (n={nodes} nodes, t={threads} threads)",
        x_label="design", x=[r["design"] for r in rows],
        y_label="properties",
        series=[
            Series("QPs/op", [r["qps_per_operator"] for r in rows]),
            Series("connections", [r["open_connections"] for r in rows]),
            Series("contention", [r["thread_contention"] for r in rows]),
            Series("resources", [r["resource_consumption"] for r in rows]),
        ],
    )


def _n(nodes: Optional[int], default: int) -> int:
    """The ``--nodes`` override for fixed-size experiments."""
    return default if nodes is None else nodes


def _counts(nodes: Optional[int],
            default: Sequence[int]) -> Sequence[int]:
    """The ``--nodes`` override for node-count sweeps: collapse the sweep
    to the one requested size."""
    return default if nodes is None else (nodes,)


def _scaleout_counts(nodes: Optional[int]) -> Sequence[int]:
    """``--nodes N`` truncates the mesoscale sweep at N (the CI smoke job
    runs ``fig10-scaleout --nodes 128``); an off-grid N runs alone."""
    if nodes is None:
        return SCALEOUT_COUNTS
    kept = tuple(c for c in SCALEOUT_COUNTS if c <= nodes)
    return kept if kept and kept[-1] == nodes else (nodes,)


#: experiment registry for the CLI.  Every entry takes ``scale`` and the
#: ``--nodes`` override (``None`` = each experiment's paper default).
ALL_EXPERIMENTS = {
    "fig8": lambda scale=1.0, nodes=None: [
        fig8(EDR, nodes=_n(nodes, 8), scale=scale),
        fig8(FDR, nodes=_n(nodes, 8), scale=scale)],
    "fig9": lambda scale=1.0, nodes=None: list(
        fig9(nodes=_n(nodes, 8), scale=scale)),
    "fig10": lambda scale=1.0, nodes=None: fig10(
        node_counts=_counts(nodes, (2, 4, 8, 16)), scale=scale),
    "fig10-scaleout": lambda scale=1.0, nodes=None: [fig10_scaleout(
        node_counts=_scaleout_counts(nodes), scale=scale)],
    "fig11": lambda scale=1.0, nodes=None: [
        fig11(nodes=_n(nodes, 16), scale=scale)],
    "fig12": lambda scale=1.0, nodes=None: [fig12(
        node_counts=_counts(nodes, (2, 4, 6, 8, 10, 12, 14, 16)))],
    "fig13": lambda scale=1.0, nodes=None: [
        fig13(nodes=_n(nodes, 8), scale=scale)],
    "fig14a": lambda scale=1.0, nodes=None: [fig14a(
        scale_factor=0.06 * scale, nodes=_n(nodes, 8))],
    "fig14b": lambda scale=1.0, nodes=None: [fig14_scaling(
        "Q4", scale_factor_per_node=0.0075 * scale,
        node_counts=_counts(nodes, (2, 4, 8, 16)))],
    "fig14c": lambda scale=1.0, nodes=None: [fig14_scaling(
        "Q3", scale_factor_per_node=0.0075 * scale,
        node_counts=_counts(nodes, (2, 4, 8, 16)))],
    "fig14d": lambda scale=1.0, nodes=None: [fig14_scaling(
        "Q10", scale_factor_per_node=0.0075 * scale,
        node_counts=_counts(nodes, (2, 4, 8, 16)))],
    "table1": lambda scale=1.0, nodes=None: [table1(nodes=_n(nodes, 16))],
    "abl-oversub": lambda scale=1.0, nodes=None: [abl_oversub(
        nodes=_n(nodes, 8), scale=scale)],
    "abl-adaptive": lambda scale=1.0, nodes=None, policy="adaptive": [
        abl_adaptive(scale=scale, nodes=nodes, policy=policy),
        abl_hierarchical(nodes=_n(nodes, 8), scale=scale)],
    "svc-tenants": lambda scale=1.0, nodes=None, tenants=3: [svc_tenants(
        nodes=_n(nodes, 8), tenants=tenants, scale=scale)],
}
