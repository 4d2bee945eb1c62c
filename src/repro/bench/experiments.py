"""Drivers that regenerate every table and figure of the evaluation (§5).

The evaluation is one experiment repeated — build a cluster, shuffle R
under one design, read one number — swept over a row axis and an x axis,
and so is this module: :func:`measure` runs one :class:`Point` (the only
place a shuffle experiment builds a cluster), :func:`sweep` runs a
rows × x grid of them into a :class:`Grid`, and each ``figN`` function
is what is specific to its figure — rows, x axis, point, metric, title
and notes — returning the same x-axis and series the paper plots.
Every figure function has the registry's one call shape,
``figN(opts, nodes)``, and :data:`ALL_EXPERIMENTS` registers them for
the CLI; what the paper claims about their results is the table in
:mod:`repro.bench.claims`.

``opts.scale`` shrinks transfer volumes for quick runs (the claims
scorecard checks most entries at 0.2); the shapes are volume-independent
once past warmup.  Simulated volumes are far below the paper's 160 GiB
per node — throughput is steady-state within tens of MiB — and TPC-H
scale factors are reduced proportionally; EXPERIMENTS.md records the
paper-vs-measured comparison.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from operator import attrgetter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.baselines.qperf import run_qperf
from repro.bench.report import ExperimentResult, Series
from repro.bench.workloads import (
    run_broadcast,
    run_hierarchical,
    run_repartition,
)
from repro.checks import count, non_negative, one_of, positive, validate
from repro.cluster import Cluster
from repro.core.designs import PAPER_ORDER, design_properties
from repro.core.endpoint import EndpointConfig
from repro.core.groups import TransmissionGroups
from repro.core.policy import StageContext, parse_policy, resolve_plan
from repro.fabric.config import (
    EDR,
    FDR,
    LEAF_SPINE,
    SINGLE_SWITCH,
    ClusterConfig,
    NetworkConfig,
    TopologySpec,
)
from repro.service import (
    FairSharePolicy,
    QuotaManager,
    ServiceConfig,
    ShuffleService,
    TenantSpec,
    estimate_footprint,
)
from repro.telemetry import nic_cache_stats
from repro.tpch import generate, run_query

__all__ = [
    "Options", "Point", "Measurement", "measure", "Grid", "sweep",
    "fig8", "fig9", "fig10", "fig10_scaleout", "fig11", "fig12",
    "setup_crossover", "fig13", "fig14a", "fig14_scaling", "table1",
    "abl_oversub", "abl_adaptive", "abl_hierarchical", "abl_buffer_depth",
    "abl_qp_cache", "ext_multicast", "ext_write", "svc_tenants",
    "Entry", "FIXED", "COLLAPSE", "TRUNCATE", "ALL_EXPERIMENTS",
]

MIB = 1 << 20

Y_THROUGHPUT = "receive throughput per node (GiB/s)"
_GIB_S = attrgetter("gib_s")
TRUNK_UTIL = "peak trunk util %"


def _trunk_util_pct(m: Measurement) -> float:
    return 100.0 * m.peak_trunk_util


@dataclass(frozen=True)
class Options:
    """What the CLI knows; every figure function is called with one."""

    scale: float = positive(default=1.0)
    #: the ``--nodes`` override (``None``: each entry's paper default).
    nodes: Optional[int] = count(1, default=None)
    #: a victim and at least one aggressor.
    tenants: int = count(2, default=3)
    policy: str = "adaptive"

    def __post_init__(self):
        validate(self)
        parse_policy(self.policy)  # static:<DESIGN> is no fixed choice set


# -- one point ------------------------------------------------------------------------


#: the runner behind each ``Point.pattern``.
RUNNERS = {"repartition": run_repartition, "broadcast": run_broadcast,
           "hierarchical": run_hierarchical}


@dataclass(frozen=True)
class Point:
    """Everything that varies between two shuffle measurements."""

    #: a design name or the adaptive policy (anything ``run_repartition``
    #: accepts); for the ``hierarchical`` pattern, the intra-leaf design.
    design: Any
    #: bytes per node; or, for a run sized by what a policy picks, a
    #: function of the built cluster (abl-adaptive).
    volume: Union[int, Callable[[Cluster], int]] = count(1, default=0)
    network: NetworkConfig = EDR
    nodes: int = count(1, default=8)
    #: 0: the network's cores per node.
    threads: int = count(0, default=0)
    topology: TopologySpec = SINGLE_SWITCH
    #: run every NIC with an unbounded QP-context cache (abl-qp-cache).
    disable_qp_cache: bool = False
    #: ``repartition``, ``broadcast`` or ``hierarchical`` (the two-phase
    #: leaf-spine repartition of :func:`run_hierarchical`).
    pattern: str = one_of(*RUNNERS, default="repartition")
    config: Optional[EndpointConfig] = None
    num_endpoints: Optional[int] = count(1, default=None)
    compute_ns_per_batch: float = non_negative(default=0.0)
    #: build the stage's connections and stop (fig12).
    setup_only: bool = False

    def __post_init__(self):
        # A callable volume sizes its own run; a setup-only point sends none.
        validate(self, skip=("volume",) if callable(self.volume)
                 or self.setup_only else ())
        if self.pattern == "hierarchical" and self.num_endpoints is not None:
            raise ValueError("num_endpoints must be None for the "
                             "hierarchical pattern: its stages run their "
                             "designs' natural endpoint counts")


@dataclass(frozen=True)
class Measurement:
    """Everything any figure reads from one shuffle run."""

    gib_s: float = 0.0
    registered_mib: float = 0.0
    #: receiving threads' share of time not blocked on data (Fig 13).
    busy_pct: float = 0.0
    #: sender time stalled for credit, summed over all threads.
    credit_stall_ms: float = 0.0
    #: the slowest node's connection build time.
    setup_ns: int = 0
    #: the design label of what actually ran (``ShuffleRunResult.design``).
    plan: str = ""
    #: peak switch-trunk utilization (0..1) over the transfer window.
    peak_trunk_util: float = 0.0
    qp_miss_rate: float = 0.0
    pcie_stall_ms: float = 0.0
    #: bytes that left all NICs.
    egress_bytes: float = 0


@contextmanager
def _gc_paused():
    """Pause the cyclic collector around one point.

    ``Simulator._drain`` pauses it for the run itself; this covers what
    surrounds the drains — ``Cluster(...)``, stage construction, harvest
    and teardown.  A 1024-node cluster holds millions of live objects,
    and a pass that starts while it is being built, or the young pass
    that falls due when a drain re-enables the collector, traverses all
    of them to free nothing (~2x wall-clock at 256 nodes, worse beyond).
    Nothing is collected on exit: a run creates no cycles and
    ``Cluster.dispose()`` leaves none (tests/test_collector_free.py), so
    reference counting has freed the cluster when measure() returns.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@_gc_paused()
def measure(point: Point) -> Measurement:
    """Build one cluster, run one shuffle point on it, harvest, dispose.

    The only place an experiment builds a cluster for a shuffle point.
    """
    cluster = Cluster(ClusterConfig(
        network=point.network, num_nodes=point.nodes,
        threads_per_node=point.threads, topology=point.topology))
    if point.disable_qp_cache:
        for node in cluster.nodes:
            node.nic.disable_qp_cache = True
    if point.setup_only:
        stage = cluster.shuffle_stage(
            point.design, TransmissionGroups.repartition(point.nodes))
        cluster.run_process(stage.setup())
        measurement = Measurement(setup_ns=stage.max_setup_ns)
    else:
        volume = point.volume
        if callable(volume):
            volume = volume(cluster)
        counts = ({} if point.num_endpoints is None
                  else {"num_endpoints": point.num_endpoints})
        result = RUNNERS[point.pattern](
            cluster, point.design, bytes_per_node=volume,
            config=point.config,
            compute_ns_per_batch=point.compute_ns_per_batch, **counts)
        cache = nic_cache_stats(cluster)
        measurement = Measurement(
            gib_s=result.receive_throughput_gib_per_node(),
            registered_mib=result.registered_bytes_per_node / MIB,
            busy_pct=100.0 * result.receiver_busy_fraction(),
            credit_stall_ms=result.send_credit_wait_ns / 1e6,
            setup_ns=result.setup_ns,
            plan=result.design,
            # Setup excluded: trunk ports only carry shuffle data.
            peak_trunk_util=cluster.fabric.topology.peak_utilization(
                result.elapsed_ns),
            qp_miss_rate=cache["miss_rate"],
            pcie_stall_ms=cache["pcie_stall_ns"] / 1e6,
            egress_bytes=sum(n.nic.egress.total_units
                             for n in cluster.nodes),
        )
    cluster.dispose()
    return measurement


# -- one grid -------------------------------------------------------------------------


@dataclass
class Grid:
    """The raw records of one rows × x sweep; tables are derived from it."""

    rows: Tuple[Any, ...]
    xs: Tuple[Any, ...]
    #: ``(row, x)`` -> record; a missing or ``None`` cell renders as "-".
    cells: Dict[Tuple[Any, Any], Any]

    def row(self, row: Any) -> List[Any]:
        """One row's records along the x axis."""
        return [self.cells.get((row, x)) for x in self.xs]

    def series(self, row: Any, metric: Callable[[Any], Any],
               label: Optional[str] = None) -> Series:
        return Series(str(row) if label is None else label,
                      [None if record is None else metric(record)
                       for record in self.row(row)])

    def table(self, metric: Callable[[Any], Any],
              **fields: Any) -> ExperimentResult:
        """One series per row, every cell reduced by ``metric``."""
        return ExperimentResult(
            x=list(self.xs),
            series=[self.series(row, metric) for row in self.rows],
            **fields)


def sweep(rows: Sequence[Any], xs: Sequence[Any],
          point: Callable[[Any, Any], Any], x_major: bool = False,
          run: Callable[[Any], Any] = measure) -> Grid:
    """Run ``run(point(row, x))`` for every cell of the rows × x grid.

    ``point`` returning ``None`` skips the cell.  Cells run row by row,
    or column by column with ``x_major``: every cell is an independent
    deterministic simulation, so the order shows only in the order of
    runs in ``--metrics`` / ``--report`` / ``--trace`` documents, which
    stays what each figure has always produced.
    """
    rows, xs = tuple(rows), tuple(xs)
    order = ([(row, x) for x in xs for row in rows] if x_major
             else [(row, x) for row in rows for x in xs])
    cells = {}
    for row, x in order:
        p = point(row, x)
        cells[row, x] = None if p is None else run(p)
    return Grid(rows, xs, cells)


def _scaled(mib: int, scale: float) -> int:
    """``mib`` MiB at full scale, floored at 2 MiB so warmup never
    dominates a quick run."""
    return max(2 * MIB, int(mib * MIB * scale))


def _volume(design: str, scale: float, nodes: int = 8,
            pattern: str = "repartition") -> int:
    """Per-node transfer volume: UD datagrams and the baselines' per-packet
    models cost more host time per byte than the MQ designs' RC messages."""
    base = int((72 if "MQ/" in design else 24) * MIB * scale)
    if pattern == "broadcast":
        base = base // max(1, nodes - 1)
    return max(2 * MIB, base)


def _mesoscale_config(message_size: int) -> EndpointConfig:
    """The per-node state budget a leaf-spine fabric is operated at:
    double buffering, credit every other receive, no deep UD window."""
    # ud_window_factor=1: at mesoscale fan-out each link carries ~1
    # message per batch, so the deep UD byte window of §5.1.1 buys
    # nothing and costs O(n^2) receive buffers cluster-wide.
    return EndpointConfig(message_size=message_size,
                          buffers_per_connection=2, credit_frequency=2,
                          ud_window_factor=1)


# -- Figure 8: credit write-back frequency ------------------------------------------


def _fig8_config(frequency: int) -> EndpointConfig:
    """§5.1.1's setup: 16 RDMA buffers per remote node per thread."""
    return EndpointConfig(buffers_per_connection=16,
                          credit_frequency=frequency, ud_window_factor=1)


FIG8_FREQUENCIES = (1, 2, 3, 4, 8, 16)


def _fig8_panel(network: NetworkConfig, nodes: int,
                scale: float) -> ExperimentResult:
    result = sweep(
        ["SEMQ/SR", "MEMQ/SR", "SESQ/SR", "MESQ/SR"], FIG8_FREQUENCIES,
        lambda design, freq: Point(
            design, _volume(design, scale, nodes), network, nodes,
            config=_fig8_config(freq)),
    ).table(
        _GIB_S, experiment=f"fig8-{network.name}",
        title=f"Credit write-back frequency, {network.name} "
              f"({nodes} nodes)",
        x_label="credit update frequency", y_label=Y_THROUGHPUT,
        notes="16 buffers per remote node per thread (§5.1.1)")
    mpi = measure(Point("MPI", _volume("MPI", scale, nodes), network, nodes))
    flat = len(FIG8_FREQUENCIES)
    result.series.append(Series("MPI", [mpi.gib_s] * flat))
    result.series.append(Series("qperf", [run_qperf(network)] * flat))
    return result


def fig8(opts: Options, nodes: int) -> List[ExperimentResult]:
    """Fig 8(a,b): flow-control overhead of the Send/Receive designs.

    Matches §5.1.1's setup: 16 RDMA buffers per remote node per thread;
    the x axis is how many Receives the receiver posts before writing
    credit back.
    """
    return [_fig8_panel(network, nodes, opts.scale)
            for network in (EDR, FDR)]


# -- Figure 9: message size (throughput + pinned memory) ------------------------------


FIG9_SIZES = (4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20)


def fig9(opts: Options,
         nodes: int) -> Tuple[ExperimentResult, ExperimentResult]:
    """Fig 9(a,b): RC message size vs throughput and registered memory."""
    grid = sweep(
        PAPER_ORDER, FIG9_SIZES,
        lambda design, size: Point(
            design, _volume(design, opts.scale, nodes), nodes=nodes,
            config=EndpointConfig(message_size=size)),
        x_major=True)
    thr = grid.table(
        _GIB_S, experiment="fig9a-EDR",
        title="Effect of message size (EDR): throughput",
        x_label="message size (B)", y_label=Y_THROUGHPUT,
        notes="UD designs are pinned at the 4 KiB MTU regardless of the "
              "requested size (§2.2.2)")
    mem = grid.table(
        attrgetter("registered_mib"), experiment="fig9b-EDR",
        title="Effect of message size (EDR): pinned memory",
        x_label="message size (B)",
        y_label="registered memory per node (MiB)",
        notes="double buffering per thread per destination (§5.1.2)")
    return thr, mem


# -- Figure 10: throughput when scaling out --------------------------------------------


FIG10_PANELS = {("FDR", "repartition"): "fig10a",
                ("FDR", "broadcast"): "fig10b",
                ("EDR", "repartition"): "fig10c",
                ("EDR", "broadcast"): "fig10d"}


def _fig10_panel(network: NetworkConfig, pattern: str,
                 node_counts: Sequence[int],
                 scale: float) -> ExperimentResult:
    result = sweep(
        PAPER_ORDER + ["MPI", "IPoIB"], node_counts,
        lambda design, n: Point(
            design, _volume(design, scale, n, pattern), network, n,
            pattern=pattern),
    ).table(
        _GIB_S, experiment=FIG10_PANELS[network.name, pattern],
        title=f"{pattern.capitalize()} throughput, "
              f"{network.name} InfiniBand",
        x_label="nodes", y_label=Y_THROUGHPUT)
    if pattern == "repartition":  # qperf has no broadcast mode
        result.series.append(
            Series("qperf", [run_qperf(network)] * len(node_counts)))
    return result


def fig10(opts: Options,
          node_counts: Sequence[int]) -> List[ExperimentResult]:
    """Fig 10(a-d): repartition and broadcast throughput vs cluster size."""
    return [_fig10_panel(network, pattern, node_counts, opts.scale)
            for network in (FDR, EDR)
            for pattern in ("repartition", "broadcast")]


# -- Mesoscale scale-out: 64..1024 nodes on leaf-spine --------------------------------


#: default node counts for the mesoscale sweep.
SCALEOUT_COUNTS = (64, 128, 256, 512, 1024)

#: largest cluster the MQ design runs at — n QPs per node means n^2
#: connections cluster-wide, so the sweep caps it and reports "-" above.
SCALEOUT_MQ_CAP = 256

#: the two designs that survive Fig 10, SQ first (it runs the full sweep).
SCALEOUT_DESIGNS = ("MESQ/SR", "MEMQ/SR")
SCALEOUT_NODES_PER_LEAF = 32
SCALEOUT_OVERSUBSCRIPTION = 2


def _scaleout_volume(nodes: int, scale: float) -> int:
    """Per-node transfer volume for the mesoscale sweep.

    Decays as n^-2 so per-link work stays roughly constant across the
    sweep: every source batch emits one message per destination, so
    cluster-wide messages grow as nodes^2 x batches and a flat per-node
    volume would explode the 1024-node run.  Floored at one template
    batch (256 KiB) so every destination still receives data.
    """
    return max(256 << 10, int(32 * MIB * scale * (64.0 / nodes) ** 2))


def fig10_scaleout(opts: Options,
                   node_counts: Sequence[int]) -> ExperimentResult:
    """Repartition throughput from 64 to 1024 nodes on a leaf-spine fabric.

    The paper stops at 16 nodes on one switch (Fig 10); this extrapolation
    asks how the two surviving designs behave at mesoscale on a 2:1
    oversubscribed leaf-spine fabric (32 nodes per leaf).  It is the
    flow-level packet-train abstraction that makes the sweep tractable:
    every multi-MTU message crosses each pipe as a single event, so event
    counts scale with messages rather than packets.

    One thread per node and double buffering keep per-node state minimal;
    the MQ design stops at ``SCALEOUT_MQ_CAP`` nodes (n^2 connections
    cluster-wide) while the SQ design runs the full sweep — the paper's
    §5.1.4 argument about QP-context thrash, restated as a scale-out
    feasibility boundary.
    """
    def point(design: str, n: int) -> Optional[Point]:
        if "MQ/" in design and n > SCALEOUT_MQ_CAP:
            return None  # rendered as "-": beyond the MQ cap
        return Point(
            design, _scaleout_volume(n, opts.scale), nodes=n, threads=1,
            topology=LEAF_SPINE(SCALEOUT_OVERSUBSCRIPTION,
                                SCALEOUT_NODES_PER_LEAF),
            config=_mesoscale_config(
                4096 if design.startswith("MESQ") else 65536))

    grid = sweep(SCALEOUT_DESIGNS, node_counts, point)
    first = SCALEOUT_DESIGNS[0]
    trunk_notes = [
        f"n={n} peak trunk util {100.0 * m.peak_trunk_util:.0f}%"
        for n, m in zip(node_counts, grid.row(first))]
    result = grid.table(
        _GIB_S, experiment="fig10-scaleout-EDR",
        title="Mesoscale repartition scale-out (EDR, leaf-spine "
              f"{SCALEOUT_OVERSUBSCRIPTION}:1, "
              f"{SCALEOUT_NODES_PER_LEAF}/leaf)",
        x_label="nodes", y_label=Y_THROUGHPUT,
        notes=f"1 thread/node, double buffering; MQ capped at "
              f"{SCALEOUT_MQ_CAP} nodes; {first}: " + ", ".join(trunk_notes))
    result.series.append(grid.series(first, _trunk_util_pct, TRUNK_UTIL))
    return result


# -- Figure 11: number of Queue Pairs --------------------------------------------------


#: the three endpoint implementations of Fig 11, at their ME extreme.
FIG11_KINDS = {"SQ/SR": "MESQ/SR", "MQ/SR": "MEMQ/SR", "MQ/RD": "MEMQ/RD"}


FIG11_ENDPOINT_COUNTS = (1, 2, 4, 8)


def fig11(opts: Options, nodes: int) -> ExperimentResult:
    """Fig 11: throughput vs Queue Pairs per operator (EDR, 16 nodes).

    The endpoint count k sweeps between the SE (k=1) and ME (k=t)
    extremes; the resulting QPs per operator are k for SQ designs and
    n*k for MQ designs.
    """
    by_k = sweep(
        FIG11_KINDS, FIG11_ENDPOINT_COUNTS,
        lambda kind, k: Point(
            FIG11_KINDS[kind], _volume(FIG11_KINDS[kind], opts.scale, nodes),
            nodes=nodes, num_endpoints=k),
        x_major=True)
    by_qps = {(kind, k if kind == "SQ/SR" else k * nodes): m
              for (kind, k), m in by_k.cells.items()}
    # The degradation mechanism (§5.1.4): once QPs outgrow the NIC's
    # context cache, every work request risks a PCIe round trip.
    cache_note = ", ".join(
        f"{kind} "
        f"{100.0 * by_k.cells[kind, max(FIG11_ENDPOINT_COUNTS)].qp_miss_rate:.0f}%"
        for kind in FIG11_KINDS)
    return Grid(by_k.rows, tuple(sorted({q for _, q in by_qps})),
                by_qps).table(
        _GIB_S, experiment="fig11",
        title=f"Effect of many Queue Pairs (EDR, {nodes} nodes)",
        x_label="QPs per operator", y_label=Y_THROUGHPUT,
        notes="endpoint count sweeps 1..t; QPs = k (SQ) or n*k (MQ); "
              f"QP-cache miss rate at max QPs: {cache_note}")


# -- Figure 12: connection setup cost --------------------------------------------------


def fig12(opts: Options, node_counts: Sequence[int]) -> ExperimentResult:
    """Fig 12: time to build the RDMA connections vs cluster size (no
    data moves, so ``opts.scale`` changes nothing)."""
    return sweep(
        PAPER_ORDER, node_counts,
        lambda design, n: Point(design, nodes=n, setup_only=True),
        x_major=True,
    ).table(
        lambda m: m.setup_ns / 1e6, experiment="fig12",
        title="Time to build RDMA connections (EDR)",
        x_label="nodes", y_label="time (ms)",
        notes="per-node setup: QP creation + handshake + registration; "
              "MQ designs grow linearly, SQ designs stay flat (§5.1.5)")


def setup_crossover(opts: Options, nodes: int) -> ExperimentResult:
    """§5.1.5 claim: the shuffle volume above which MESQ/SR with runtime
    connection setup beats IPoIB (which needs none worth counting)."""
    mesq, ipoib = (
        measure(Point(design, _volume(design, opts.scale, nodes),
                      nodes=nodes))
        for design in ("MESQ/SR", "IPoIB"))
    crossover_mb = None  # MESQ/SR no faster: no volume pays for its setup
    if mesq.gib_s > ipoib.gib_s:
        # volume V satisfying V/ipoib == setup + V/mesq (GiB/s -> MB).
        crossover_mb = 1024.0 * (mesq.setup_ns / 1e9) / (
            1.0 / ipoib.gib_s - 1.0 / mesq.gib_s)
    return ExperimentResult(
        experiment="setup-crossover",
        title="Shuffle volume that pays for runtime connection setup (EDR)",
        x_label="nodes", x=[nodes],
        y_label="GiB/s | ms | MB",
        series=[Series("MESQ/SR (GiB/s)", [mesq.gib_s]),
                Series("IPoIB (GiB/s)", [ipoib.gib_s]),
                Series("MESQ/SR setup (ms)", [mesq.setup_ns / 1e6]),
                Series("crossover (MB)", [crossover_mb])])


# -- Figure 13: compute-intensive receiving fragment -----------------------------------


FIG13_COMPUTE_US = (0.0, 2.5, 5.0, 10.0, 15.0, 25.0, 40.0)


def fig13(opts: Options, nodes: int) -> ExperimentResult:
    """Fig 13: relative shuffling throughput as the receiving fragment
    becomes compute intensive (batches of 32 KiB, §5.1.6 — RECEIVE's
    ``OUTPUT_BATCH_BYTES``).

    The y-axis is the receiving fragment's busy fraction — the measured
    share of receiver-thread time not blocked waiting for data.  It
    reaches 100% exactly when communication is completely overlapped
    with computation, matching the paper's definition.
    """
    return sweep(
        PAPER_ORDER + ["MPI", "IPoIB"], FIG13_COMPUTE_US,
        lambda design, c_us: Point(
            design, _volume(design, opts.scale, nodes), nodes=nodes,
            compute_ns_per_batch=c_us * 1000.0),
    ).table(
        attrgetter("busy_pct"), experiment="fig13",
        title="Compute-intensive receiving fragment (EDR)",
        x_label="compute per 32KiB batch (us)",
        y_label="relative shuffling throughput (%)",
        notes="100% = communication fully hidden behind computation")


# -- Figure 14: TPC-H ------------------------------------------------------------------


def _tpch_point(query: str, network: NetworkConfig, nodes: int,
                scale_factor: float) -> Dict[str, float]:
    """One TPC-H point: response time (ms) of the MPI and the MESQ/SR
    plan over the same randomly placed database and — for Q4 — of the
    "local data" plan, where co-partitioned tables need no shuffle
    (§5.2.1)."""
    def response_ms(data, design: str, **plan: Any) -> float:
        cluster = Cluster(ClusterConfig(network=network, num_nodes=nodes))
        ms = run_query(cluster, query, data, design=design,
                       **plan).response_time_ms()
        cluster.dispose()
        return ms

    data = generate(scale_factor, nodes, seed=42)
    point = {design: response_ms(data, design)
             for design in ("MPI", "MESQ/SR")}
    if query == "Q4":
        local = generate(scale_factor, nodes, seed=42, copartition=True)
        point["local data"] = response_ms(local, "MESQ/SR", local_data=True)
    return point


def _tpch_table(query: str,
                columns: Dict[Any, Tuple[NetworkConfig, int, float]],
                **fields: Any) -> ExperimentResult:
    """``columns`` maps each x to its (network, nodes, scale factor)."""
    cells = {(label, x): ms
             for x, (network, nodes, scale_factor) in columns.items()
             for label, ms in _tpch_point(query, network, nodes,
                                          scale_factor).items()}
    rows = tuple(dict.fromkeys(label for label, _ in cells))
    return Grid(rows, tuple(columns), cells).table(
        float, y_label="response time (ms)", **fields)


#: TPC-H scale factors at ``scale=1.0``: Fig 14(a)'s database, and the
#: per-node share of Fig 14(b-d)'s, which grows with the cluster.
FIG14A_SCALE_FACTOR = 0.06
FIG14_SCALE_FACTOR_PER_NODE = 0.0075


def fig14a(opts: Options, nodes: int) -> ExperimentResult:
    """Fig 14(a): TPC-H Q4 response time, FDR vs EDR, 8 nodes."""
    scale_factor = FIG14A_SCALE_FACTOR * opts.scale
    return _tpch_table(
        "Q4",
        {network.name: (network, nodes, scale_factor)
         for network in (FDR, EDR)},
        experiment="fig14a",
        title=f"TPC-H Q4 response time, {nodes} nodes, SF={scale_factor}",
        x_label="network")


def fig14_scaling(query: str, opts: Options,
                  node_counts: Sequence[int]) -> ExperimentResult:
    """Fig 14(b,c,d): query response time as the database grows in
    proportion to the cluster (Q4, Q3, Q10)."""
    scale_factor_per_node = FIG14_SCALE_FACTOR_PER_NODE * opts.scale
    return _tpch_table(
        query,
        {nodes: (EDR, nodes, scale_factor_per_node * nodes)
         for nodes in node_counts},
        experiment={"Q4": "fig14b", "Q3": "fig14c", "Q10": "fig14d"}[query],
        title=f"TPC-H {query} response time, EDR, DB grows with cluster",
        x_label="nodes",
        notes=f"SF = {scale_factor_per_node} per node (scaled-down "
              "stand-in for the paper's 100 GiB per node)")


# -- Ablation: trunk oversubscription --------------------------------------------------


OVERSUB_DESIGNS = ("MESQ/SR", "MEMQ/SR")
OVERSUB_FACTORS = (1, 2, 4)
OVERSUB_NODES_PER_LEAF = 4


def abl_oversub(opts: Options, nodes: int) -> ExperimentResult:
    """Repartition throughput vs leaf-spine trunk oversubscription.

    The paper's single-switch platform (§5) cannot exhibit cross-rack
    contention; this ablation re-runs the fig10 repartition workload on
    a two-tier leaf-spine fabric and sweeps the trunk oversubscription
    factor k.  At k:1 each leaf's uplink/downlink runs at
    ``nodes_per_leaf * link_rate / k``, so with uniform repartition
    traffic — a fraction (n - m)/(n - 1) of every byte crosses the
    spine — the trunks saturate once k exceeds roughly the inverse of
    that fraction, and throughput collapses no matter how good the
    NIC-level shuffle design is.  The peak trunk-port utilization
    series (also in ``--metrics`` snapshots) attributes the collapse to
    the trunk pipes directly.
    """
    grid = sweep(
        OVERSUB_DESIGNS, OVERSUB_FACTORS,
        lambda design, k: Point(
            design, _volume(design, opts.scale, nodes), nodes=nodes,
            topology=LEAF_SPINE(k, OVERSUB_NODES_PER_LEAF)))
    first = OVERSUB_DESIGNS[0]
    trunk_notes = [
        f"{k}:1 peak trunk util {100.0 * m.peak_trunk_util:.0f}%"
        for k, m in zip(OVERSUB_FACTORS, grid.row(first))]
    result = grid.table(
        _GIB_S, experiment="abl-oversub-EDR",
        title=f"Trunk oversubscription (EDR, {nodes} nodes, "
              f"{OVERSUB_NODES_PER_LEAF}/leaf)",
        x_label="oversubscription (k:1)", y_label=Y_THROUGHPUT,
        notes=f"leaf-spine, {first}: " + ", ".join(trunk_notes))
    result.series.append(grid.series(first, _trunk_util_pct, TRUNK_UTIL))
    return result


# -- Ablation: adaptive policy vs the static grid --------------------------------------


#: the measurement grid the AdaptivePolicy rule table is judged on: one
#: point per regime of the fig8–fig11 sweeps (label, network, nodes,
#: config).  ``None`` config = the workload defaults.
ADAPTIVE_GRID = [
    ("fig8-edr-f1", EDR, 8, _fig8_config(1)),
    ("fig8-fdr-f16", FDR, 8, _fig8_config(16)),
    ("fig9-4k", EDR, 8, EndpointConfig(message_size=4 << 10)),
    ("fig9-1m", EDR, 8, EndpointConfig(message_size=1 << 20)),
    ("fig10-edr-n8", EDR, 8, None),
    ("fig10-fdr-n16", FDR, 16, None),
    ("fig11-edr-n16", EDR, 16, None),
]


def abl_adaptive(opts: Options, nodes: int) -> List[ExperimentResult]:
    """Adaptive design selection vs the static grid (the policy ablation),
    followed by :func:`abl_hierarchical` at ``nodes``.

    Re-runs one repartition point from each regime of the fig8–fig11
    measurement grid with every static design plus the ``--policy``
    selection, and reports the adaptive pick's throughput gap to the
    best static design at that point.  The acceptance bar is a gap
    within 5% everywhere: the rule table (see
    :class:`repro.core.policy.AdaptivePolicy`) must never leave a
    regime's winning design on the table.

    The policy plans against the same context the run uses, so the
    adaptive series *is* a normal planned run — including the clamp
    path — not a post-hoc argmax over the static series.  The grid
    points have their own cluster sizes, so it is the raw ``--nodes``
    override (``opts.nodes``), when given, that replaces them.
    """
    scale, policy = opts.scale, opts.policy
    regimes = {label: (network, opts.nodes or size, cfg)
               for label, network, size, cfg in ADAPTIVE_GRID}

    def static_point(design: str, label: str) -> Point:
        network, n, cfg = regimes[label]
        return Point(design, _volume(design, scale, n), network, n,
                     config=cfg)

    def policy_point(spec: str, label: str) -> Point:
        network, n, cfg = regimes[label]
        pol = parse_policy(spec)

        def volume(cluster: Cluster) -> int:
            # Pre-plan with the RC-class volume to pick the run's volume;
            # the runner re-plans with the chosen design's own volume (the
            # starved-window rule keeps the two picks consistent).
            plan = resolve_plan(pol, StageContext.from_cluster(
                cluster, config=cfg,
                bytes_per_node=_volume("SEMQ/SR", scale, n)))
            return _volume(plan.design.name, scale, n)

        return Point(pol, volume, network, n, config=cfg)

    static = sweep(PAPER_ORDER, regimes, static_point, x_major=True)
    planned = sweep([policy], regimes, policy_point)
    best_ys, notes = [], []
    for label, run in zip(regimes, planned.row(policy)):
        best = max(PAPER_ORDER,
                   key=lambda d, label=label: static.cells[d, label].gib_s)
        best_y = static.cells[best, label].gib_s
        gap = 100.0 * (best_y - run.gib_s) / max(1e-9, best_y)
        best_ys.append(best_y)
        notes.append(f"{label}: {run.plan} vs best {best} "
                     f"(gap {gap:+.1f}%)")
    return [ExperimentResult(
        experiment="abl-adaptive",
        title=f"Adaptive policy vs static grid ({policy})",
        x_label="grid point", x=list(regimes), y_label=Y_THROUGHPUT,
        series=[Series("best static", best_ys),
                planned.series(policy, _GIB_S)],
        notes="; ".join(notes)), abl_hierarchical(opts, nodes)]


HIER_NODES_PER_LEAF = 4
HIER_OVERSUBSCRIPTION = 4


def abl_hierarchical(opts: Options, nodes: int) -> ExperimentResult:
    """Two-phase shuffle vs the flat design on an oversubscribed fabric.

    Runs the abl-oversub repartition point at the mesoscale per-node
    state budget (4 KiB UD messages, double buffering, no deep UD
    window — the fig10-scaleout configuration, which is how a
    leaf-spine fabric is actually operated) three ways: the flat UD
    design on a 1:1 fabric, the same on a ``HIER_OVERSUBSCRIPTION``:1
    fabric, and the :func:`~repro.bench.workloads.run_hierarchical`
    two-phase shuffle (intra-leaf MESQ/SR) on the constrained fabric.

    The notes decompose the flat design's oversubscription loss into
    the bisection-bound part — per-node throughput can never exceed
    ``link_rate * n / (k * (n - m))``, no matter the shuffle design
    (EXPERIMENTS.md, abl-oversub) — and the recoverable scheduling
    part, and report how much of each the two-phase shuffle wins back.
    It needs more than one leaf (``nodes > HIER_NODES_PER_LEAF``): with
    one there is no inter-leaf traffic to schedule.
    """
    k, per_leaf = HIER_OVERSUBSCRIPTION, HIER_NODES_PER_LEAF
    runs = {"flat 1:1": ("repartition", 1),
            f"flat {k}:1": ("repartition", k),
            f"hier {k}:1": ("hierarchical", k)}

    def point(_row: str, label: str) -> Point:
        pattern, factor = runs[label]
        return Point("MESQ/SR", _scaled(24, opts.scale), nodes=nodes,
                     topology=LEAF_SPINE(factor, per_leaf),
                     pattern=pattern, config=_mesoscale_config(4096))

    grid = sweep(["throughput"], runs, point)
    flat1, flat_k, hier = (m.gib_s for m in grid.row("throughput"))

    # The bisection bound: every byte for a remote leaf crosses one
    # trunk of rate m*link/k shared by the leaf's m senders.
    ceiling = (EDR.link_bytes_per_ns * nodes /
               (k * (nodes - per_leaf))) / (1 << 30) * 1e9
    loss = max(1e-9, flat1 - flat_k)
    recoverable = max(0.0, min(ceiling, flat1) - flat_k)
    won = hier - flat_k
    return ExperimentResult(
        experiment="abl-hierarchical-EDR",
        title=f"Two-phase shuffle under {k}:1 oversubscription (EDR, "
              f"{nodes} nodes, {per_leaf}/leaf)",
        x_label="configuration", x=list(runs), y_label=Y_THROUGHPUT,
        series=[grid.series("throughput", _GIB_S),
                grid.series("throughput", _trunk_util_pct, TRUNK_UTIL)],
        notes=(f"{grid.row('throughput')[-1].plan}; bisection ceiling "
               f"{ceiling:.2f} GiB/s; "
               f"flat loss {loss:.2f} GiB/s of which "
               f"{recoverable:.2f} recoverable; two-phase wins back "
               f"{100.0 * won / loss:.0f}% of the loss "
               f"({100.0 * won / max(1e-9, recoverable):.0f}% of the "
               f"recoverable part)"))


# -- Ablation: flow-control window depth -----------------------------------------------


BUFFER_DEPTHS = (1, 2, 4, 8)


def abl_buffer_depth(opts: Options, nodes: int) -> ExperimentResult:
    """Buffer depth (double vs deeper buffering) in flow control.

    DESIGN.md calls out the buffers-per-connection choice as the memory /
    stall trade-off behind §5.1.1-§5.1.2.  This ablation quantifies it
    through the credit-stall profiling counter: a one-buffer window
    keeps the sender blocked for credit, double buffering removes most
    of the stall, and beyond four buffers the gains vanish while pinned
    memory keeps growing linearly.
    """
    design = "MEMQ/SR"
    grid = sweep(
        [design], BUFFER_DEPTHS,
        lambda row, depth: Point(
            row, _scaled(36, opts.scale), nodes=nodes,
            config=EndpointConfig(buffers_per_connection=depth,
                                  credit_frequency=1)))
    return ExperimentResult(
        experiment="ablation-buffer-depth",
        title="MEMQ/SR on EDR: buffers per connection (window depth)",
        x_label="buffers per connection", x=list(BUFFER_DEPTHS),
        y_label="GiB/s | credit-stall ms | pinned MiB",
        series=[
            grid.series(design, _GIB_S, "throughput (GiB/s)"),
            grid.series(design, attrgetter("credit_stall_ms"),
                        "credit stall (ms, all threads)"),
            grid.series(design, attrgetter("registered_mib"),
                        "pinned memory (MiB)"),
        ])


# -- Ablation: the NIC Queue-Pair context cache ----------------------------------------


def abl_qp_cache(opts: Options,
                 node_counts: Sequence[int]) -> ExperimentResult:
    """MEMQ/SR on FDR with and without the QP context-cache limit.

    Isolates the mechanism DESIGN.md and the paper ([8,16,17]) hold
    responsible for the many-Queue-Pair designs' collapse on FDR at 16
    nodes: re-run MEMQ/SR with the context cache disabled (infinite
    cache) and show the degradation disappears.  The cache's hit/miss
    counters attribute the collapse to PCIe round trips rather than
    inferring it from throughput alone.
    """
    real, ablated = "finite cache (real NIC)", "infinite cache (ablated)"
    grid = sweep(
        [real, ablated], node_counts,
        lambda cache, n: Point(
            "MEMQ/SR", _scaled(36, opts.scale), FDR, n,
            disable_qp_cache=cache == ablated),
        x_major=True)
    cache_note = "; ".join(
        f"{n} nodes: miss {100.0 * m.qp_miss_rate:.1f}%, "
        f"pcie-stall {m.pcie_stall_ms:.1f}ms"
        for n, m in zip(node_counts, grid.row(real)))
    result = grid.table(
        _GIB_S, experiment="ablation-qp-cache",
        title="MEMQ/SR on FDR with and without the QP context-cache limit",
        x_label="nodes", y_label=Y_THROUGHPUT,
        notes=f"finite-cache runs: {cache_note}")
    result.series.append(grid.series(
        real, lambda m: 100.0 * m.qp_miss_rate, "miss rate (%)"))
    return result


# -- Extension: native InfiniBand multicast (§7 future work #3) -----------------------


def ext_multicast(opts: Options,
                  node_counts: Sequence[int]) -> ExperimentResult:
    """MESQ/SR broadcast with native InfiniBand multicast.

    Quantifies the paper's hypothesis: hardware multicast should cut the
    sender's CPU and port load during broadcast while sustaining the same
    receive throughput.
    """
    designs = ("MESQ/SR", "MESQ/SR+MC")
    # 12 MiB leave each node in total: whole MiB per receiver, at least 1.
    grid = sweep(
        designs, node_counts,
        lambda design, n: Point(
            design, max(1, int(12 * opts.scale) // (n - 1)) * MIB, nodes=n,
            pattern="broadcast"),
        x_major=True)
    return ExperimentResult(
        experiment="extension-multicast",
        title="Broadcast with native InfiniBand multicast (EDR)",
        x_label="nodes", x=list(node_counts),
        y_label="GiB/s per node | total egress GB",
        series=[grid.series(d, _GIB_S, f"{d} (GiB/s)") for d in designs]
        + [grid.series(d, lambda m: m.egress_bytes / 1e9, f"{d} egress (GB)")
           for d in designs])


# -- Extension: the RDMA Write endpoint (§7 future work #1) ---------------------------


def ext_write(opts: Options, nodes: int) -> ExperimentResult:
    """One-sided endpoints: RDMA Read vs RDMA Write on both patterns.

    The interesting result: Write does not inherit Read's broadcast
    weakness, because each receiver owns its own destination buffers —
    there is no single sender buffer whose reuse waits on the slowest
    reader.
    """
    volumes = {"repartition": _scaled(36, opts.scale),
               "broadcast": _scaled(5, opts.scale)}
    return sweep(
        volumes, ("MEMQ/RD", "MEMQ/WR", "SEMQ/RD", "SEMQ/WR"),
        lambda pattern, design: Point(
            design, volumes[pattern], nodes=nodes, pattern=pattern),
        x_major=True,
    ).table(
        _GIB_S, experiment="future-work-write",
        title=f"One-sided endpoints: RDMA Read vs RDMA Write (EDR, "
              f"{nodes} nodes)",
        x_label="design", y_label=Y_THROUGHPUT)


# -- Multi-tenant service ablation ----------------------------------------------------


SVC_THREADS = 4
SVC_LOAD_FACTORS = (0.5, 1.0, 2.0)
#: shrunk so the simulated working set (n=8 rather than the paper's 16+
#: nodes) still overflows it, like the real 144-entry ConnectX-3 cache
#: does at scale.
SVC_QP_CACHE_ENTRIES = 64
SVC_SEED = 1


def _svc_run(nodes: int, specs: List[TenantSpec],
             quota_caps: Dict[str, int]) -> Dict[str, Any]:
    """One service run; returns the per-tenant rollup."""
    config = ClusterConfig(
        network=FDR, num_nodes=nodes, threads_per_node=SVC_THREADS,
        seed=SVC_SEED).with_network(qp_cache_entries=SVC_QP_CACHE_ENTRIES)
    cluster = Cluster(config)
    quotas = None
    if quota_caps:
        quotas = QuotaManager()
        for tenant, max_qps in quota_caps.items():
            quotas.set_quota(tenant, max_qps=max_qps)
    service = ShuffleService(
        cluster, specs, policy=FairSharePolicy(), quotas=quotas,
        config=ServiceConfig(max_concurrent=len(specs) + 1, seed=SVC_SEED))
    report = service.run()
    cluster.dispose()
    return report["tenants"]


def svc_tenants(opts: Options, nodes: int) -> ExperimentResult:
    """Isolation vs sharing on one fabric (the service-shape ablation).

    A MESQ/SR *victim* tenant shares the cluster with ``opts.tenants - 1``
    MQ-style *aggressors* (MEMQ/SR, one endpoint per thread): each
    aggressor job creates O(n*t) Queue Pairs that thrash the NIC's
    QP-context cache — the Fig 10/11 degradation mechanism, now
    cross-tenant.  The x axis scales the tenants' open-loop offered
    load; for every point the victim's p50/p99 job latency is measured
    three ways: running *solo*, *shared* with the aggressors, and
    shared with per-tenant QP quotas that clamp each aggressor to a
    single-endpoint footprint.

    Runs on the FDR-era NIC with its context cache shrunk to
    ``SVC_QP_CACHE_ENTRIES``.
    """
    scale, tenants = opts.scale, opts.tenants
    victim = "tenant-a"
    aggressors = [f"tenant-{chr(ord('b') + i)}" for i in range(tenants - 1)]
    jobs = 4 if scale >= 0.25 else 2
    base_gap_ns = 30_000_000
    mixed = {victim: "MESQ/SR", **{a: "MEMQ/SR" for a in aggressors}}
    aggressor_cap = estimate_footprint(
        "MEMQ/SR", nodes, SVC_THREADS, num_endpoints=1).qps
    # mode -> (tenant designs, per-tenant QP caps)
    modes = {"solo": ({victim: "MESQ/SR"}, {}),
             "shared": (mixed, {}),
             "quota": (mixed, {a: aggressor_cap for a in aggressors})}

    def job(mode: str, factor: float):
        designs, caps = modes[mode]
        return [
            TenantSpec(name=name, design=design,
                       bytes_per_job=_scaled(8, scale),
                       mean_interarrival_ns=max(1, int(base_gap_ns / factor)),
                       jobs=jobs)
            for name, design in designs.items()], caps

    grid = sweep(modes, SVC_LOAD_FACTORS, job, x_major=True,
                 run=lambda specs_caps: _svc_run(nodes, *specs_caps))

    def victim_ms(quantile: str):
        return lambda rollup: (
            rollup[victim]["latency_ns"].get(quantile, 0.0) / 1e6)

    def worst_aggressor_ms(rollup) -> float:
        return max(rollup[a]["latency_ns"].get("p99", 0.0)
                   for a in aggressors) / 1e6

    solo, shared, quota = (grid.row(mode)[-1] for mode in modes)
    p99 = victim_ms("p99")
    note = (
        f"victim p99 degradation at load x{SVC_LOAD_FACTORS[-1]:g}: "
        f"{p99(shared) / max(1e-9, p99(solo)):.2f}x shared, "
        f"{p99(quota) / max(1e-9, p99(solo)):.2f}x with quotas; "
        "aggressor cache misses "
        f"{sum(shared[a]['qp_cache_misses'] for a in aggressors)} -> "
        f"{sum(quota[a]['qp_cache_misses'] for a in aggressors)}")
    return ExperimentResult(
        experiment="svc-tenants-FDR",
        title=f"Tenant isolation vs sharing (FDR, {nodes} nodes, "
              f"{tenants} tenants, {SVC_QP_CACHE_ENTRIES}-entry QP cache)",
        x_label="offered load (x base rate)", x=list(SVC_LOAD_FACTORS),
        y_label="job latency (ms)",
        series=[grid.series(mode, victim_ms(q), f"victim {q} ({mode})")
                for mode in modes for q in ("p50", "p99")]
        + [grid.series(mode, worst_aggressor_ms, f"aggressor p99 ({mode})")
           for mode in ("shared", "quota")],
        notes=f"MESQ/SR victim + {tenants - 1}x MEMQ/SR aggressors, "
              f"fair-share, {jobs} jobs/tenant; {note}")


# -- Table 1 ---------------------------------------------------------------------------


TABLE1_THREADS = 8


def table1(opts: Options, nodes: int) -> ExperimentResult:
    """Table 1: the design-property matrix at ``nodes`` nodes and
    ``TABLE1_THREADS`` threads, computed from the design definitions
    (``tests/test_shuffle_integration.py::TestTable1Measured`` checks the
    QP columns against the Queue Pairs live stages create)."""
    rows = design_properties(nodes, TABLE1_THREADS)
    return ExperimentResult(
        experiment="table1",
        title=f"Design alternatives (n={nodes} nodes, "
              f"t={TABLE1_THREADS} threads)",
        x_label="design", x=[r["design"] for r in rows],
        y_label="properties",
        series=[
            Series("QPs/op", [r["qps_per_operator"] for r in rows]),
            Series("connections", [r["open_connections"] for r in rows]),
            Series("contention", [r["thread_contention"] for r in rows]),
            Series("resources", [r["resource_consumption"] for r in rows]),
        ],
    )


# -- the registry ---------------------------------------------------------------------


#: how ``--nodes N`` applies to an entry whose paper default is ``D``:
#: a fixed-size experiment runs at N instead of D; a node-count sweep D
#: collapses to the one requested size; the mesoscale sweep D is
#: truncated at N (the CI smoke job runs ``fig10-scaleout --nodes
#: 128``), and an off-grid N runs alone rather than silently rounding.
FIXED, COLLAPSE, TRUNCATE = "fixed", "collapse", "truncate"


@dataclass(frozen=True)
class Entry:
    """One registered experiment: ``entry(opts)`` returns its results."""

    #: the figure function, ``run(opts, nodes)`` with ``nodes`` already
    #: resolved by the rule; returns one result or several.
    run: Callable[[Options, Any], Any]
    rule: str
    #: the paper's cluster size (FIXED) or node-count sweep.
    default: Any
    #: the ``ExperimentResult.experiment`` ids ``run`` returns, in order;
    #: what a claim (:mod:`repro.bench.claims`) or a ``--json`` consumer
    #: addresses a result by.
    results: Tuple[str, ...] = ()
    #: ``--nodes`` must exceed this, because of ``why``.
    above: int = 1
    why: str = "shuffles need a peer"

    def nodes(self, requested: Optional[int]) -> Any:
        """Apply the ``--nodes`` override to this entry."""
        if requested is None:
            return self.default
        if requested <= self.above:
            raise ValueError(f"{self.why}: --nodes > {self.above}")
        if self.rule == FIXED:
            return requested
        if self.rule == COLLAPSE:
            return (requested,)
        kept = tuple(c for c in self.default if c <= requested)
        return kept if kept and kept[-1] == requested else (requested,)

    def __call__(self, opts: Options) -> List[ExperimentResult]:
        results = self.run(opts, self.nodes(opts.nodes))
        if isinstance(results, ExperimentResult):
            results = [results]
        returned = tuple(r.experiment for r in results)
        if returned != self.results:
            raise RuntimeError(f"{self.run} returned results {returned}, "
                               f"its entry declares {self.results}")
        return list(results)


_FIG14_COUNTS = (2, 4, 8, 16)

#: experiment registry for the CLI, in ``--all`` order.
ALL_EXPERIMENTS = {
    "fig8": Entry(fig8, FIXED, 8, ("fig8-EDR", "fig8-FDR")),
    "fig9": Entry(fig9, FIXED, 8, ("fig9a-EDR", "fig9b-EDR")),
    "fig10": Entry(fig10, COLLAPSE, (2, 4, 8, 16),
                   ("fig10a", "fig10b", "fig10c", "fig10d")),
    "fig10-scaleout": Entry(fig10_scaleout, TRUNCATE, SCALEOUT_COUNTS,
                            ("fig10-scaleout-EDR",)),
    "fig11": Entry(fig11, FIXED, 16, ("fig11",)),
    "fig12": Entry(fig12, COLLAPSE, (2, 4, 6, 8, 10, 12, 14, 16),
                   ("fig12",)),
    "setup-crossover": Entry(setup_crossover, FIXED, 8,
                             ("setup-crossover",)),
    "fig13": Entry(fig13, FIXED, 8, ("fig13",)),
    "fig14a": Entry(fig14a, FIXED, 8, ("fig14a",)),
    "fig14b": Entry(partial(fig14_scaling, "Q4"), COLLAPSE, _FIG14_COUNTS,
                    ("fig14b",)),
    "fig14c": Entry(partial(fig14_scaling, "Q3"), COLLAPSE, _FIG14_COUNTS,
                    ("fig14c",)),
    "fig14d": Entry(partial(fig14_scaling, "Q10"), COLLAPSE, _FIG14_COUNTS,
                    ("fig14d",)),
    "table1": Entry(table1, FIXED, 16, ("table1",)),
    "abl-oversub": Entry(abl_oversub, FIXED, 8, ("abl-oversub-EDR",)),
    "abl-adaptive": Entry(abl_adaptive, FIXED, 8,
                          ("abl-adaptive", "abl-hierarchical-EDR"),
                          above=HIER_NODES_PER_LEAF,
                          why="abl-hierarchical needs more than one leaf"),
    "svc-tenants": Entry(svc_tenants, FIXED, 8, ("svc-tenants-FDR",)),
    "abl-buffer-depth": Entry(abl_buffer_depth, FIXED, 8,
                              ("ablation-buffer-depth",)),
    "abl-qp-cache": Entry(abl_qp_cache, COLLAPSE, (8, 16),
                          ("ablation-qp-cache",)),
    "ext-multicast": Entry(ext_multicast, COLLAPSE, (4, 8, 16),
                           ("extension-multicast",)),
    "ext-write": Entry(ext_write, FIXED, 8, ("future-work-write",)),
}
