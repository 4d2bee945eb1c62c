"""Calibrated configuration for the simulated clusters.

Every physical constant used anywhere in the reproduction lives here, so
the calibration is auditable in one place.  Two presets mirror the paper's
evaluation platforms (§5):

* :data:`FDR` — 56 Gbps FDR InfiniBand, 2× Intel Xeon E5-2670v2 (10 cores).
* :data:`EDR` — 100 Gbps EDR InfiniBand, 2× Intel Xeon E5-2680v4 (14 cores).

The constants were chosen so that the *shapes* of the paper's figures hold
(who wins, where degradation sets in, where crossovers fall); see
EXPERIMENTS.md for the paper-vs-measured comparison.  Rates are expressed
in bytes per nanosecond, which is numerically identical to GB/s.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.checks import check_count

__all__ = [
    "NetworkConfig", "ClusterConfig", "FDR", "EDR",
    "TopologySpec", "SINGLE_SWITCH", "LEAF_SPINE",
]

KIB = 1024
MIB = 1024 * 1024
GIB = 1024 * 1024 * 1024

US = 1_000  # nanoseconds per microsecond
MS = 1_000_000  # nanoseconds per millisecond


@dataclass(frozen=True)
class NetworkConfig:
    """Constants describing one cluster generation (network + CPU)."""

    name: str

    # ---- link ----------------------------------------------------------
    #: effective data rate of one port after 64b/66b encoding, bytes/ns.
    link_bytes_per_ns: float
    #: one-way propagation + switch forwarding latency.
    switch_latency_ns: int
    #: path MTU; also the maximum Unreliable Datagram message size (§2.2.2).
    mtu: int

    # ---- per-message wire overheads -------------------------------------
    #: LRH+BTH+ICRC framing for an RC packet.
    rc_header_bytes: int
    #: GRH(40)+LRH+BTH+DETH framing for a UD packet.
    ud_header_bytes: int
    #: size of an RC acknowledgment on the reverse path.
    rc_ack_bytes: int

    # ---- NIC ------------------------------------------------------------
    #: NIC processing time per work request (doorbell + WQE fetch + DMA
    #: setup); occupies the NIC processing engine.
    nic_wr_ns: int
    #: number of Queue Pair contexts the NIC caches on-chip.  When the
    #: working set exceeds this, every touch of a cold QP pays
    #: ``qp_cache_miss_ns`` for a PCIe fetch — the mechanism behind the
    #: MQ-design degradation on FDR at 16 nodes (Figs 10, 11; [8,16,17]).
    qp_cache_entries: int
    #: penalty per QP-context cache miss.
    qp_cache_miss_ns: int
    #: maximum work-queue depth supported by the hardware.
    max_qp_depth: int

    # ---- RDMA control-path costs ----------------------------------------
    #: time to create + transition one RC QP to RTS, including the
    #: out-of-band exchange of routing information (Fig 12).
    rc_qp_connect_ns: int
    #: time to create one UD QP (no per-peer handshake).
    ud_qp_setup_ns: int
    #: time to create one address handle for a UD destination.
    ah_create_ns: int
    #: memory registration: fixed cost plus per-4KiB-page pinning cost.
    mr_register_base_ns: int
    mr_register_ns_per_page: int

    # ---- CPU cost model ---------------------------------------------------
    #: multiplier on all CPU-side costs (FDR cluster has older, slower
    #: cores; the paper notes local processing is ~50% faster on EDR).
    cpu_scale: float
    #: worker threads available per query fragment (cores are exclusively
    #: bound; paper uses one thread per core).
    cores_per_node: int
    #: hash + branch cost per tuple during partitioning (Alg. 1 line 8).
    hash_ns_per_tuple: float
    #: memcpy cost per byte when copying tuples into registered buffers.
    copy_ns_per_byte: float
    #: CPU time to post one send/recv work request (ibv_post_send /
    #: ibv_post_recv), charged to the calling thread.
    post_wr_ns: int
    #: CPU time for one ibv_poll_cq invocation.
    poll_cq_ns: int
    #: extra serialized bookkeeping (credit check, state update) an
    #: endpoint performs per SEND under its lock; this is what makes the
    #: shared single-QP design (SESQ/SR) contend (§5.1.3 profiling).
    endpoint_send_ns: int

    # ---- TCP/IP over InfiniBand (the IPoIB baseline) ---------------------
    #: per-byte CPU cost of the kernel TCP stack (each side); the paper's
    #: profiling shows ~2/3 of cycles inside send()/recv().
    tcp_ns_per_byte: float
    #: per-call overhead of send()/recv()/select().
    tcp_syscall_ns: int
    #: fraction of the link rate IPoIB can drive at best.
    ipoib_efficiency: float

    # ---- MPI (the MVAPICH baseline) ---------------------------------------
    #: eager/rendezvous switchover threshold.
    mpi_eager_threshold: int
    #: per-message MPI software overhead (matching, tag lookup).
    mpi_overhead_ns: int
    #: per-byte copy cost through MPI internal buffers (eager path).
    mpi_copy_ns_per_byte: float

    # ---- unreliable datagram behaviour ------------------------------------
    #: max extra random delay a UD packet may see (drives out-of-order
    #: delivery; InfiniBand is lossless but unordered for UD, §4.4.2).
    ud_jitter_ns: int
    #: probability that a UD packet is lost (bit errors; rare, default 0).
    ud_loss_probability: float = 0.0

    #: fields that are latencies, costs, sizes or jitter: at least 0.
    _NON_NEGATIVE = (
        "switch_latency_ns", "rc_header_bytes", "ud_header_bytes",
        "rc_ack_bytes", "nic_wr_ns", "qp_cache_miss_ns", "rc_qp_connect_ns",
        "ud_qp_setup_ns", "ah_create_ns", "mr_register_base_ns",
        "mr_register_ns_per_page", "cpu_scale", "hash_ns_per_tuple",
        "copy_ns_per_byte", "post_wr_ns", "poll_cq_ns", "endpoint_send_ns",
        "tcp_ns_per_byte", "tcp_syscall_ns", "mpi_eager_threshold",
        "mpi_overhead_ns", "mpi_copy_ns_per_byte", "ud_jitter_ns")
    #: fields that count something: ints, at least 1.
    _COUNTS = ("qp_cache_entries", "max_qp_depth", "cores_per_node")

    def __post_init__(self):
        """Reject a value the simulation would fail on mid-run, or never
        finish with, naming the field."""
        if not self.link_bytes_per_ns > 0:
            raise ValueError(f"link_bytes_per_ns must be positive, "
                             f"got {self.link_bytes_per_ns}")
        if not 0 <= self.ud_loss_probability <= 1:
            raise ValueError(f"ud_loss_probability must be in [0, 1], "
                             f"got {self.ud_loss_probability}")
        if not 0 < self.ipoib_efficiency <= 1:
            raise ValueError(f"ipoib_efficiency must be in (0, 1], "
                             f"got {self.ipoib_efficiency}")
        check_count("mtu", self.mtu, minimum=64)
        for name in self._COUNTS:
            check_count(name, getattr(self, name))
        for name in self._NON_NEGATIVE:
            if not getattr(self, name) >= 0:
                raise ValueError(
                    f"{name} must be >= 0, got {getattr(self, name)}")

    @property
    def page_size(self) -> int:
        return 4096

    def cpu(self, ns: float) -> int:
        """Scale a CPU-side cost by this cluster's core speed."""
        return int(ns * self.cpu_scale)

    def wire_bytes(self, payload: int, transport: str) -> int:
        """Total bytes on the wire for a message of ``payload`` bytes.

        RC messages larger than the MTU are segmented into MTU-sized
        packets, each paying the per-packet header.
        """
        if transport == "UD":
            return payload + self.ud_header_bytes
        packets = max(1, -(-payload // self.mtu))
        return payload + packets * self.rc_header_bytes


#: 56 Gbps FDR InfiniBand cluster (Xeon E5-2670v2, 10 cores/socket).
FDR = NetworkConfig(
    name="FDR",
    link_bytes_per_ns=6.2,  # 56 Gbps less encoding => ~6.2 GB/s usable
    switch_latency_ns=1300,
    mtu=4096,
    rc_header_bytes=30,
    ud_header_bytes=60,
    rc_ack_bytes=30,
    nic_wr_ns=110,
    qp_cache_entries=144,  # ConnectX-3 era: on-chip ICM cache overflows
    # once ~n*t QP pairs are active (16 nodes x 8 threads, send+receive)
    qp_cache_miss_ns=5200,
    max_qp_depth=16 * 1024,
    rc_qp_connect_ns=int(1.25 * MS),
    ud_qp_setup_ns=int(1.2 * MS),
    ah_create_ns=int(0.02 * MS),
    mr_register_base_ns=int(0.08 * MS),
    mr_register_ns_per_page=180,
    cpu_scale=1.4,
    cores_per_node=8,
    hash_ns_per_tuple=5.0,
    copy_ns_per_byte=0.12,
    post_wr_ns=120,
    poll_cq_ns=90,
    endpoint_send_ns=520,
    tcp_ns_per_byte=0.55,
    tcp_syscall_ns=1600,
    ipoib_efficiency=0.45,
    mpi_eager_threshold=16 * KIB,
    mpi_overhead_ns=450,
    mpi_copy_ns_per_byte=0.10,
    ud_jitter_ns=2600,
)

#: 100 Gbps EDR InfiniBand cluster (Xeon E5-2680v4, 14 cores/socket).
EDR = NetworkConfig(
    name="EDR",
    link_bytes_per_ns=12.4,  # 100 Gbps less encoding => ~12.4 GB/s usable
    switch_latency_ns=1000,
    mtu=4096,
    rc_header_bytes=30,
    ud_header_bytes=60,
    rc_ack_bytes=30,
    nic_wr_ns=60,
    qp_cache_entries=1024,  # ConnectX-4 era: much larger context cache [17]
    qp_cache_miss_ns=3000,
    max_qp_depth=16 * 1024,
    rc_qp_connect_ns=int(1.2 * MS),
    ud_qp_setup_ns=int(1.1 * MS),
    ah_create_ns=int(0.02 * MS),
    mr_register_base_ns=int(0.08 * MS),
    mr_register_ns_per_page=150,
    cpu_scale=1.0,
    cores_per_node=8,
    hash_ns_per_tuple=5.0,
    copy_ns_per_byte=0.12,
    post_wr_ns=120,
    poll_cq_ns=90,
    endpoint_send_ns=520,
    tcp_ns_per_byte=0.55,
    tcp_syscall_ns=1600,
    ipoib_efficiency=0.40,
    mpi_eager_threshold=16 * KIB,
    mpi_overhead_ns=450,
    mpi_copy_ns_per_byte=0.10,
    ud_jitter_ns=2200,
)


@dataclass(frozen=True)
class TopologySpec:
    """How the cluster's switches are wired.

    A pure description — :class:`repro.fabric.topology.Topology` turns it
    into a live Port/Switch/Link graph with precomputed routes.  Two
    kinds are supported:

    * ``single-switch`` — every node on one full-bisection switch; the
      paper's platform (§5) and the degenerate default.  Bit-identical to
      the pre-topology fabric.
    * ``leaf-spine`` — ``nodes_per_leaf`` nodes per leaf switch, one
      spine; each leaf's uplink/downlink trunks run at
      ``nodes_per_leaf * link_rate / oversubscription``, so
      ``oversubscription > 1`` starves cross-leaf traffic.
    """

    kind: str = "single-switch"
    #: trunk oversubscription factor k in a k:1 leaf-spine fabric.
    oversubscription: int = 1
    #: nodes attached to each leaf switch (leaf-spine only).
    nodes_per_leaf: int = 4

    _KINDS = ("single-switch", "leaf-spine")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(
                f"unknown topology kind {self.kind!r}; "
                f"expected one of {', '.join(self._KINDS)}")
        check_count("oversubscription", self.oversubscription)
        check_count("nodes_per_leaf", self.nodes_per_leaf)

    def describe(self) -> str:
        if self.kind == "leaf-spine":
            return (f"leaf-spine {self.oversubscription}:1, "
                    f"{self.nodes_per_leaf} nodes/leaf")
        return "single-switch (full bisection)"


#: the paper's platform: one full-bisection switch (§5).
SINGLE_SWITCH = TopologySpec("single-switch")


def LEAF_SPINE(oversubscription: int = 1,
               nodes_per_leaf: int = 4) -> TopologySpec:
    """A two-tier leaf-spine fabric with ``oversubscription``:1 trunks."""
    return TopologySpec("leaf-spine", oversubscription=oversubscription,
                        nodes_per_leaf=nodes_per_leaf)


@dataclass(frozen=True)
class ClusterConfig:
    """A concrete experiment platform: a network preset plus topology."""

    network: NetworkConfig
    num_nodes: int
    threads_per_node: int = 0  # 0 => network.cores_per_node
    seed: int = 1
    #: switch wiring; the paper's platform is one full-bisection switch.
    topology: TopologySpec = SINGLE_SWITCH

    def __post_init__(self):
        check_count("num_nodes", self.num_nodes)
        check_count("threads_per_node", self.threads_per_node, minimum=0)
        if self.threads_per_node == 0:
            object.__setattr__(
                self, "threads_per_node", self.network.cores_per_node
            )

    def with_network(self, **changes) -> "ClusterConfig":
        """Derive a config whose network preset has fields overridden."""
        return replace(self, network=replace(self.network, **changes))

    def with_topology(self, spec: TopologySpec) -> "ClusterConfig":
        """Derive a config running on a different switch topology."""
        return replace(self, topology=spec)
