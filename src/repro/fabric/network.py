"""Nodes and the switched fabric connecting them.

The fabric is now three collaborating pieces:

* :mod:`repro.fabric.topology` — the explicit switch graph: ports,
  links, precomputed per-pair routes (built from the cluster's
  :class:`~repro.fabric.config.TopologySpec`);
* :mod:`repro.fabric.routing` — the path-walker: one
  :class:`~repro.fabric.routing.Flight` per train, walking a route's
  hop sequence;
* this module — NIC attachment, delivery accounting, and the loss and
  jitter policy (what *unordered*/*lossy* mean).

The default ``SINGLE_SWITCH`` topology mirrors the paper's clusters:
every node has one adapter plugged into a full-bisection switch, so
contention only occurs at the sender's egress port and the receiver's
ingress port.  Multi-switch presets add contention at trunk ports.  The
fabric is lossless under congestion (InfiniBand link-level flow
control) but — for the Unreliable Datagram service — may deliver
messages out of order, which is modeled with a bounded random
forwarding jitter.  Loss injection (bit errors, §4.4.2) is available
for failure testing and defaults to off.
"""

from __future__ import annotations

import itertools
import random
from array import array
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.fabric import routing
from repro.fabric.config import ClusterConfig, NetworkConfig
from repro.fabric.nic import NIC
from repro.fabric.packet import Packet
from repro.fabric.topology import Topology
from repro.sim import Simulator
from repro.telemetry.core import Telemetry

__all__ = ["Node", "Fabric"]


class Node:
    """One cluster machine: an adapter.  A thread's CPU cost is
    ``config.cpu(ns)``, what it yields to spend it."""

    def __init__(self, sim: Simulator, node_id: int, config: NetworkConfig,
                 telemetry: Telemetry):
        self.sim = sim
        self.id = node_id
        self.config = config
        self.nic = NIC(sim, node_id, config, telemetry)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Node {self.id} ({self.config.name})>"


class Fabric:
    """The switched network connecting all nodes of a cluster."""

    def __init__(self, sim: Simulator, cluster: ClusterConfig,
                 telemetry: Optional[Telemetry] = None):
        self.sim = sim
        self.cluster = cluster
        self.config = cluster.network
        #: the cluster's observer bundle; everything built on this
        #: fabric holds the same object and reads its fields per use.
        self.telemetry = telemetry if telemetry is not None else \
            Telemetry(sim, cluster.num_nodes)
        self.nodes: List[Node] = [
            Node(sim, i, cluster.network, self.telemetry)
            for i in range(cluster.num_nodes)
        ]
        #: the live switch graph; owns trunk-port pipes and routes.
        self.topology = Topology(sim, cluster.topology, cluster.network,
                                 cluster.num_nodes)
        self._rng = random.Random(cluster.seed)
        self.delivered_messages = 0
        self.dropped_messages = 0
        #: wire bytes carried per directed pair, including loopback
        #: traffic: ``link_bytes[src][dst]``, one row of integers per
        #: source; feeds the link-contention telemetry.
        n = cluster.num_nodes
        self.link_bytes: List[array] = [
            array("q", bytes(8 * n)) for _ in range(n)]
        self.telemetry.attach_fabric(self)
        #: verbs contexts register themselves here (node_id -> VerbsContext)
        #: so Queue Pairs can resolve their peers.
        self.verbs_contexts: dict = {}
        #: per-node software stacks the baselines layer on this fabric
        #: (MPI runtime, kernel TCP stack): (class, node_id) -> instance,
        #: filled by :meth:`node_service`.
        self.node_services: Dict[Tuple[type, int], Any] = {}
        #: per-tenant resource arbiter (it can refuse, so it is not an
        #: observer); ``None`` unless Cluster.enable_quotas() installed
        #: one.  Duck-typed: the verbs layer calls ``on_qp_created`` /
        #: ``on_qp_destroyed`` / ``on_mr_registered`` /
        #: ``on_mr_deregistered`` without importing the service layer.
        self.quotas: Optional[Any] = None
        #: shuffle-endpoint id allocator: ids are unique per cluster,
        #: which is all multicast mgids and the EndpointRegistry need.
        self.endpoint_ids = itertools.count(1)
        #: InfiniBand multicast groups: mgid -> the attached UD QPs as
        #: (node_id, qpn) keys of an insertion-ordered dict, so legs
        #: leave in attach order.  The fabric replicates a single sender
        #: packet to every member at the last common switch, so the
        #: sender's port (and any shared trunk) is charged only once.
        self.mcast_members: Dict[int, Dict[Tuple[int, int], None]] = {}
        #: the one UD address handle per ``(node_id, qpn)``, keyed by
        #: itself (see :func:`repro.verbs.cm.create_ah`).
        self.address_handles: Dict[Tuple[int, int], Any] = {}

    def dispose(self) -> None:
        """Release the fabric's node, context and service tables.

        Breaks the fabric<->context and fabric<->baseline-stack hub
        edges.  Zero-remainder contract (see :meth:`Cluster.dispose`):
        every table through which something built on this fabric is
        reachable *from* it is declared above and cleared here, so no
        cycle through the fabric survives; the fabric is unusable
        afterwards.
        """
        self.verbs_contexts.clear()
        self.node_services.clear()
        self.mcast_members.clear()
        self.address_handles.clear()
        self.link_bytes.clear()
        self.nodes.clear()

    def node_service(self, kind: type, ctx: Any) -> Any:
        """The one ``kind`` instance of ``ctx``'s node, built as
        ``kind(ctx)`` on first use (``ctx`` is the node's VerbsContext)."""
        key = (kind, ctx.node_id)
        service = self.node_services.get(key)
        if service is None:
            service = self.node_services[key] = kind(ctx)
        return service

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def node(self, node_id: int) -> Node:
        return self.nodes[node_id]

    def route(self, packet: Packet, on_arrival: routing.Arrival,
              unordered: bool = False, lossy: bool = False,
              on_egress: Optional[Callable[[], None]] = None) -> None:
        """Carry ``packet`` from source to destination.

        ``on_arrival(packet)`` runs once the packet has fully arrived at
        the destination NIC (or, for a dropped packet, once the fabric
        has discarded it; ``packet.dropped`` is then True).  The wire
        rule: below the verbs API a completion is a continuation — an
        ``Event`` is something a CPU thread waits on, and a caller that
        has one waiting passes ``event.succeed``.  The egress pipe is
        charged during this call; ``on_egress`` and ``on_arrival`` run in
        place at the completions that end their stages, never
        synchronously inside this call (DESIGN.md, "The wire rule").

        ``unordered`` adds random forwarding jitter so that messages can
        overtake each other — the Unreliable Datagram behaviour.
        ``lossy`` enables loss injection at the configured probability.
        ``on_egress()``, if given, runs once the packet has fully left
        the sender's NIC (the point at which an unacknowledged transport
        considers the send complete).

        Loopback (``src == dst``) turns around inside the HCA: PCIe DMA
        out and back in, so both port pipes are charged, but the route
        has no hops — no switch latency, no jitter, no loss.
        """
        src = packet.src_node
        dst = packet.dst_node
        wire_bytes = packet.wire_bytes
        self.link_bytes[src][dst] += wire_bytes
        if src != dst:
            # Topology.route_hops(src, dst), read in place.
            topology = self.topology
            leaf = topology.leaf_of
            hops = topology.leaf_hops[leaf[src]][leaf[dst]]
        else:  # loopback
            unordered = lossy = False
            hops = ()
        flight = routing.Flight(self, packet, hops, unordered, lossy,
                                on_arrival, on_egress)
        # flight.depart(), written in place.
        nic = self.nodes[src].nic
        nic.tx_messages += 1
        if self.telemetry.pipes_observed:
            self.telemetry.pipe("egress", src, nic.egress,
                                nic.egress.durations[wire_bytes], 0, 0,
                                wire_bytes)
        nic.egress.submit_train(wire_bytes, flight._egressed)

    def mcast_attach(self, mgid: int, node_id: int, qpn: int) -> None:
        """Attach a UD QP to a multicast group."""
        self.mcast_members.setdefault(mgid, {})[(node_id, qpn)] = None

    def mcast_detach(self, mgid: int, node_id: int, qpn: int) -> None:
        self.mcast_members.get(mgid, {}).pop((node_id, qpn), None)

    def route_mcast(self, packet: Packet, mgid: int,
                    on_arrival: routing.Arrival,
                    on_egress: Optional[Callable[[], None]] = None) -> None:
        """Replicate one datagram to every group member.

        The sender's egress port serializes the packet *once*; the
        topology splits the member paths into a shared trunk (walked
        once) and per-member legs that start at the last common switch,
        where replication happens.  Each member's ingress port is
        charged individually, and ``on_arrival`` runs once per member
        with that member's copy.  The sender, if attached, does not
        hear its own packet (IB loopback suppression is the common HCA
        default).
        """
        members = [
            m for m in self.mcast_members.get(mgid, ())
            if m[0] != packet.src_node
        ]
        trunk, leg_hops = self.topology.mcast_route(
            packet.src_node, tuple(m[0] for m in members))
        routing.TrunkFlight(self, packet, trunk, on_arrival, on_egress,
                            members, leg_hops).depart()
