"""The switch/route layer: an explicit Switch/Port graph.

The paper's clusters hang every node off one full-bisection switch, so
the original fabric hard-coded a single ``switch_latency_ns`` hop.  This
module makes the switching fabric explicit so the simulation can also
model what the paper's platform could not exhibit: rack-scale fabrics
with oversubscribed trunks.

Structure
---------

* :class:`Switch` — one forwarding element; owns its trunk ports.
* :class:`SwitchPort` — a rate-limited port, backed by the same FIFO
  :class:`~repro.sim.primitives.RatePipe` that models NIC link ports, so
  trunk contention, per-port byte counters and trace spans come for free.
* :class:`Hop` — one step of a precomputed path: an optional port to
  serialize through plus an integer forwarding latency.  Hop *identity*
  is meaningful: paths that traverse the same physical resource share
  the same Hop object, which is what lets multicast find the last
  common switch by comparing hops.
* :class:`Topology` — per-pair hop sequences
  (:meth:`Topology.route_hops`), two table reads built from a
  :class:`~repro.fabric.config.TopologySpec`: a node's leaf, then the
  leaf pair's hop tuple.  Hop tuples are shared per *equivalence
  class* (same leaf pair, the one single-switch hop) instead of
  materialised per node pair, so route state is O(nodes + leaves²),
  not O(nodes²) — the difference between 16 paper nodes and the
  1024-node mesoscale sweep.

The walkers in :mod:`repro.fabric.routing` execute these hop sequences;
the :class:`~repro.fabric.network.Fabric` itself no longer knows what a
switch is.

Loopback routes are empty (``hops == ()``): RDMA to one's own node
turns around inside the HCA and never reaches a switch, on every
topology.

Simulated-time typing: every hop latency is validated to be an ``int``
at construction — this module is the single point where path latencies
enter the simulation, so the walkers downstream can assert integer
nanoseconds instead of rounding per packet.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.fabric.config import NetworkConfig, TopologySpec
from repro.sim import Simulator
from repro.sim.primitives import RatePipe

__all__ = ["Hop", "Switch", "SwitchPort", "Topology"]


class Switch:
    """One forwarding element of the fabric graph."""

    __slots__ = ("name", "index", "ports")

    def __init__(self, name: str, index: int):
        self.name = name
        #: dense index; telemetry maps switch i to trace pid
        #: ``num_nodes + i`` so switches appear as pseudo-nodes.
        self.index = index
        self.ports: List["SwitchPort"] = []

    def add_port(self, sim: Simulator, local_name: str,
                 bytes_per_ns: float) -> "SwitchPort":
        port = SwitchPort(self, local_name,
                          RatePipe(sim, bytes_per_ns, name=local_name))
        self.ports.append(port)
        return port

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Switch {self.name} ({len(self.ports)} ports)>"


class SwitchPort:
    """A rate-limited switch port, shared by every route crossing it."""

    __slots__ = ("local_name", "name", "pipe")

    def __init__(self, switch: Switch, local_name: str, pipe: RatePipe):
        self.local_name = local_name
        #: globally unique name, e.g. ``leaf0.up`` / ``spine0.down2``.
        self.name = f"{switch.name}.{local_name}"
        self.pipe = pipe

    def utilization(self, elapsed_ns: int) -> float:
        """Share (0..1) of ``elapsed_ns`` this port spent serializing."""
        return min(1.0, self.pipe.busy_ns / max(1, elapsed_ns))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SwitchPort {self.name} @ {self.pipe.rate} B/ns>"


class Hop:
    """One step of a precomputed path.

    ``port`` is the :class:`SwitchPort` the packet serializes through
    before forwarding, or ``None`` for a hop through non-blocking
    silicon; ``latency_ns`` is the forwarding latency of the traversed
    switch.  Latencies must be integers: this constructor is the single
    rounding boundary for path latencies (see the module docstring).
    """

    __slots__ = ("port", "latency_ns")

    def __init__(self, port: Optional[SwitchPort], latency_ns: int):
        if type(latency_ns) is not int:
            raise TypeError(
                f"hop latency must be an int (simulated ns), got "
                f"{type(latency_ns).__name__}: {latency_ns!r}")
        if latency_ns < 0:
            raise ValueError(f"negative hop latency: {latency_ns}")
        self.port = port
        self.latency_ns = latency_ns

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = self.port.name if self.port is not None else "-"
        return f"<Hop {where} +{self.latency_ns}ns>"


class Topology:
    """A live switch graph plus precomputed routing tables.

    Built once per :class:`~repro.fabric.network.Fabric` from the
    cluster's :class:`~repro.fabric.config.TopologySpec`; owns every
    switch port pipe, so telemetry can harvest per-port bytes and
    utilization from here.
    """

    def __init__(self, sim: Simulator, spec: TopologySpec,
                 network: NetworkConfig, num_nodes: int):
        self.sim = sim
        self.spec = spec
        self.network = network
        self.num_nodes = num_nodes
        self.switches: List[Switch] = []
        #: a non-loopback pair's shared hop tuple is ``leaf_hops[leaf_of
        #: [src]][leaf_of[dst]]`` (the builders fill both tables).
        self.leaf_of: List[int] = []
        self.leaf_hops: List[List[Tuple[Hop, ...]]] = []
        #: multicast trunk/leg split per (src, member-tuple) group.
        self._mcast_cache: Dict[
            Tuple[int, Tuple[int, ...]],
            Tuple[Tuple[Hop, ...], Dict[int, Tuple[Hop, ...]]]] = {}
        if spec.kind == "leaf-spine":
            self._build_leaf_spine()
        else:
            self._build_single_switch()

    # -- construction ------------------------------------------------------

    def _add_switch(self, name: str) -> Switch:
        switch = Switch(name, len(self.switches))
        self.switches.append(switch)
        return switch

    def _build_single_switch(self) -> None:
        """The degenerate preset: the paper's full-bisection switch.

        Every pair shares one portless Hop, so routing reduces to the
        pre-topology pipeline: egress, one switch latency, ingress —
        bit-identical heap entries and RNG draws.
        """
        self._add_switch("sw0")
        self.leaf_of = [0] * self.num_nodes
        self.leaf_hops = [[(Hop(None, self.network.switch_latency_ns),)]]

    def _build_leaf_spine(self) -> None:
        """Two tiers: leaves of ``nodes_per_leaf`` nodes under one spine.

        Each leaf's uplink and the spine's per-leaf downlink are
        rate-limited trunk ports at ``nodes_per_leaf * link_rate / k``
        for a k:1 oversubscription.  Cross-leaf paths pay three switch
        traversals (leaf, spine, leaf); same-leaf paths are identical to
        the single-switch fabric.
        """
        net = self.network
        latency = net.switch_latency_ns
        per_leaf = self.spec.nodes_per_leaf
        num_leaves = -(-self.num_nodes // per_leaf)
        trunk_rate = per_leaf * net.link_bytes_per_ns / self.spec.oversubscription

        leaves = [self._add_switch(f"leaf{i}") for i in range(num_leaves)]
        #: forwarding inside one's own leaf: no trunk crossed.
        local_hop = [Hop(None, latency) for _ in leaves]

        up_hop: List[Hop] = []
        down_hop: List[Hop] = []
        spine_hop = Hop(None, latency)
        if num_leaves > 1:
            spine = self._add_switch("spine0")
            for i, leaf in enumerate(leaves):
                up = leaf.add_port(self.sim, "up", trunk_rate)
                down = spine.add_port(self.sim, f"down{i}", trunk_rate)
                up_hop.append(Hop(up, latency))
                down_hop.append(Hop(down, latency))

        # One shared hop tuple per (src leaf, dst leaf) pair — O(leaves²)
        # route state regardless of node count.
        self.leaf_of = [node // per_leaf for node in range(self.num_nodes)]
        self.leaf_hops = [
            [(local_hop[sl],) if sl == dl
             else (up_hop[sl], spine_hop, down_hop[dl])
             for dl in range(num_leaves)]
            for sl in range(num_leaves)]

    # -- lookup ------------------------------------------------------------

    def route_hops(self, src: int, dst: int) -> Tuple[Hop, ...]:
        """The (shared) hop tuple for one directed pair.

        This is the one route lookup: nothing is allocated, and the
        returned tuple is shared by every pair of the same
        equivalence class, so Hop-identity comparisons (multicast's
        last-common-switch split) keep working.
        """
        if src == dst:
            return ()
        leaf = self.leaf_of
        return self.leaf_hops[leaf[src]][leaf[dst]]

    def mcast_route(self, src: int, members: Sequence[int]
                    ) -> Tuple[Tuple[Hop, ...], Dict[int, Tuple[Hop, ...]]]:
        """Split the members' paths into a shared trunk and per-member
        legs — replication at the *last common switch*.

        The trunk is the longest common prefix (by Hop identity) of all
        member paths, minus its final hop: the last common switch's own
        forwarding (and port, if any) is paid per replica, because that
        switch forwards one copy per downstream direction.  On the
        single-switch fabric this reduces to trunk ``()`` and one
        switch hop per leg — exactly the pre-topology fan-out.  Below
        the replication point each leg is charged individually (two
        members behind the same downstream trunk each pay it; the
        simulation does not model per-edge replication trees).
        """
        key = (src, tuple(members))
        cached = self._mcast_cache.get(key)
        if cached is not None:
            return cached
        paths = {m: self.route_hops(src, m) for m in members}
        prefix_len = 0
        if members:
            first = paths[members[0]]
            for i, hop in enumerate(first):
                if all(len(paths[m]) > i and paths[m][i] is hop
                       for m in members):
                    prefix_len = i + 1
                else:
                    break
        trunk = paths[members[0]][:prefix_len - 1] if prefix_len else ()
        legs = {m: paths[m][len(trunk):] for m in members}
        result = (trunk, legs)
        self._mcast_cache[key] = result
        return result

    # -- introspection -----------------------------------------------------

    def ports(self) -> List[SwitchPort]:
        """Every switch port, in deterministic (switch, port) order."""
        return [port for switch in self.switches for port in switch.ports]

    def peak_utilization(self, elapsed_ns: int) -> float:
        """The busiest port's utilization; 0 on a port-less fabric."""
        return max((port.utilization(elapsed_ns) for port in self.ports()),
                   default=0.0)
