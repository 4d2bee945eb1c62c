"""The generic path-walker: one pipeline for every routing shape.

Unicast, loopback and the two halves of multicast (shared trunk,
per-member legs) are all one :class:`Flight` walking a precomputed hop
sequence (:meth:`~repro.fabric.topology.Topology.route_hops`):

    egress pipe → [port pipe?, forwarding latency]* → loss? → ingress

* the egress pipe is charged at the call (no queue entry to start a
  walk); a portless hop is one ``call_later``, a port hop one pipe
  completion plus one ``call_later``; the sender's ``on_egress`` runs
  in place at the egress completion, and the arrival continuation in
  place at the ingress completion — every queue entry is a time
  advance,
* forwarding jitter (unordered delivery) is drawn on the *first* hop,
  after the egress pipe completes; loss is drawn after the last hop,
  before the ingress pipe — matching the pre-topology fabric on the
  degenerate single-switch graph.

Latencies arrive here as validated integers
(:class:`~repro.fabric.topology.Hop` is the rounding boundary); the
walker asserts that instead of rounding per packet.

The walker moves whole messages as packet *trains*: every pipe along
the path — egress, trunk ports, ingress — is charged once per message
for its ``wire_bytes``.  Delivery accounting, loss draws, jitter draws
and trunk links records are per message too: exactly one per train.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.fabric.packet import Packet, clone_for_member
from repro.fabric.topology import Hop

__all__ = ["Arrival", "Flight", "TrunkFlight"]

#: the arrival continuation of a route: called with the packet once it
#: has fully arrived (or been dropped; ``packet.dropped`` says which).
Arrival = Callable[[Packet], None]


class Flight:
    """One train in flight: the whole route of one message as a slotted
    object.

    Its stages are methods, scheduled as bound methods: the simulator's
    queue holds the flight while it is in flight, and nothing else does,
    so a delivered flight is reclaimed by reference counting alone.  No
    bound method is ever stored on the flight (that would be a
    ``self -> attr -> self`` cycle, linter rule VS109).  Once its last
    hop is walked, a flight delivers: the loss draw, the destination's
    ingress pipe, then ``on_arrival(packet)``.
    """

    __slots__ = ("fabric", "packet", "hops", "unordered", "lossy",
                 "on_arrival", "on_egress", "index", "latency")

    def __init__(self, fabric, packet: Packet, hops: Sequence[Hop],
                 unordered: bool, lossy: bool, on_arrival: Arrival,
                 on_egress: Optional[Callable[[], None]] = None):
        self.fabric = fabric
        self.packet = packet
        self.hops = hops
        self.unordered = unordered
        self.lossy = lossy
        self.on_arrival = on_arrival
        self.on_egress = on_egress
        self.index = 0
        self.latency = 0

    def depart(self) -> None:
        """Charge the sender's egress pipe; the walk starts at its
        completion."""
        packet = self.packet
        self.fabric.nodes[packet.src_node].nic.submit_tx(
            packet.wire_bytes, self._egressed, flow=packet.flow)

    def _egressed(self) -> None:
        # The first hop is scheduled before the sender hears of the
        # egress completion.
        self.advance()
        if self.on_egress is not None:
            self.on_egress()

    def advance(self) -> None:
        """Walk the next hop, or end the flight after the last one.

        A multicast leg starts here, in place: the trunk already paid
        the sender's port once for the whole group.
        """
        index = self.index
        hops = self.hops
        if index == len(hops):
            self._finish()
            return
        hop = hops[index]
        latency = hop.latency_ns
        if index == 0 and self.unordered:
            jitter = self.fabric.config.ud_jitter_ns
            if jitter:
                latency += self.fabric._rng.randrange(jitter)
        assert type(latency) is int, "hop latency must be integer ns"
        self.index = index + 1
        if hop.port is None:
            self.fabric.sim.call_later(latency, self.advance)
            return
        self.latency = latency
        pipe = hop.port.pipe
        wire_bytes = self.packet.wire_bytes
        telemetry = self.fabric.telemetry
        if telemetry.pipes_observed:
            telemetry.pipe("trunk", hop.port.name, pipe,
                           pipe._serialization_ns(wire_bytes), 0, 0,
                           self.packet.flow, wire_bytes)
        pipe.submit_train(wire_bytes, self._forward)

    def _forward(self) -> None:
        self.fabric.sim.call_later(self.latency, self.advance)

    def _finish(self) -> None:
        """The loss draw, then the destination's ingress pipe."""
        fabric = self.fabric
        packet = self.packet
        if self.lossy:
            loss = fabric.config.ud_loss_probability
            if loss > 0 and fabric._rng.random() < loss:
                packet.dropped = True
                fabric.dropped_messages += 1
                self.on_arrival(packet)
                return
        fabric.nodes[packet.dst_node].nic.submit_rx(
            packet.wire_bytes, packet.dst_qpn, self._deliver,
            flow=packet.flow)

    def _deliver(self) -> None:
        self.fabric.delivered_messages += 1
        self.on_arrival(self.packet)


class TrunkFlight(Flight):
    """A multicast trunk: ordered and lossless, it ends at the last
    common switch in the fan-out that starts one leg :class:`Flight`
    per member there.  Legs are datagrams: unordered and lossy."""

    __slots__ = ("members", "leg_hops")

    def __init__(self, fabric, packet: Packet, hops: Sequence[Hop],
                 on_arrival: Arrival,
                 on_egress: Optional[Callable[[], None]],
                 members: List[Tuple[int, int]],
                 leg_hops: Dict[int, Tuple[Hop, ...]]):
        super().__init__(fabric, packet, hops, False, False, on_arrival,
                         on_egress)
        self.members = members
        self.leg_hops = leg_hops

    def _finish(self) -> None:
        fabric = self.fabric
        packet = self.packet
        link_bytes = fabric.link_bytes[packet.src_node]
        for node_id, qpn in self.members:
            link_bytes[node_id] += packet.wire_bytes
            Flight(fabric, clone_for_member(packet, node_id, qpn),
                   self.leg_hops[node_id], True, True,
                   self.on_arrival).advance()
