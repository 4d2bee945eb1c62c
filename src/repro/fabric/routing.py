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
        # ``latency`` is set by the port hop whose ``_forward`` reads it.

    def depart(self) -> None:
        """Charge the sender's egress pipe; the walk starts at its
        completion (:meth:`Fabric.route` writes this in place)."""
        src, wire_bytes = self.packet.src_node, self.packet.wire_bytes
        nic = self.fabric.nodes[src].nic
        nic.tx_messages += 1
        if self.fabric.telemetry.pipes_observed:
            self.fabric.telemetry.pipe("egress", src, nic.egress,
                                       nic.egress.durations[wire_bytes],
                                       0, 0, wire_bytes)
        nic.egress.submit_train(wire_bytes, self._egressed)

    def _egressed(self) -> None:
        # The first hop is scheduled before the sender hears of the
        # egress completion.  An empty route ends here, and an ordered
        # train over one portless hop (every pair on one switch) draws
        # nothing, so that hop's latency leads straight to the end.
        hops = self.hops
        if not hops:
            self._finish()
        elif len(hops) == 1 and not self.unordered and hops[0].port is None:
            self.fabric.sim.call_later(hops[0].latency_ns, self._finish)
        else:
            self.advance()
        on_egress = self.on_egress
        if on_egress is not None:
            on_egress()

    def advance(self) -> None:
        """Walk the next hop; the last one's latency schedules
        :meth:`_finish`.

        A multicast leg starts here, in place: the trunk already paid
        the sender's port once for the whole group.
        """
        index = self.index
        hops = self.hops
        hop = hops[index]
        latency = hop.latency_ns
        if index == 0 and self.unordered:
            jitter = self.fabric.config.ud_jitter_ns
            if jitter:
                # ``randrange(jitter)`` without its two frames: the same
                # rejection draw, so the same stream (CPython 3.10-3.12).
                getrandbits = self.fabric._rng.getrandbits
                bits = jitter.bit_length()
                draw = getrandbits(bits)
                while draw >= jitter:
                    draw = getrandbits(bits)
                latency += draw
        assert type(latency) is int, "hop latency must be integer ns"
        index += 1
        self.index = index
        if hop.port is None:
            then = self._finish if index == len(hops) else self.advance
            self.fabric.sim.call_later(latency, then)
            return
        self.latency = latency
        pipe = hop.port.pipe
        wire_bytes = self.packet.wire_bytes
        telemetry = self.fabric.telemetry
        if telemetry.pipes_observed:
            telemetry.pipe("trunk", hop.port.name, pipe,
                           pipe.durations[wire_bytes], 0, 0, wire_bytes)
        pipe.submit_train(wire_bytes, self._forward)

    def _forward(self) -> None:
        last = self.index == len(self.hops)
        self.fabric.sim.call_later(
            self.latency, self._finish if last else self.advance)

    def _finish(self) -> None:
        """The loss draw, then the destination's ingress pipe, whose
        charge carries the miss penalty of the destination QP's context
        (touched once per train, as on the send path)."""
        fabric = self.fabric
        packet = self.packet
        if self.lossy:
            loss = fabric.config.ud_loss_probability
            if loss > 0 and fabric._rng.random() < loss:
                packet.dropped = True
                fabric.dropped_messages += 1
                self.on_arrival(packet)
                return
        nic = fabric.nodes[packet.dst_node].nic
        nic.rx_messages += 1
        penalty = (0 if nic.disable_qp_cache
                   or nic.qp_cache.touch(packet.dst_qpn)
                   else nic.config.qp_cache_miss_ns)
        if fabric.telemetry.pipes_observed:
            fabric.telemetry.pipe(
                "ingress", packet.dst_node, nic.ingress,
                nic.ingress.durations[packet.wire_bytes], penalty, 0,
                packet.wire_bytes)
        nic.ingress.submit_train(packet.wire_bytes, self._deliver, penalty)

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
