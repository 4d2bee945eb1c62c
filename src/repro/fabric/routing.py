"""The generic path-walker: one pipeline for every routing shape.

Unicast, loopback and the two halves of multicast (shared trunk,
per-member legs) all run one flat-callback walker over a precomputed
hop sequence (:meth:`~repro.fabric.topology.Topology.route_hops`):

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

from typing import Callable, Optional, Sequence, Tuple

from repro.fabric.packet import Packet
from repro.fabric.topology import Hop

__all__ = ["Arrival", "flat_route", "flat_leg", "ingress"]

#: the arrival continuation of a route: called with the packet once it
#: has fully arrived (or been dropped; ``packet.dropped`` says which).
Arrival = Callable[[Packet], None]


class _HopWalk:
    """The multi-hop walk of :func:`_flat_walk` as a slotted object.

    Calling the instance starts the walk at hop 0; each hop schedules
    ``_forward`` (after the port pipe, where there is one), which in
    turn schedules ``_advance`` for the next hop after the forwarding
    latency.  An object rather than a recursive closure: a closure
    that schedules itself refers to its own cell, a reference cycle per
    message; finished walks here are reclaimed by reference counting
    alone.
    """

    __slots__ = ("fabric", "sim", "config", "rng", "packet", "hops",
                 "unordered", "finish", "index", "latency")

    def __init__(self, fabric, sim, config, rng, packet: Packet,
                 hops: Sequence[Hop], unordered: bool,
                 finish: Callable[[], None]):
        self.fabric = fabric
        self.sim = sim
        self.config = config
        self.rng = rng
        self.packet = packet
        self.hops = hops
        self.unordered = unordered
        self.finish = finish
        self.index = 0
        self.latency = 0

    def __call__(self) -> None:
        self._advance()

    def _advance(self) -> None:
        index = self.index
        if index == len(self.hops):
            self.finish()
            return
        hop = self.hops[index]
        latency = hop.latency_ns
        if index == 0 and self.unordered and self.config.ud_jitter_ns:
            latency += self.rng.randrange(self.config.ud_jitter_ns)
        assert type(latency) is int, "hop latency must be integer ns"
        self.index = index + 1
        self.latency = latency
        if hop.port is None:
            self._forward()
        else:
            pipe = hop.port.pipe
            wire_bytes = self.packet.wire_bytes
            links = self.fabric.telemetry.links
            if links is not None:
                links.pipe("trunk", hop.port.name, pipe,
                           pipe._serialization_ns(wire_bytes), 0, 0,
                           self.packet.flow)
            pipe.submit_train(wire_bytes, self._forward)

    def _forward(self) -> None:
        self.sim.call_later(self.latency, self._advance)


def ingress(fabric, packet: Packet, lossy: bool,
            on_arrival: Arrival) -> Callable[[], None]:
    """The end of a delivered walk: the loss draw, the destination's
    ingress pipe, then ``on_arrival(packet)`` — called in place at the
    ingress completion (or at the drop), no queue entry of its own.
    """
    config = fabric.config
    rng = fabric._rng

    def deliver() -> None:
        fabric.delivered_messages += 1
        on_arrival(packet)

    def enter() -> None:
        if lossy and config.ud_loss_probability > 0:
            if rng.random() < config.ud_loss_probability:
                packet.dropped = True
                fabric.dropped_messages += 1
                on_arrival(packet)
                return
        fabric.nodes[packet.dst_node].nic.submit_rx(
            packet.wire_bytes, packet.dst_qpn, deliver, flow=packet.flow)

    return enter


def _flat_walk(fabric, packet: Packet, hops: Sequence[Hop],
               unordered: bool,
               finish: Callable[[], None]) -> Callable[[], None]:
    """Build the flat-callback hop walk; returns its entry point.

    The walk ends in ``finish``: :func:`ingress` for a delivery, the
    fan-out for a multicast trunk.
    """
    sim = fabric.sim
    config = fabric.config
    rng = fabric._rng

    # Specialized shapes for the hot cases — the same heap entries and
    # RNG draw positions as the generic walker, without its object.
    # Latencies are already validated integers (the Hop constructor is
    # the rounding boundary), so the invariant holds by construction.
    if not hops:  # loopback: the HCA turns the packet around
        return finish
    if len(hops) == 1 and hops[0].port is None:
        base = hops[0].latency_ns
        if unordered and config.ud_jitter_ns:
            jitter = config.ud_jitter_ns

            def single_jittered() -> None:
                sim.call_later(base + rng.randrange(jitter), finish)

            return single_jittered

        def single() -> None:
            sim.call_later(base, finish)

        return single

    return _HopWalk(fabric, sim, config, rng, packet, hops, unordered,
                    finish)


def flat_route(fabric, packet: Packet, hops: Tuple[Hop, ...],
               unordered: bool, finish: Callable[[], None],
               on_egress: Optional[Callable[[], None]] = None) -> None:
    """Route one train: egress pipe, then the hop walk into ``finish``.

    The egress pipe is charged here, at the call; ``on_egress()`` runs
    in place once the train has left the sender's port, right after the
    walk's first hop is scheduled.  The only per-packet allocations are
    the stage closures — no Process, no generator frame, no Event.
    """
    walk = _flat_walk(fabric, packet, hops, unordered, finish)

    def after_egress() -> None:
        walk()
        if on_egress is not None:
            on_egress()

    fabric.nodes[packet.src_node].nic.submit_tx(
        packet.wire_bytes, after_egress, flow=packet.flow)


def flat_leg(fabric, packet: Packet, hops: Tuple[Hop, ...],
             on_arrival: Arrival) -> None:
    """One multicast leg: the walk without an egress stage (the trunk
    already paid the sender's port once for the whole group).  Legs are
    datagrams: always unordered and lossy.  The walk starts in place."""
    _flat_walk(fabric, packet, hops, True,
               ingress(fabric, packet, True, on_arrival))()
