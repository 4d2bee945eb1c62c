"""Wire-level message descriptors exchanged between simulated NICs.

:class:`Packet` is one message at the granularity the verbs layer deals
in (one work request's worth of data), together with the number of
back-to-back MTU packets it occupies on the wire, so the fabric can
charge serialization for the whole train in one event while the
per-packet reference
(:meth:`~repro.fabric.network.Fabric.use_packet_oracle`) can still tick
every MTU boundary.

Endpoints and the verbs layer construct messages through
:func:`make_train` — the train-aware submit API — rather than building
``Packet`` objects by hand; linter rule VS108 enforces this outside
``fabric/``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.fabric.config import NetworkConfig

__all__ = ["Packet", "make_train", "clone_for_member"]


@dataclass(slots=True)
class Packet:
    """One message travelling through the fabric: ``n_packets``
    back-to-back MTU packets totalling ``wire_bytes`` on the wire.

    The message is the unit the fabric charges pipes with; per-message
    semantics (credits, CQEs, delivery accounting, links records) are
    unaffected by how many MTU packets it spans.
    """

    src_node: int
    dst_node: int
    src_qpn: int
    dst_qpn: int
    #: verb kind: "SEND", "READ_REQ", "READ_RESP", "WRITE", "ACK"
    kind: str
    #: payload size in bytes (excluding headers).
    length: int
    #: total bytes on the wire including per-packet headers.
    wire_bytes: int
    #: opaque payload reference (a Buffer's content, or control words).
    payload: Any = None
    #: extra verb-specific fields (remote addr, wr ids, immediate data).
    meta: dict = field(default_factory=dict)
    #: set True by the fabric when loss injection dropped this packet.
    dropped: bool = False
    #: causal flow id (repro.telemetry.links); 0 when recording is off.
    flow: int = 0
    #: back-to-back MTU packets the message occupies on the wire.
    n_packets: int = 1

    def __post_init__(self):
        if self.length < 0:
            raise ValueError(f"negative packet length: {self.length}")
        if self.wire_bytes < self.length:
            raise ValueError(
                f"wire bytes ({self.wire_bytes}) smaller than payload "
                f"({self.length})"
            )
        if self.n_packets < 1:
            raise ValueError(f"train needs >= 1 packets: {self.n_packets}")


def make_train(config: "NetworkConfig", *, src_node: int, dst_node: int,
               src_qpn: int, dst_qpn: int, kind: str, length: int = 0,
               transport: Optional[str] = None,
               wire_bytes: Optional[int] = None, payload: Any = None,
               meta: Optional[dict] = None, flow: int = 0) -> Packet:
    """Build the train for one message — the only sanctioned way to
    construct fabric traffic outside ``fabric/`` (linter rule VS108).

    With ``transport`` given ("RC" or "UD"), wire bytes and the MTU
    packet count are derived from ``config`` exactly as
    :meth:`NetworkConfig.wire_bytes` does; an explicit ``wire_bytes``
    (control messages: ACKs, read requests, emulated-protocol frames)
    is a single-packet train.
    """
    if wire_bytes is None:
        if transport is None:
            raise ValueError("make_train needs transport= or wire_bytes=")
        wire_bytes = config.wire_bytes(length, transport)
        if transport == "RC":
            n_packets = max(1, -(-length // config.mtu))
        else:  # UD: one datagram, at most one MTU
            n_packets = 1
    else:
        n_packets = 1
    return Packet(
        src_node=src_node, dst_node=dst_node, src_qpn=src_qpn,
        dst_qpn=dst_qpn, kind=kind, length=length, wire_bytes=wire_bytes,
        payload=payload, meta=meta if meta is not None else {}, flow=flow,
        n_packets=n_packets,
    )


def clone_for_member(packet: Packet, node_id: int, qpn: int) -> Packet:
    """A multicast member's private copy of a replicated datagram.

    Preserves the train shape (``n_packets``) so each leg charges its
    path identically to the trunk; ``dropped`` is reset — loss is drawn
    per leg.
    """
    return Packet(
        src_node=packet.src_node, dst_node=node_id,
        src_qpn=packet.src_qpn, dst_qpn=qpn, kind=packet.kind,
        length=packet.length, wire_bytes=packet.wire_bytes,
        payload=packet.payload, meta=packet.meta, flow=packet.flow,
        n_packets=packet.n_packets,
    )
