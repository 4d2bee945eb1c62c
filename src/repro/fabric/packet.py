"""Wire-level message descriptors exchanged between simulated NICs.

:class:`Packet` is one message at the granularity the verbs layer deals
in (one work request's worth of data); the fabric charges every pipe
once per message for its ``wire_bytes``, the headers of all its
back-to-back MTU packets included.

Endpoints and the verbs layer construct messages through
:func:`make_train`, which derives wire bytes from the transport, rather
than building ``Packet`` objects by hand; linter rule VS108 enforces
this outside ``fabric/``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.fabric.config import NetworkConfig

__all__ = ["Packet", "make_train", "clone_for_member"]


@dataclass(slots=True, init=False)
class Packet:
    """One message travelling through the fabric, ``wire_bytes`` on
    the wire.

    The message is the unit the fabric charges pipes with, and the
    unit of every per-message count (credits, CQEs, delivery
    accounting, links records).  It validates in its own ``__init__``.
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
    payload: Any
    #: a dict of an emulated baseline's protocol fields (MPI tags, TCP
    #: segment flags); ``None`` for verbs traffic, which carries none.
    meta: Any
    #: set True by the fabric when loss injection dropped this packet.
    dropped: bool
    #: causal flow id (repro.telemetry.links); 0 when recording is off.
    flow: int

    def __init__(self, src_node: int, dst_node: int, src_qpn: int,
                 dst_qpn: int, kind: str, length: int, wire_bytes: int,
                 payload: Any = None, meta: Any = None,
                 dropped: bool = False, flow: int = 0):
        if length < 0:
            raise ValueError(f"negative packet length: {length}")
        if wire_bytes < length:
            raise ValueError(
                f"wire bytes ({wire_bytes}) smaller than payload "
                f"({length})"
            )
        self.src_node = src_node
        self.dst_node = dst_node
        self.src_qpn = src_qpn
        self.dst_qpn = dst_qpn
        self.kind = kind
        self.length = length
        self.wire_bytes = wire_bytes
        self.payload = payload
        self.meta = meta
        self.dropped = dropped
        self.flow = flow


def make_train(config: "NetworkConfig", src_node: int, dst_node: int,
               src_qpn: int, dst_qpn: int, kind: str, length: int = 0,
               transport: Optional[str] = None,
               wire_bytes: Optional[int] = None, payload: Any = None,
               meta: Optional[dict] = None, flow: int = 0) -> Packet:
    """Build the train for one message — the only sanctioned way to
    construct fabric traffic outside ``fabric/`` (linter rule VS108).

    With ``transport`` given ("RC" or "UD"), wire bytes are derived from
    ``config`` by :meth:`NetworkConfig.wire_bytes`; control messages
    (ACKs, read requests, emulated-protocol frames) pass an explicit
    ``wire_bytes`` instead.  The verbs layer's per-message trains pass
    the fields positionally, in this order: keywords cost more.
    """
    if wire_bytes is None:
        if transport is None:
            raise ValueError("make_train needs transport= or wire_bytes=")
        wire_bytes = config.wire_bytes(length, transport)
    # Positional: every message is built here, and a dataclass built by
    # keywords costs about twice as much (DESIGN.md, "Execution path").
    return Packet(src_node, dst_node, src_qpn, dst_qpn, kind, length,
                  wire_bytes, payload, meta, False, flow)


def clone_for_member(packet: Packet, node_id: int, qpn: int) -> Packet:
    """A multicast member's private copy of a replicated datagram.

    Carries the trunk's ``wire_bytes``, so each leg charges its path
    identically to the trunk; ``dropped`` is reset — loss is drawn per
    leg.
    """
    return Packet(packet.src_node, node_id, packet.src_qpn, qpn,
                  packet.kind, packet.length, packet.wire_bytes,
                  packet.payload, packet.meta, False, packet.flow)
