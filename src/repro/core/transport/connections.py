"""Per-peer connection records and the RC connect loops.

Every endpoint design keeps one record per peer — the Queue Pair (or UD
address handle) plus whatever its flow-control scheme tracks — in a
plain ``conns`` dict keyed by peer id.  A cluster of ``n`` nodes holds
``n²`` of them on each side, so a record carries only the fields of its
role, and never one that another role needs:

* credit senders (§4.4.1-2): :class:`RCCreditSender` and
  :class:`UDCreditSender` — the sent count, the absolute credit and the
  signal a stalled thread waits on;
* credit receivers: :class:`RCCreditReceiver` and
  :class:`UDCreditReceiver` — the posted Receives behind the credit,
  and on UD the message counting of end of stream;
* the one-sided ring sides (§4.4.3): :class:`RingSender` /
  :class:`WriteRingSender` producing into a peer's ValidArr, and
  :class:`RingReceiver` / :class:`ReadRingReceiver` producing into a
  peer's FreeArr.

Every receiver record carries its source's ``depleted`` flag, which the
endpoint's live-source count is kept by.  A sender's ``notify`` is
``None`` until a thread first waits on the connection.  A ring side's
cursor (and WR/RC's remote free list) is set when the connection is
made, from the peer's bootstrap info.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional

from repro.verbs.cm import EndpointRegistry, connect_rc_pair
from repro.verbs.constants import AddressHandle

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.transport.rings import RingCursor
    from repro.sim import Notify

__all__ = [
    "CreditReceiver",
    "CreditSender",
    "RCCreditReceiver",
    "RCCreditSender",
    "ReadRingReceiver",
    "RingReceiver",
    "RingSender",
    "SourceRecord",
    "UDCreditReceiver",
    "UDCreditSender",
    "WriteRingSender",
    "rc_connect_receivers",
    "rc_connect_senders",
]


# -- send side: keyed by destination node id -------------------------------

class CreditSender:
    """A credit-synchronized destination (§4.4.1): the sender transmits
    only while ``sent < credit``."""

    __slots__ = ("node", "sent", "lost", "credit", "notify")

    def __init__(self, node: int):
        #: destination node id.
        self.node = node
        self.sent = 0
        #: messages taken back from ``sent`` as lost (UD; the final's
        #: total still counts them).
        self.lost = 0
        self.credit = 0
        #: wakes threads stalled for credit; built on the first wait.
        self.notify: Optional[Notify] = None


class RCCreditSender(CreditSender):
    """SR/RC: the destination's own Queue Pair."""

    __slots__ = ("qp",)

    def __init__(self, node: int, qp):
        super().__init__(node)
        self.qp = qp


class UDCreditSender(CreditSender):
    """SR/UD: the destination's address handle on the shared QP, when
    the last message was posted to it, and whether that was the final."""

    __slots__ = ("ah", "last_post", "final_sent")

    def __init__(self, node: int):
        super().__init__(node)
        self.ah: Optional[AddressHandle] = None
        self.last_post = 0
        self.final_sent = False


class RingSender:
    """RD/RC: the destination's QP and its ValidArr producer cursor."""

    __slots__ = ("node", "qp", "valid")

    valid: RingCursor

    def __init__(self, node: int, qp):
        self.node = node
        self.qp = qp


class WriteRingSender(RingSender):
    """WR/RC: also the destination's free remote buffers (a LIFO) and
    the signal a thread waiting for one parks on (built on first wait)."""

    __slots__ = ("remote_free", "notify")

    remote_free: List[int]

    def __init__(self, node: int, qp):
        super().__init__(node, qp)
        self.notify: Optional[Notify] = None


# -- receive side: keyed by source endpoint id -----------------------------

class SourceRecord:
    """What every receiver record carries: the source endpoint id and
    whether that source's end of stream has been seen."""

    __slots__ = ("endpoint", "depleted")

    def __init__(self, endpoint: int):
        self.endpoint = endpoint
        self.depleted = False


class CreditReceiver(SourceRecord):
    """A credit-issuing source: the Receives posted for it so far."""

    __slots__ = ("posted",)

    def __init__(self, endpoint: int, posted: int):
        super().__init__(endpoint)
        self.posted = posted


class RCCreditReceiver(CreditReceiver):
    """SR/RC: the source's QP and the credit word it is written into."""

    __slots__ = ("qp", "credit_addr")

    def __init__(self, endpoint: int, posted: int, qp):
        super().__init__(endpoint, posted)
        self.qp = qp
        self.credit_addr = 0


class UDCreditReceiver(CreditReceiver):
    """SR/UD: the source's address handle and the message counting of
    end of stream (§4.4.2)."""

    __slots__ = ("ah", "received", "expected", "draining")

    def __init__(self, endpoint: int, posted: int):
        super().__init__(endpoint, posted)
        self.ah: Optional[AddressHandle] = None
        self.received = 0
        self.expected: Optional[int] = None
        self.draining = False


class RingReceiver(SourceRecord):
    """WR/RC: the source's QP and its FreeArr producer cursor."""

    __slots__ = ("qp", "free")

    free: RingCursor

    def __init__(self, endpoint: int, qp):
        super().__init__(endpoint)
        self.qp = qp


class ReadRingReceiver(RingReceiver):
    """RD/RC: also LocalArr (unused local buffers, a stack) and the
    announced remote addresses not yet read."""

    __slots__ = ("local_arr", "pending_remote")

    def __init__(self, endpoint: int, qp, local_arr, pending_remote):
        super().__init__(endpoint, qp)
        self.local_arr = local_arr
        self.pending_remote = pending_remote


def rc_connect_senders(ep, registry: EndpointRegistry,
                       bind: Optional[Callable] = None):
    """Process fragment: run the RC handshake for every sender-side
    connection of ``ep``.

    For each destination the peer RECEIVE endpoint's bootstrap info is
    looked up, the local QP connected to the peer's per-source QP, and
    ``bind(conn, info)`` invoked so the design can capture its wiring
    (initial credit, circular-queue bases, remote free buffers).
    """
    for dest in ep.destinations:
        conn = ep.conns[dest]
        info = registry.lookup_endpoint(ep.peers[dest])
        remote_qpn = info["qpn_by_source"][ep.endpoint_id]
        yield from connect_rc_pair(
            ep.ctx, conn.qp, AddressHandle(dest, remote_qpn))
        if bind is not None:
            bind(conn, info)


def rc_connect_receivers(ep, registry: EndpointRegistry,
                         bind: Optional[Callable] = None):
    """Process fragment: run the RC handshake for every receiver-side
    connection of ``ep`` (the mirror of :func:`rc_connect_senders`)."""
    for src_node, src_ep in ep.sources:
        conn = ep.conns[src_ep]
        info = registry.lookup_endpoint(src_ep)
        remote_qpn = info["qpn_by_dest"][ep.ctx.node_id]
        yield from connect_rc_pair(
            ep.ctx, conn.qp, AddressHandle(src_node, remote_qpn))
        if bind is not None:
            bind(conn, info)
