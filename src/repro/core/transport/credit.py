"""The paper's credit schemes as pluggable policy objects.

Three flow-control mechanisms appear in §4.4, all built on the same
primitive — a peer deposits an absolute value into registered memory (or
a datagram) and a host-side hook reacts:

* **Inlined-value credits** (§4.4.1, SR over RC): the receiver RDMA-
  Writes the absolute credit (total Receives posted) into a per-
  destination *credit word* at the sender — :class:`CreditWordBoard` on
  the sender, :func:`post_credit_word` on the receiver.
* **Credit datagrams** (§4.4.2, SR over UD): UD supports no RDMA Write,
  so the absolute credit travels as a small datagram —
  :class:`CreditDatagramPort` holds the small rotating buffer pools on
  both sides; the sender applies arrivals with :func:`grant_credit`.
* **FreeArr/ValidArr circular queues** (§4.4.3, RD/WR over RC): buffer
  addresses are produced into per-peer circular queues by inlined RDMA
  Writes — :class:`RingBoard` is the consumer side (registered region,
  per-peer slot ranges, write hook); :class:`~.rings.RingCursor` the
  producer side.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

from repro.memory import BufferPool
from repro.verbs.constants import OP_SEND, OP_WRITE
from repro.verbs.wr import SendWR

from repro.core.endpoint import MORE_DATA, Frame, FrameCarrier
from repro.core.transport.connections import (
    CreditSender,
    RCCreditReceiver,
    UDCreditReceiver,
)

__all__ = [
    "CREDIT_MSG_BYTES",
    "CREDIT_RECV_SLOTS",
    "CREDIT_SLOT_CAP",
    "CreditDatagramPort",
    "CreditWordBoard",
    "RingBoard",
    "grant_credit",
    "merge_credit",
    "post_credit_word",
    "release_credit",
]

#: wire size of a credit-return datagram (header-only message).
CREDIT_MSG_BYTES = 16
#: credit slots provisioned per peer for credit datagrams.
CREDIT_RECV_SLOTS = 8
#: total credit-slot cap per endpoint: the slots rotate through a shared
#: pool, so mesoscale peer counts do not need 8x slots each — two per
#: peer covers the worst incast burst (each peer has at most one credit
#: plus one keepalive in flight), and credit datagrams tolerate loss by
#: design (absolute values + keepalive), so an overflow degrades, never
#: wedges.
CREDIT_SLOT_CAP = 2048


def release_credit(posted: int, frequency: int) -> Optional[int]:
    """The absolute credit a receiver writes back once a release has
    brought its reposted Receives to ``posted``, or ``None`` between
    write-backs: one write-back per ``frequency`` Receives (§5.1.1)."""
    if posted % frequency == 0:
        return posted
    return None


def merge_credit(credit: int, value: int) -> int:
    """A sender's credit after an absolute ``value`` arrives: stale
    (reordered or duplicated) values are superseded by construction —
    the property that keeps the protocol stateless (§4.4.1-2)."""
    return value if value > credit else credit


def grant_credit(conn: CreditSender, value: int) -> None:
    """Apply an absolute credit value to a sender-side connection,
    waking its stalled threads (a connection nobody waited on yet has
    no signal to wake)."""
    credit = merge_credit(conn.credit, value)
    if credit != conn.credit:
        conn.credit = credit
        if conn.notify is not None:
            conn.notify.notify_all()


def post_credit_word(conn: RCCreditReceiver, value: int) -> None:
    """Receiver half of the §4.4.1 scheme: write the absolute credit
    (Receives posted so far) into the sender's credit word, inlined into
    the WQE to save the payload DMA fetch [16].

    A correct receiver advertises at most ``conn.posted``; the sanitizer
    flags any value beyond it (credit with no Receives behind it).
    """
    san = conn.qp.ctx.telemetry.sanitizer
    if san is not None:
        san.on_credit_issued(conn, value)
    conn.qp.post_send(SendWR(("credit", conn.endpoint), OP_WRITE, None, 0,
                             conn.credit_addr, None, value, False, True))


class CreditWordBoard:
    """Sender half of the §4.4.1 scheme: one credit word per destination,
    written remotely by receivers; arrivals grant credit."""

    __slots__ = ("mr",)

    @classmethod
    def install(cls, ep):
        """Process fragment: register the credit words of ``ep`` (one per
        destination), wire the write hook, and return the per-destination
        address map for the bootstrap exchange."""
        board = cls()
        board.mr = yield from ep.ctx.reg_mr_timed(
            8 * len(ep.destinations), tenant=ep.config.tenant)
        addr_by_dest = {}
        conns = []
        for i, dest in enumerate(ep.destinations):
            addr_by_dest[dest] = board.mr.addr + 8 * i
            conns.append(ep.conns[dest])

        base = board.mr.addr

        def on_write(addr: int, value: int) -> None:
            grant_credit(conns[(addr - base) // 8], value)

        board.mr.on_write.append(on_write)
        ep.aux_mrs.append(board.mr)
        return addr_by_dest


class RingBoard:
    """Consumer side of per-peer circular message queues (FreeArr or
    ValidArr): one registered region carved into ``cap``-slot rings, one
    per peer, updated by inlined remote Writes.  Every write of a
    non-zero value is routed to ``on_value(key, value)``; the rings lie
    in key order, so a write finds its ring by division.

    The region's write hook owns the board; the endpoint it routes to
    must not keep it, or the two form a cycle no ``dispose()`` sees."""

    __slots__ = ("mr", "cap", "base_by_key", "_keys", "_ring_bytes",
                 "_on_value", "_ep", "name", "validator")

    @classmethod
    def install(cls, ep, keys: Sequence[Any], cap: int,
                on_value: Callable[[Any, int], None],
                min_one: bool = False, name: str = "ring",
                validator: Optional[Callable[[Any, int], bool]] = None):
        """Process fragment: register ``8 * cap`` bytes per key (at least
        one ring when ``min_one``), wire the write hook, and return the
        board (``base_by_key`` feeds the bootstrap exchange).

        ``validator(key, value)`` — optional semantic check consulted by
        the sanitizer on every consumed value (e.g. "this FreeArr address
        names a buffer we actually have in flight"); return ``False`` to
        flag a board inconsistency.
        """
        board = cls()
        board.cap = cap
        board._on_value = on_value
        board._ep = ep
        board.name = name
        board.validator = validator
        count = max(1, len(keys)) if min_one else len(keys)
        # Test doubles install boards on bare namespaces with no config.
        tenant = getattr(getattr(ep, "config", None), "tenant", None)
        board.mr = yield from ep.ctx.reg_mr_timed(
            8 * cap * count, tenant=tenant)
        board._keys = list(keys)
        board._ring_bytes = 8 * cap
        board.base_by_key = {key: board.mr.addr + 8 * cap * i
                             for i, key in enumerate(keys)}
        board.mr.on_write.append(board._route)
        ep.aux_mrs.append(board.mr)
        return board

    def _route(self, addr: int, value: int) -> None:
        if value == 0:
            return
        base = self.mr.addr
        ring = (addr - base) // self._ring_bytes
        if 0 <= ring < len(self._keys):
            key = self._keys[ring]
            san = self._ep.ctx.telemetry.sanitizer
            if san is not None:
                san.on_ring_consume(self, base + ring * self._ring_bytes,
                                    key, value)
            self._on_value(key, value)


class CreditDatagramPort:
    """Both halves of the §4.4.2 scheme's buffering: a small rotating
    pool of header-sized buffers — receive slots for incoming credit on
    the sender, send slots for outgoing credit on the receiver (credit
    datagrams complete fast, so a short rotation per peer suffices).

    On the receiver the pool is registered-memory accounting only: a
    credit datagram carries its value in a :class:`FrameCarrier`, so that
    side builds no :class:`~repro.memory.Buffer`."""

    __slots__ = ("qp", "endpoint_id", "pool")

    def __init__(self, ep, peer_count: int):
        # The port keeps the endpoint's shared UD QP and id, not the
        # endpoint: the endpoint holds the port, and a pointer back
        # would be a cycle dispose() cannot see.
        self.qp = ep.qp
        self.endpoint_id = ep.endpoint_id
        slots = min(CREDIT_RECV_SLOTS * max(1, peer_count), CREDIT_SLOT_CAP)
        self.pool = BufferPool(ep.ctx, slots, CREDIT_MSG_BYTES,
                               tenant=ep.config.tenant)
        ep.aux_pools.append(self.pool)

    def post_recv_slots(self) -> None:
        """Post every slot as a Receive for incoming credit datagrams."""
        self.qp.post_recv_run(self.pool, CREDIT_MSG_BYTES)

    def repost(self, buf) -> None:
        """Recycle a consumed credit-receive slot."""
        self.qp.post_recv_buffer(buf, CREDIT_MSG_BYTES)

    def post_credit(self, conn: UDCreditReceiver,
                    value: Optional[int] = None) -> None:
        """Send ``conn.posted`` (or an explicit ``value``, which the
        sanitizer checks against it) as an absolute-credit datagram; it
        also reports the messages received and the final's total, if
        seen, so the sender can tell what was lost."""
        if value is None:
            value = conn.posted
        ctx = self.qp.ctx
        san = ctx.telemetry.sanitizer
        if san is not None:
            san.on_credit_issued(conn, value, node_id=ctx.node_id)
        frame = Frame("credit", MORE_DATA, self.endpoint_id, conn.received,
                      conn.expected, None, 0, 0, value)
        self.qp.post_send(SendWR(("credit", conn.endpoint), OP_SEND,
                                 FrameCarrier(frame), CREDIT_MSG_BYTES, 0,
                                 conn.ah, None, False))
