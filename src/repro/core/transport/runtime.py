"""Shared endpoint runtime: the algorithms the designs are policies over.

:class:`RuntimeSendEndpoint` / :class:`RuntimeReceiveEndpoint` add the
transport plumbing every design needs — the per-peer
:class:`~.connections.ConnectionTable`, the in-flight
:class:`~.rings.PendingTable`, and pool provisioning sized by the §4.2
rules (sender pools scale with transmission groups, receiver pools with
sources).

:class:`CreditedSendEndpoint` / :class:`CreditedReceiveEndpoint` add the
credit-synchronized two-sided data path shared verbatim by the SR/RC and
SR/UD designs (Algorithm 1's SEND loop and the RELEASE/credit write-back
of §4.4.1-2); subclasses supply only the posting primitives
(:meth:`_post_data` / :meth:`_post_final` / :meth:`_repost` /
:meth:`_return_credit`).

Per-message semantics over packet trains
----------------------------------------
Everything at this layer observes *messages*: one credit consumed per
send, one CQE per signaled work request, one RELEASE per delivered
buffer.  Below the verbs API a multi-MTU RC message traverses the
fabric as a single :class:`~repro.fabric.packet.PacketTrain` — the
endpoint never sees the segmentation,
exactly as real hardware hides per-packet ACK/retransmit behind one
work completion.  The ``trains_sent`` / ``train_packets_sent``
counters record the equivalence (UD messages are MTU-capped, so their
trains are always one packet); they are diagnostic attributes, kept
off telemetry snapshots so train bookkeeping can never perturb the
train-vs-per-packet reference check.
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence, Tuple

from repro.memory import Buffer, BufferPool
from repro.verbs.device import VerbsContext

from repro.core.endpoint import (
    DataState,
    EndpointConfig,
    Frame,
    ReceiveEndpoint,
    SendEndpoint,
)
from repro.core.transport.connections import ConnectionTable, PeerConnection
from repro.core.transport.rings import PendingTable

__all__ = [
    "CreditedReceiveEndpoint",
    "CreditedSendEndpoint",
    "RuntimeReceiveEndpoint",
    "RuntimeSendEndpoint",
    "ensure_ud_message_size",
]


def ensure_ud_message_size(ctx: VerbsContext, config: EndpointConfig) -> None:
    """UD messages are MTU-capped (§2.2.2); reject oversized configs."""
    if config.message_size > ctx.config.mtu:
        raise ValueError(
            f"UD message size {config.message_size} exceeds the MTU "
            f"{ctx.config.mtu} (§2.2.2)"
        )


class RuntimeSendEndpoint(SendEndpoint):
    """SEND endpoint on the shared transport runtime."""

    def __init__(self, ctx: VerbsContext, endpoint_id: int,
                 config: EndpointConfig, destinations: Sequence[int],
                 num_groups: int, peers: Dict[int, int]):
        super().__init__(ctx, endpoint_id, config, destinations, num_groups)
        #: destination node id -> receiving endpoint id.
        self.peers = dict(peers)
        #: per-destination transport state, keyed by destination node id.
        self.conns = ConnectionTable()
        #: buffers in flight, refcounted per destination (§5.1.3).
        self._pending = PendingTable()
        self.cq = None
        #: messages posted and the MTU packets their trains carry
        #: (diagnostic only — deliberately off telemetry snapshots).
        self.trains_sent = 0
        self.train_packets_sent = 0

    @property
    def send_pool_buffers(self) -> int:
        """Transmission buffers: per-connection window x groups x threads."""
        return (self.config.buffers_per_connection * self.num_groups *
                self.config.threads_per_endpoint)

    def provision_send_pool(self, extra: int = 0):
        """Process fragment: charge registration, carve the transmission
        pool (plus ``extra`` reserved buffers, e.g. final markers), and
        feed the non-reserved buffers to the GETFREE free list."""
        total = self.send_pool_buffers + extra
        yield from self._charge_registration(total * self.config.message_size)
        self.pool = BufferPool(self.ctx, total, self.config.message_size,
                               tenant=self.config.tenant)
        for buf in self.pool.buffers[:self.send_pool_buffers]:
            self._free.put(buf)
        return self.pool

    def recycle(self, buf: Buffer) -> None:
        """Return a transmission buffer to the free list."""
        buf.reset()
        self._free.put(buf)

    def data_recycler(self, tag: str = "data") -> Callable:
        """Completion handler recycling buffers once every destination's
        transmission of them completed (``wr_id == (tag, buffer)``)."""
        def handler(wc) -> None:
            kind, ref = wc.wr_id
            if kind != tag:
                return
            if self._pending.complete(ref):
                self.recycle(ref)
        return handler


class CreditedSendEndpoint(RuntimeSendEndpoint):
    """Two-sided SEND data path under stateless credit (§4.4.1-2)."""

    def _consume_credit(self, conn: PeerConnection) -> None:
        """Account one message against ``conn``'s credit window.  Every
        send path must come through here so the sanitizer can observe
        credit underflow at the exact posting site."""
        conn.sent += 1
        san = self.ctx.telemetry.sanitizer
        if san is not None:
            san.on_credit_consumed(self, conn)

    def send(self, buf: Buffer, dests: Sequence[int], state: DataState):
        # Per-call bookkeeping is serialized: this is the shared-endpoint
        # contention the SE configurations pay for.
        yield from self.lock.critical_section(
            self.net.cpu(self.net.endpoint_send_ns))
        self._pending.add(buf, len(dests))
        for dest in dests:
            conn = self.conns[dest]
            yield from self._wait_credit(conn)
            self._consume_credit(conn)
            frame = Frame(
                kind="data", state=state, src_endpoint=self.endpoint_id,
                seq=conn.sent, payload=buf.payload, length=buf.length,
                remote_addr=buf.addr,
            )
            yield self._cpu(self.net.post_wr_ns)
            self._post_data(conn, buf, frame)
            self.trains_sent += 1
            self.train_packets_sent += max(
                1, -(-buf.length // self.ctx.config.mtu))
            self.record_send(dest, buf.length)

    def _send_finals(self):
        # End-of-stream markers carry the per-connection send total
        # (message counting, §4.4.2; harmless extra state under RC).
        for dest in self.destinations:
            conn = self.conns[dest]
            yield from self._wait_credit(conn)
            self._consume_credit(conn)
            frame = Frame(
                kind="final", state=DataState.DEPLETED,
                src_endpoint=self.endpoint_id, seq=conn.sent,
                total=conn.sent,
            )
            yield self._cpu(self.net.post_wr_ns)
            self._post_final(conn, dest, frame)

    # -- posting policy supplied by the design -----------------------------

    def _post_data(self, conn: PeerConnection, buf: Buffer,
                   frame: Frame) -> None:
        raise NotImplementedError

    def _post_final(self, conn: PeerConnection, dest: int,
                    frame: Frame) -> None:
        raise NotImplementedError


class RuntimeReceiveEndpoint(ReceiveEndpoint):
    """RECEIVE endpoint on the shared transport runtime."""

    def __init__(self, ctx: VerbsContext, endpoint_id: int,
                 config: EndpointConfig, sources: Sequence[Tuple[int, int]]):
        super().__init__(ctx, endpoint_id, config, sources)
        #: per-source transport state, keyed by source *endpoint* id
        #: (frames and circular-queue updates carry endpoint ids).
        self.conns = ConnectionTable()
        self.cq = None

    @property
    def recv_pool_buffers(self) -> int:
        """Receive buffers: the per-link window for every source."""
        return self.config.buffers_per_link * max(1, len(self.sources))

    def provision_recv_pool(self):
        """Process fragment: charge registration and carve the pool."""
        total = self.recv_pool_buffers
        yield from self._charge_registration(total * self.config.message_size)
        self.pool = BufferPool(self.ctx, total, self.config.message_size,
                               tenant=self.config.tenant)
        return self.pool


class CreditedReceiveEndpoint(RuntimeReceiveEndpoint):
    """Two-sided RELEASE path issuing stateless credit (§4.4.1-2)."""

    def release(self, remote_addr: int, local: Buffer, src: int):
        yield from self.lock.critical_section(
            self.net.cpu(self.net.post_wr_ns))
        conn = self.conns[src]
        local.reset()
        self._repost(conn, local)
        conn.posted += 1
        if conn.posted % self.config.credit_frequency == 0:
            # Credit is issued strictly after the Receive is reposted and
            # amortized over credit_frequency Receives (§5.1.1).
            yield self._cpu(self.net.post_wr_ns)
            links = self.ctx.telemetry.links
            if links is not None:
                # Causal edge: the credit WR posted synchronously below is
                # triggered by the data flow that occupied this buffer.
                links.pending_trigger = links.buffer_flow(local)
            self._return_credit(conn)

    # -- posting policy supplied by the design -----------------------------

    def _repost(self, conn: PeerConnection, local: Buffer) -> None:
        raise NotImplementedError

    def _return_credit(self, conn: PeerConnection) -> None:
        raise NotImplementedError
