"""RDMA Send/Receive over Unreliable Datagram (§4.4.2, Figure 6).

A *single* Queue Pair per endpoint communicates with every other node —
the property that keeps the design's footprint at Θ(1) QPs and makes it
scale (Table 1, Figs 10-11).  The price is software error handling:

* Messages are capped at the MTU (4 KiB) and may arrive out of order.
* The same stateless credit protocol as §4.4.1 synchronizes sender and
  receiver, but since UD supports no RDMA Write, credit returns travel as
  small datagrams carrying the absolute credit value.  Because the value
  is absolute, reordered or lost credit messages are superseded by the
  next one (the receiver additionally re-advertises credit on a slow
  keepalive so a lost final credit cannot wedge the sender).  It also
  reports what has arrived, so the sender can recover lost datagrams.
* End of stream is detected by *message counting*: the sender counts
  datagrams per destination and ships the total in a final marker; the
  receiver compares totals with its own counts, waits up to the drain
  timeout for stragglers, and declares a network error (query restart)
  if they never reconcile — the set-oriented insight that lets a database
  use UD without a reorder buffer (§1, §4.4.2).

The credited send/release algorithms live in the shared transport runtime
(:mod:`repro.core.transport.runtime`); this module is the UD posting
policy: one shared QP, address handles per peer, credit datagrams, and
the message-counting end-of-stream machinery.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from repro.core.endpoint import (
    EndpointConfig,
    Frame,
    FrameCarrier,
    ShuffleNetworkError,
)
from repro.core.transport.connections import (
    UDCreditReceiver,
    UDCreditSender,
)
from repro.core.transport.credit import (
    CreditDatagramPort,
    grant_credit,
)
from repro.core.transport.dispatch import CompletionDispatcher
from repro.core.transport.runtime import (
    CreditedReceiveEndpoint,
    CreditedSendEndpoint,
    ensure_ud_message_size,
)
from repro.memory import Buffer
from repro.verbs.cm import EndpointRegistry, create_ah, setup_ud_qp
from repro.verbs.constants import OP_RECV, OP_SEND, QPT_UD
from repro.verbs.device import VerbsContext
from repro.verbs.wr import SendWR

__all__ = ["SRUDSendEndpoint", "SRUDReceiveEndpoint"]

#: how long a receiver waits for outstanding datagrams after the
#: sent/received totals disagree, before declaring a network error and
#: forcing a query restart (§4.4.2).  The credit keepalive re-advertises
#: every quarter of it.
DRAIN_TIMEOUT_NS = 50_000_000


class SRUDSendEndpoint(CreditedSendEndpoint):
    """SEND endpoint using RDMA Send over Unreliable Datagram."""

    def __init__(self, ctx: VerbsContext, endpoint_id: int,
                 config: EndpointConfig, destinations: Sequence[int],
                 num_groups: int, peers: Dict[int, int], threads: int = 1):
        ensure_ud_message_size(ctx, config)
        super().__init__(ctx, endpoint_id, config, destinations,
                         num_groups, peers, threads)
        self._credit_in: CreditDatagramPort = None

    def setup(self, registry: EndpointRegistry):
        self.cq = self.ctx.create_cq()
        # The single shared UD queue aggregates every peer's credit-receive
        # slots, so size it to the device limit rather than the default
        # (8 slots x 1023 peers overflows 4096 at mesoscale).
        self.qp = self.ctx.create_qp(
            QPT_UD, self.cq, self.cq,
            max_recv_wr=self.ctx.config.max_qp_depth,
            tenant=self.config.tenant)
        yield from setup_ud_qp(self.ctx, self.qp)
        for dest in self.destinations:
            self.conns[dest] = UDCreditSender(dest)
        yield from self.provision_send_pool()
        # Small receive slots for incoming credit datagrams.
        self._credit_in = CreditDatagramPort(self, len(self.destinations))
        self._credit_in.post_recv_slots()
        registry.publish_endpoint(self.endpoint_id, {
            "qpn": self.qp.qpn,
        })

    def connect(self, registry: EndpointRegistry):
        for dest in self.destinations:
            conn = self.conns[dest]
            info = registry.lookup_endpoint(self.peers[dest])
            conn.ah = yield from create_ah(self.ctx, dest, info["qpn"])
            conn.credit = info["initial_credit"]
        CompletionDispatcher(self) \
            .on(OP_SEND, self.data_recycler()) \
            .on(OP_RECV, self._on_credit) \
            .start()

    def _on_credit(self, wc) -> None:
        """Apply a credit-datagram arrival and recycle its receive slot.

        The datagram also reports what the receiver holds (``seq``) and
        whether it saw the final (``total``).  Short of what was sent a
        keepalive period after the last post means lost, as no datagram
        is in flight that long.  A lost datagram took no Receive, so its
        credit comes back (the final's total still counts it, for
        message counting to detect), and a lost final is sent again."""
        buf: Buffer = wc.wr_id
        frame: Frame = buf.payload
        # A credit datagram names the receiving endpoint; it counts only
        # if that is this sender's peer on the node it came from.
        if frame.kind == "credit" and \
                self.peers.get(wc.src_node) == frame.src_endpoint:
            conn = self.conns[wc.src_node]
            grant_credit(conn, frame.credit)
            if frame.seq < conn.sent and \
                    self.sim.now - conn.last_post >= DRAIN_TIMEOUT_NS // 4:
                resend = conn.final_sent and frame.total is None
                conn.lost += conn.sent - frame.seq - resend
                conn.sent = frame.seq
                if resend:
                    self.sim.process(self._send_final(conn.node))
                elif conn.notify is not None:
                    conn.notify.notify_all()
        self._credit_in.repost(buf)

    # -- UD posting policy -------------------------------------------------

    def _consume_credit(self, conn: UDCreditSender) -> None:
        CreditedSendEndpoint._consume_credit(self, conn)
        conn.last_post = self.sim.now

    def _post_data(self, conn: UDCreditSender, buf: Buffer,
                   frame: Frame) -> None:
        self.qp.post_send(SendWR(("data", buf), OP_SEND, FrameCarrier(frame),
                                 buf.length, 0, conn.ah))

    def _post_final(self, conn: UDCreditSender, dest: int,
                    frame: Frame) -> None:
        conn.final_sent = True
        self.qp.post_send(SendWR(
            wr_id=("final", dest), opcode=OP_SEND,
            buffer=FrameCarrier(frame), length=0, dest=conn.ah,
            signaled=False,
        ))


class SRUDReceiveEndpoint(CreditedReceiveEndpoint):
    """RECEIVE endpoint using RDMA Receive over Unreliable Datagram."""

    def __init__(self, ctx: VerbsContext, endpoint_id: int,
                 config: EndpointConfig,
                 sources: Sequence[Tuple[int, int]], threads: int = 1):
        ensure_ud_message_size(ctx, config)
        super().__init__(ctx, endpoint_id, config, sources, threads)
        self._credit_out: CreditDatagramPort = None

    def setup(self, registry: EndpointRegistry):
        self.cq = self.ctx.create_cq()
        # One shared queue holds every source's posted data buffers; use
        # the device-limit depth so mesoscale source counts fit.
        self.qp = self.ctx.create_qp(
            QPT_UD, self.cq, self.cq,
            max_recv_wr=self.ctx.config.max_qp_depth,
            tenant=self.config.tenant)
        yield from setup_ud_qp(self.ctx, self.qp)
        per_link = self.buffers_per_link
        yield from self.provision_recv_pool()
        self.qp.post_recv_run(self.pool, self.config.message_size)
        for _src_node, src_ep in self.sources:
            self.conns[src_ep] = UDCreditReceiver(src_ep, per_link)
        # Tiny buffers for outgoing credit datagrams; they complete fast,
        # so a small rotation per source suffices.
        self._credit_out = CreditDatagramPort(self, len(self.sources))
        registry.publish_endpoint(self.endpoint_id, {
            "qpn": self.qp.qpn,
            "initial_credit": per_link,
        })

    def connect(self, registry: EndpointRegistry):
        for src_node, src_ep in self.sources:
            conn = self.conns[src_ep]
            info = registry.lookup_endpoint(src_ep)
            conn.ah = yield from create_ah(self.ctx, src_node, info["qpn"])
        CompletionDispatcher(self).on(OP_RECV, self._on_receive).start()
        self.sim.process(
            self._credit_keepalive(), name=f"sr-ud-keepalive-{self.endpoint_id}")

    # -- data path ---------------------------------------------------------------

    def _on_receive(self, wc) -> None:
        buf: Buffer = wc.wr_id
        frame: Frame = buf.payload
        conn = self.conns.get(frame.src_endpoint)
        if conn is None:
            # Stray datagram from an unknown endpoint: drop it.
            self.qp.post_recv_buffer(buf, self.config.message_size)
            return
        conn.received += 1
        if frame.kind == "data":
            buf.deposit(frame.payload, frame.length)
            self._deliver(frame.src_endpoint, frame.remote_addr, buf,
                          flow=wc.flow)
        elif frame.kind == "final":
            conn.expected = frame.total
            self.qp.post_recv_buffer(buf, self.config.message_size)
        if conn.expected is not None:
            self._check_link_complete(conn)

    def _check_link_complete(self, conn: UDCreditReceiver) -> None:
        """Once the final's total is known: done, or wait for stragglers."""
        if conn.received >= conn.expected:
            self._source_depleted(conn)
        elif not conn.draining:
            # Out-of-order delivery means stragglers are *common* at end
            # of stream; give them the drain window before declaring loss.
            conn.draining = True
            self.sim.process(
                self._drain_watch(conn),
                name=f"sr-ud-drain-{self.endpoint_id}-{conn.endpoint}")

    def _drain_watch(self, conn: UDCreditReceiver):
        yield DRAIN_TIMEOUT_NS
        if conn.expected is not None and conn.received < conn.expected:
            self._fail(ShuffleNetworkError(
                f"endpoint {self.endpoint_id}: source {conn.endpoint} "
                f"sent {conn.expected} messages but only {conn.received} "
                f"arrived within the drain timeout — restarting the query"
            ))

    def _credit_keepalive(self):
        """Periodically re-advertise absolute credit to active sources.

        Credit datagrams can be lost; because values are absolute this
        retransmission is idempotent and unwedges a starved sender.
        """
        while self._live_sources:
            yield DRAIN_TIMEOUT_NS // 4
            # Wiring order (``conns`` was filled in source order): which
            # credit datagram leaves first must not depend on the
            # integer values of endpoint ids.
            for conn in self.conns.values():
                if not conn.depleted:
                    self._credit_out.post_credit(conn)

    # -- UD posting policy -------------------------------------------------

    def _repost(self, conn: UDCreditReceiver, local: Buffer) -> None:
        self.qp.post_recv_buffer(local, self.config.message_size)

    def _return_credit(self, conn: UDCreditReceiver, value: int) -> None:
        self._credit_out.post_credit(conn, value)
