"""RDMA Read over Reliable Connection (§4.4.3, Figure 7, Algorithm 3).

One-sided design: during data transfer the SEND endpoint stays completely
passive; the RECEIVE endpoint pulls buffers with RDMA Read.  Coordination
happens through two circular message queues living in registered memory
and updated by inlined RDMA Writes:

* ``ValidArr`` (at the receiver, one per source) — the sender produces
  addresses of *full* buffers into it;
* ``FreeArr`` (at the sender, one per destination) — the receiver
  produces addresses of *consumed* buffers into it.

The receiver keeps a ``LocalArr`` stack of unused registered destination
buffers; an RDMA Read is issued whenever a valid remote address and a
local buffer are both available.  A sender's buffer becomes reusable only
once *every* member of the transmission group it was sent to has returned
it — which is why this design starves for buffers under broadcast when
any reader lags (§5.1.3).

The circular-queue machinery (producer cursors, consumer boards, inlined
ring writes) lives in the shared transport runtime; this module is the
RDMA Read posting policy: what gets produced into which ring, and the
read pump joining ValidArr with LocalArr.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Sequence, Tuple

from repro.core.endpoint import DEPLETED, DataState, EndpointConfig, Frame
from repro.core.transport.connections import (
    ReadRingReceiver,
    RingSender,
    rc_connect_receivers,
    rc_connect_senders,
)
from repro.core.transport.credit import RingBoard
from repro.core.transport.dispatch import CompletionDispatcher
from repro.core.transport.rings import RingCursor, post_ring_write
from repro.core.transport.runtime import ReceiveEndpoint, SendEndpoint
from repro.memory import Buffer
from repro.verbs.cm import EndpointRegistry
from repro.verbs.constants import OP_READ, QPT_RC
from repro.verbs.device import VerbsContext
from repro.verbs.wr import SendWR

__all__ = ["ReadRCSendEndpoint", "ReadRCReceiveEndpoint", "ring_caps"]


def ring_caps(sender_buffers: int) -> Tuple[int, int]:
    """``(ValidArr, FreeArr)`` slots per peer for a sender pool of
    ``sender_buffers``: either ring may hold every pool buffer at once,
    ValidArr the final marker too, plus slack (§4.4.3).  The model
    checker sizes its rings with this function."""
    return sender_buffers + 4, sender_buffers + 2


class ReadRCSendEndpoint(SendEndpoint):
    """Passive SEND endpoint for the RDMA Read design (Figure 7a)."""

    def __init__(self, ctx: VerbsContext, endpoint_id: int,
                 config: EndpointConfig, destinations: Sequence[int],
                 num_groups: int, peers: Dict[int, int], threads: int = 1):
        super().__init__(ctx, endpoint_id, config, destinations,
                         num_groups, peers, threads)
        self._final_bufs: Dict[int, Buffer] = {}

    def setup(self, registry: EndpointRegistry):
        self.cq = self.ctx.create_cq()
        for dest in self.destinations:
            self.conns[dest] = RingSender(dest, self.ctx.create_qp(
                QPT_RC, self.cq, self.cq, tenant=self.config.tenant))
        # Reserve one extra buffer per destination for the final markers.
        yield from self.provision_send_pool(extra=len(self.destinations))
        for i, dest in enumerate(self.destinations):
            self._final_bufs[dest] = self.pool.buffer(
                self.send_pool_buffers + i)
        self._final_addrs = {buf.addr for buf in self._final_bufs.values()}
        # FreeArr: one circular region per destination, written remotely.
        # A returned address must name a buffer this sender actually has
        # in flight; anything else is a board inconsistency.
        _, free_cap = ring_caps(self.send_pool_buffers)
        free_board = yield from RingBoard.install(
            self, self.destinations, free_cap, self._on_free_value,
            name="freearr",
            validator=lambda dest, value: value in self._pending)
        registry.publish_endpoint(self.endpoint_id, {
            "qpn_by_dest": {d: c.qp.qpn for d, c in self.conns.items()},
            "freearr_base_by_dest": free_board.base_by_key,
            "freearr_cap": free_cap,
        })

    def connect(self, registry: EndpointRegistry):
        def bind(conn, info):
            conn.valid = RingCursor(
                info["validarr_base_by_source"][self.endpoint_id],
                info["validarr_cap"])

        yield from rc_connect_senders(self, registry, bind)
        # The sender's only active work is draining Write completions.
        CompletionDispatcher(self).start()

    def _on_free_value(self, dest: int, value: int) -> None:
        """A destination returned a buffer through FreeArr (Alg 3 l.8-14)."""
        if self._pending.complete(value):
            if value not in self._final_addrs:
                self.recycle(self.pool.at(value))

    # -- SEND (Alg 3, lines 1-5) ------------------------------------------------

    def send(self, buf: Buffer, dests: Sequence[int], state: DataState):
        wait = self.lock.acquire()
        if wait is not None:
            yield wait
        yield self.send_call_cost
        self.lock.release()
        frame = Frame("data", state, self.endpoint_id, 0, None, buf.payload,
                      buf.length, buf.addr)
        # Encode the metadata in the buffer itself (Alg 3 line 2): a
        # remote RDMA Read of buf.addr observes the frame.
        buf.mr.set_object(buf.addr, frame)
        self._pending.add(buf.addr, len(dests))
        for dest in dests:
            conn = self.conns[dest]
            yield self.post_wr_cost
            post_ring_write(conn.qp, conn.valid, buf.addr, ("valid", dest))
            self.record_send(dest, buf.length)

    def _send_finals(self):
        for dest in self.destinations:
            conn = self.conns[dest]
            buf = self._final_bufs[dest]
            frame = Frame(kind="final", state=DEPLETED,
                          src_endpoint=self.endpoint_id, remote_addr=buf.addr)
            buf.mr.set_object(buf.addr, frame)
            self._pending.add(buf.addr, 1)
            yield self.post_wr_cost
            post_ring_write(conn.qp, conn.valid, buf.addr, ("valid", dest))


class ReadRCReceiveEndpoint(ReceiveEndpoint):
    """Active RECEIVE endpoint for the RDMA Read design (Figure 7b)."""

    def setup(self, registry: EndpointRegistry):
        self.cq = self.ctx.create_cq()
        per_link = self.buffers_per_link
        yield from self.provision_recv_pool()
        # ValidArr: one circular region per source, written remotely; must
        # hold every buffer the sender could have outstanding plus finals.
        # The sender's exact pool depends on its group count, so assume
        # 64 link windows' worth (slots are 8 bytes each).
        valid_cap, _ = ring_caps(64 * per_link)
        valid_board = yield from RingBoard.install(
            self, [src_ep for _node, src_ep in self.sources],
            valid_cap, self._on_valid_value, min_one=True,
            name="validarr")
        for i, (_src_node, src_ep) in enumerate(self.sources):
            qp = self.ctx.create_qp(QPT_RC, self.cq, self.cq,
                                    tenant=self.config.tenant)
            self.conns[src_ep] = ReadRingReceiver(
                src_ep, qp,
                [self.pool.buffer(b)
                 for b in range(i * per_link, (i + 1) * per_link)],
                deque())
        registry.publish_endpoint(self.endpoint_id, {
            "qpn_by_source": {
                src_ep: c.qp.qpn for src_ep, c in self.conns.items()
            },
            "validarr_base_by_source": valid_board.base_by_key,
            "validarr_cap": valid_cap,
        })

    def connect(self, registry: EndpointRegistry):
        def bind(conn, info):
            conn.free = RingCursor(
                info["freearr_base_by_dest"][self.ctx.node_id],
                info["freearr_cap"])

        yield from rc_connect_receivers(self, registry, bind)
        CompletionDispatcher(self).on(OP_READ, self._on_read).start()

    # -- the read pump (Alg 3, GETDATA lines 19-25) ------------------------------

    def _on_valid_value(self, src_ep: int, value: int) -> None:
        conn = self.conns[src_ep]
        conn.pending_remote.append(value)
        self._pump(conn)

    def _pump(self, conn: ReadRingReceiver) -> None:
        """Issue RDMA Reads while remote addresses and local buffers last."""
        while conn.pending_remote and conn.local_arr:
            remote_addr = conn.pending_remote.popleft()
            local = conn.local_arr.pop()
            conn.qp.post_send(SendWR(
                ("read", conn.endpoint, remote_addr, local), OP_READ, local,
                self.config.message_size, remote_addr))

    def _on_read(self, wc) -> None:
        _tag, src_ep, remote_addr, local = wc.wr_id
        frame: Frame = local.payload
        conn = self.conns[src_ep]
        if frame.kind == "final":
            # Return the marker buffer and recycle our local one.
            post_ring_write(conn.qp, conn.free, remote_addr, ("free", src_ep))
            local.reset()
            conn.local_arr.append(local)
            self._pump(conn)
            self._source_depleted(conn)
        else:
            local.deposit(frame.payload, frame.length)
            self._deliver(src_ep, remote_addr, local, flow=wc.flow)

    # -- RELEASE (Alg 3, lines 16-18) ----------------------------------------------

    def release(self, remote_addr: int, local: Buffer, src: int):
        wait = self.lock.acquire()
        if wait is not None:
            yield wait
        yield self.post_wr_cost
        self.lock.release()
        conn = self.conns[src]
        yield self.post_wr_cost
        post_ring_write(conn.qp, conn.free, remote_addr, ("free", src))
        local.reset()
        conn.local_arr.append(local)
        self._pump(conn)
