"""RDMA Write over Reliable Connection — the paper's future work (§7).

    "First, we plan to implement an endpoint based on the RDMA Write
    primitive to evaluate its performance."

The design mirrors the RDMA Read endpoint with the active/passive roles
swapped: the *sender* pushes data into the receiver's registered buffers
with one-sided Writes, while the receiver stays passive on the data path.

Buffer ownership moves through the same two circular message queues:

* at connect time the sender learns every receiver-side buffer address
  for its connection (an initially-full free list);
* the sender pops a remote buffer, RDMA-Writes the data into it, then
  RDMA-Writes the buffer's address into the receiver's ``ValidArr`` —
  RC ordering on one QP guarantees data lands before the notification;
* the receiver consumes ``ValidArr``, hands the buffer to the
  application, and on RELEASE returns the address through the sender's
  ``FreeArr``.

Compared to RDMA Read, the transfer completes in a half round trip (no
read request), but the sender must know free remote buffers in advance,
so a slow receiver stalls the sender symmetrically to the Read design's
broadcast starvation.

Like the Read design, the circular-queue machinery comes from the shared
transport runtime; this module is the RDMA Write posting policy.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from repro.core.endpoint import (
    DataState,
    EndpointConfig,
    Frame,
    FrameCarrier,
)
from repro.core.transport.connections import (
    PeerConnection,
    rc_connect_receivers,
    rc_connect_senders,
)
from repro.core.transport.credit import RingBoard
from repro.core.transport.dispatch import CompletionDispatcher
from repro.core.transport.rings import RingCursor, post_ring_write
from repro.core.transport.runtime import ReceiveEndpoint, SendEndpoint
from repro.memory import Buffer
from repro.sim import Notify
from repro.verbs.cm import EndpointRegistry
from repro.verbs.constants import Opcode, QPType
from repro.verbs.device import VerbsContext
from repro.verbs.wr import SendWR

__all__ = ["WriteRCSendEndpoint", "WriteRCReceiveEndpoint", "ring_caps"]


def ring_caps(window: int) -> Tuple[int, int]:
    """``(ValidArr, FreeArr)`` slots per link for a receive window of
    ``window`` buffers, with slack (§4.4.3).  The model checker sizes
    its rings with this function."""
    return window * 2 + 4, window + 2


class WriteRCSendEndpoint(SendEndpoint):
    """Active SEND endpoint pushing data with one-sided RDMA Writes."""

    def __init__(self, ctx: VerbsContext, endpoint_id: int,
                 config: EndpointConfig, destinations: Sequence[int],
                 num_groups: int, peers: Dict[int, int], threads: int = 1):
        super().__init__(ctx, endpoint_id, config, destinations,
                         num_groups, peers, threads)
        #: receiver buffer addresses learned at connect, per destination —
        #: the ground truth the FreeArr sanitizer validator checks against.
        self._known_remote: Dict[int, frozenset] = {}

    def setup(self, registry: EndpointRegistry):
        self.cq = self.ctx.create_cq()
        for dest in self.destinations:
            conn = self.conns[dest] = PeerConnection(dest)
            conn.qp = self.ctx.create_qp(QPType.RC, self.cq, self.cq,
                                         tenant=self.config.tenant)
            conn.notify = Notify(self.sim)
            #: addresses of free buffers at the receiver (LIFO).
            conn.remote_free = []
        yield from self.provision_send_pool()
        _, cap = ring_caps(self.buffers_per_link)
        # A returned address must be one of the receiver-side buffers this
        # sender was granted at connect time.
        free_board = yield from RingBoard.install(
            self, self.destinations, cap, self._on_free_value,
            name="freearr",
            validator=lambda dest, value:
                value in self._known_remote.get(dest, ()))
        registry.publish_endpoint(self.endpoint_id, {
            "node": self.ctx.node_id,
            "qpn_by_dest": {d: c.qp.qpn for d, c in self.conns.items()},
            "freearr_base_by_dest": free_board.base_by_key,
            "freearr_cap": cap,
        })

    def connect(self, registry: EndpointRegistry):
        def bind(conn, info):
            conn.valid = RingCursor(
                info["validarr_base_by_source"][self.endpoint_id],
                info["validarr_cap"])
            conn.remote_free = list(
                info["buffer_addrs_by_source"][self.endpoint_id])
            self._known_remote[conn.node] = frozenset(conn.remote_free)

        yield from rc_connect_senders(self, registry, bind)
        # Local buffers recycle once their data Writes complete.
        CompletionDispatcher(self) \
            .on(Opcode.WRITE, self.data_recycler("wdata")) \
            .start()

    def _on_free_value(self, dest: int, value: int) -> None:
        conn = self.conns[dest]
        conn.remote_free.append(value)
        conn.notify.notify_all()

    def _push(self, conn: PeerConnection, frame: Frame, buf, length: int,
              signaled: bool):
        """Write data into a free remote buffer, then notify ValidArr."""
        while not conn.remote_free:
            yield conn.notify.wait()
        remote_addr = conn.remote_free.pop()
        frame.remote_addr = remote_addr
        yield self._cpu(self.net.post_wr_ns)
        conn.qp.post_send(SendWR(
            wr_id=("wdata", buf), opcode=Opcode.WRITE,
            buffer=FrameCarrier(frame), length=length,
            remote_addr=remote_addr, signaled=signaled,
        ))
        yield self._cpu(self.net.post_wr_ns)
        post_ring_write(conn.qp, conn.valid, remote_addr,
                        ("valid", conn.node))

    def send(self, buf: Buffer, dests: Sequence[int], state: DataState):
        yield from self.lock.critical_section(
            self.net.cpu(self.net.endpoint_send_ns))
        self._pending.add(buf, len(dests))
        for dest in dests:
            frame = Frame(kind="data", state=state,
                          src_endpoint=self.endpoint_id,
                          payload=buf.payload, length=buf.length)
            yield from self._push(self.conns[dest], frame, buf,
                                  buf.length, signaled=True)
            self.record_send(dest, buf.length)

    def _send_finals(self):
        for dest in self.destinations:
            frame = Frame(kind="final", state=DataState.DEPLETED,
                          src_endpoint=self.endpoint_id)
            yield from self._push(self.conns[dest], frame, None, 0,
                                  signaled=False)


class WriteRCReceiveEndpoint(ReceiveEndpoint):
    """Passive RECEIVE endpoint: data appears in its registered buffers."""

    def setup(self, registry: EndpointRegistry):
        self.cq = self.ctx.create_cq()
        per_link = self.buffers_per_link
        yield from self.provision_recv_pool()
        cap, _ = ring_caps(per_link)
        # A notified address must land inside this receiver's own pool.
        pool_addrs = frozenset(buf.addr for buf in self.pool.buffers)
        valid_board = yield from RingBoard.install(
            self, [src_ep for _node, src_ep in self.sources], cap,
            self._on_valid_value, min_one=True, name="validarr",
            validator=lambda src_ep, value: value in pool_addrs)
        buffer_addrs = {}
        next_buffer = 0
        for src_node, src_ep in self.sources:
            conn = self.conns[src_ep] = PeerConnection(src_node, src_ep)
            conn.qp = self.ctx.create_qp(QPType.RC, self.cq, self.cq,
                                         tenant=self.config.tenant)
            addrs = []
            for _ in range(per_link):
                addrs.append(self.pool.buffers[next_buffer].addr)
                next_buffer += 1
            buffer_addrs[src_ep] = addrs
        registry.publish_endpoint(self.endpoint_id, {
            "node": self.ctx.node_id,
            "qpn_by_source": {
                src_ep: c.qp.qpn for src_ep, c in self.conns.items()
            },
            "validarr_base_by_source": valid_board.base_by_key,
            "validarr_cap": cap,
            "buffer_addrs_by_source": buffer_addrs,
        })

    def connect(self, registry: EndpointRegistry):
        def bind(conn, info):
            conn.free = RingCursor(
                info["freearr_base_by_dest"][self.ctx.node_id],
                info["freearr_cap"])

        yield from rc_connect_receivers(self, registry, bind)

    def _on_valid_value(self, src_ep: int, value: int) -> None:
        conn = self.conns[src_ep]
        buf = self.pool.at(value)
        frame: Frame = self.pool.mr.get_object(value)
        if frame.kind == "final":
            # Return the buffer straight away; stream is over.
            post_ring_write(conn.qp, conn.free, value, ("free", src_ep))
            self._source_depleted(src_ep)
            return
        buf.deposit(frame.payload, frame.length)
        self._deliver(src_ep, value, buf)

    def release(self, remote_addr: int, local: Buffer, src: int):
        yield from self.lock.critical_section(
            self.net.cpu(self.net.post_wr_ns))
        conn = self.conns[src]
        local.reset()
        yield self._cpu(self.net.post_wr_ns)
        post_ring_write(conn.qp, conn.free, remote_addr, ("free", src))
