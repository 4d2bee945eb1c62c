"""TCP/IP over InfiniBand (the "IPoIB" baseline, §5.1).

Represents upgrading the network with no software changes: the database
keeps using sockets, and the kernel stack's per-byte CPU cost dominates.
The paper's profiling found the IPoIB shuffle spends about two thirds of
its cycles inside ``send()`` and ``recv()`` — the model charges exactly
those cycles to the communicating threads, plus:

* a per-node kernel-stack pipe capped at ``ipoib_efficiency`` of the link
  rate (IPoIB cannot drive InfiniBand at line rate),
* per-call syscall overhead (``send``/``recv``/``select``),
* a bounded socket window providing flow control,
* segmentation into 64 KiB writes with TCP/IP header overhead.

Delivery is reliable and ordered per connection (TCP), so end-of-stream
uses simple final markers.

``send()`` / ``recv()`` are process fragments charged to the calling
thread; a segment's trip through softirq pipe, wire and softirq pipe is
not a thread's work and runs as a flat callback chain.  The endpoints
stand on the shared ``SendEndpoint`` / ``ReceiveEndpoint`` base; what
sockets change is that their malloc'd buffers cost no registration.
The observers see IPoIB as they see the RDMA designs: a message posts
one flow, and the stack pipes are charged through ``Telemetry.pipe``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Sequence

from repro.core.endpoint import DEPLETED, DataState, Frame
from repro.core.transport.runtime import ReceiveEndpoint, SendEndpoint
from repro.fabric.packet import Packet, make_train
from repro.memory import Buffer
from repro.sim import Notify, RatePipe
from repro.verbs.cm import EndpointRegistry
from repro.verbs.device import VerbsContext

__all__ = ["IPoIBSendEndpoint", "IPoIBReceiveEndpoint", "TcpStack"]

#: TCP segment size used by the socket layer (one send() chunk).
SEGMENT_BYTES = 64 * 1024
#: per-segment TCP/IP/IPoIB header overhead on the wire.
HEADER_BYTES = 80
#: socket window: in-flight bytes per connection before send() blocks.
WINDOW_BYTES = 1 << 20


class TcpStack:
    """Per-node kernel TCP state: the rate-capped softirq path, whose
    two pipes are charged as the pipe kinds ``stack.tx`` and ``stack.rx``."""

    @classmethod
    def get(cls, ctx: VerbsContext) -> "TcpStack":
        """The one stack of ``ctx``'s node (built on first use)."""
        return ctx.fabric.node_service(cls, ctx)

    def __init__(self, ctx: VerbsContext):
        rate = ctx.config.link_bytes_per_ns * ctx.config.ipoib_efficiency
        self.ctx = ctx
        self.tx = RatePipe(ctx.sim, rate, f"ipoib-tx[{ctx.node_id}]")
        self.rx = RatePipe(ctx.sim, rate, f"ipoib-rx[{ctx.node_id}]")
        for way in ("tx", "rx"):
            ctx.telemetry.pipe_rows.tracks[f"stack.{way}", ctx.node_id] = (
                ctx.node_id, f"ipoib-{way}", way)
        #: connection key -> the receiving endpoint's segment handler.
        self.listeners: Dict[Any, Callable[[Packet], None]] = {}

    def charge(self, kind: str, wire_bytes: int,
               func: Callable[[], None]) -> None:
        """Pass a segment through the ``kind`` pipe, then run ``func()``."""
        pipe = self.tx if kind == "stack.tx" else self.rx
        telemetry = self.ctx.telemetry
        if telemetry.pipes_observed:
            telemetry.pipe(kind, self.ctx.node_id, pipe,
                           pipe.durations[wire_bytes], 0, 0, wire_bytes)
        pipe.submit_train(wire_bytes, func)


class TcpConnection:
    """One TCP connection between a send and a receive endpoint."""

    def __init__(self, ctx: VerbsContext, dst_node: int, key: Any):
        self.ctx = ctx
        self.sim = ctx.sim
        self.net = ctx.config
        self.dst_node = dst_node
        self.key = key
        self.stack = TcpStack.get(ctx)
        self.remote = TcpStack.get(ctx.peer_context(dst_node))
        self._in_flight = 0
        self._window_open = Notify(ctx.sim)
        #: the last flow posted on this connection (the ``prev`` edge).
        self._last_flow = 0

    def send(self, payload: Frame, length: int):
        """Process fragment: blocking socket send of one message.

        Charges the kernel copy to the calling thread, segments the
        message, and respects the socket window.  The message is one
        flow, which its last segment carries.
        """
        yield self.net.cpu(
            self.net.tcp_syscall_ns + length * self.net.tcp_ns_per_byte)
        flow = 0
        links = self.ctx.telemetry.links
        if links is not None:
            flow = self._last_flow = links.new_flow(
                payload.kind, self.ctx.node_id, self.dst_node, length,
                self._last_flow)
        remaining = length
        while True:  # at least one segment: a final marker has no bytes
            seg = min(SEGMENT_BYTES, remaining)
            while self._in_flight + seg > WINDOW_BYTES:
                yield self._window_open.wait()
            self._in_flight += seg
            remaining -= seg
            self._transmit_segment(seg, payload, not remaining, flow)
            if not remaining:
                break

    def _transmit_segment(self, seg: int, payload: Any, last: bool,
                          flow: int) -> None:
        # One TCP segment is one wire unit: the stack's own
        # segmentation already runs at MTU-or-smaller granularity.
        packet = make_train(
            self.net, src_node=self.ctx.node_id, dst_node=self.dst_node,
            src_qpn=0, dst_qpn=0, kind="TCP",
            length=seg, wire_bytes=seg + HEADER_BYTES,
            payload=payload if last else None, flow=flow if last else 0,
        )

        def after_tx() -> None:
            self.ctx.fabric.route(packet, arrived)

        def arrived(_packet: Packet) -> None:
            self.remote.charge("stack.rx", packet.wire_bytes, delivered)

        def delivered() -> None:
            self._in_flight -= seg
            self._window_open.notify_all()
            listener = self.remote.listeners.get(self.key)
            if listener is not None:
                listener(packet)

        self.stack.charge("stack.tx", packet.wire_bytes, after_tx)


def _no_registration(self, nbytes: int):
    """Plain malloc'd buffers: sockets pin and register nothing."""
    return
    yield  # pragma: no cover - nothing to wait for


class IPoIBSendEndpoint(SendEndpoint):
    """Socket-based SEND endpoint (one connection per destination)."""

    _charge_registration = _no_registration

    def setup(self, registry: EndpointRegistry):
        yield from self.provision_send_pool()

    def connect(self, registry: EndpointRegistry):
        self._sockets: Dict[int, TcpConnection] = {}
        for dest in self.destinations:
            # TCP three-way handshake: about one round trip.
            yield 2 * self.net.switch_latency_ns
            key = (self.endpoint_id, self.peers[dest])
            self._sockets[dest] = TcpConnection(self.ctx, dest, key)

    def send(self, buf: Buffer, dests: Sequence[int], state: DataState):
        frame = Frame(kind="data", state=state, src_endpoint=self.endpoint_id,
                      payload=buf.payload, length=buf.length,
                      remote_addr=buf.addr)
        for dest in dests:
            yield from self._sockets[dest].send(frame, buf.length)
            self.record_send(dest, buf.length)
        self.recycle(buf)

    def _send_finals(self):
        for dest in self.destinations:
            frame = Frame(kind="final", state=DEPLETED,
                          src_endpoint=self.endpoint_id)
            yield from self._sockets[dest].send(frame, 0)


class IPoIBReceiveEndpoint(ReceiveEndpoint):
    """Socket-based RECEIVE endpoint: select() over per-source sockets."""

    _charge_registration = _no_registration

    def setup(self, registry: EndpointRegistry):
        pool = yield from self.provision_recv_pool()
        self._avail: List[Buffer] = list(pool.buffers)

    def connect(self, registry: EndpointRegistry):
        stack = TcpStack.get(self.ctx)
        for _src_node, src_ep in self.sources:
            key = (src_ep, self.endpoint_id)
            stack.listeners[key] = self._on_segment
        return
        yield  # pragma: no cover - accept() side is passive

    def _on_segment(self, packet: Packet) -> None:
        if packet.payload is None:
            return  # only the last segment carries the message
        frame: Frame = packet.payload
        if frame.kind == "final":  # TCP delivers each final once
            self._one_source_done()
            return
        # The Frame doubles as the delivered "buffer": it carries .length.
        self._deliver(frame.src_endpoint, frame.remote_addr, frame,
                      packet.flow)

    def get_data(self):
        t0 = self.sim.now
        ok, item = self._inbox.try_get()
        if not ok:
            item = yield self._inbox.get()
        self._account_data_wait(t0)
        # select() wakeup + recv() copy out of the kernel buffer.
        state, src, remote, frame = item
        if frame is None:
            return item
        yield self.net.cpu(
            self.net.tcp_syscall_ns
            + frame.length * self.net.tcp_ns_per_byte)
        local = self._avail.pop() if self._avail else Buffer(
            self.pool.mr, self.pool.mr.addr, self.config.message_size)
        local.deposit(frame.payload, frame.length)
        return (state, src, remote, local)

    def release(self, remote_addr: int, local: Buffer, src: int):
        local.reset()
        self._avail.append(local)
        return
        yield  # pragma: no cover - nothing to repost for sockets
