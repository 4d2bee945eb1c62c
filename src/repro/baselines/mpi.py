"""A simulated MVAPICH2-style MPI runtime and endpoint (§5.1 baseline).

The model captures the four structural properties that determine MPI's
shuffle performance relative to bespoke RDMA endpoints:

1. **Eager vs rendezvous.**  Messages up to ``mpi_eager_threshold`` are
   copied through pre-registered internal buffers on both sides (CPU cost
   per byte twice).  Larger messages handshake: the sender posts a
   request-to-send, the receiver answers clear-to-send only once a
   matching receive has been posted *and* its progress engine runs, then
   the data moves.
2. **Progress only inside MPI calls.**  Matching, CTS generation and
   broadcast forwarding on a node only advance while at least one thread
   of that node is blocked inside an MPI call.  This is the mechanism
   behind MPI's failure to overlap communication with computation
   (Figs 13, 14): when all receiver threads are busy processing data,
   the runtime is dead and senders stall in ``MPI_Send``.
3. **A per-node runtime lock** serializing call entry/exit (MVAPICH's
   coarse-grained threading), charged ``mpi_overhead_ns`` per call.
4. **Blocking ``MPI_Send``** on the data path, as in the paper's MPI
   endpoint implementation — the sending thread cannot produce the next
   buffer while the current one is in flight.

Broadcast uses a binomial tree (``MPI_Ibcast``), with intermediate nodes
forwarding when their progress engine runs.

The MPI *calls* are process fragments run by the calling CPU thread;
everything below ``_transmit`` — doorbell, wire, deposit at the peer —
is a flat callback chain like the verbs work requests.  The endpoints
stand on the shared ``SendEndpoint`` / ``ReceiveEndpoint`` base and
inherit pool provisioning, recycling and accounting from it.
"""

from __future__ import annotations

import itertools
from typing import Any, Deque, Dict, Sequence, Tuple
from collections import deque

from repro.core.endpoint import (
    DEPLETED_SENTINEL,
    DataState,
    EndpointConfig,
    Frame,
)
from repro.core.transport.runtime import ReceiveEndpoint, SendEndpoint
from repro.fabric.packet import Packet, make_train
from repro.memory import Buffer
from repro.sim import Event, Mutex
from repro.verbs.cm import EndpointRegistry
from repro.verbs.device import VerbsContext

__all__ = ["MPIRuntime", "MPISendEndpoint", "MPIReceiveEndpoint"]


class MPIRuntime:
    """Per-node MPI library state."""

    @classmethod
    def get(cls, ctx: VerbsContext) -> "MPIRuntime":
        """The one runtime of ``ctx``'s node (built on first use)."""
        return ctx.fabric.node_service(cls, ctx)

    def __init__(self, ctx: VerbsContext):
        self.ctx = ctx
        self.sim = ctx.sim
        self.node = ctx.node
        self.net = ctx.config
        self.lock = Mutex(ctx.sim)
        #: threads currently blocked inside an MPI call.
        self.in_mpi = 0
        #: eager/unexpected messages ``(src, payload, length)`` awaiting a
        #: matching receive, per tag; parked RTS packets per ("rts", tag).
        self._unexpected: Dict[Any, Deque[Any]] = {}
        #: posted receives (the wake event of each outstanding
        #: MPI_Irecv) not yet matched, per tag (FIFO).
        self._recvs: Dict[Any, Deque[Event]] = {}
        #: arrived-but-unprocessed runtime work (progress gating).
        self._backlog: Deque[Packet] = deque()
        #: sender-side rendezvous requests waiting for CTS.
        self._rndv_waiting: Dict[int, Event] = {}
        #: rendezvous request ids of this node; a receiver keys them
        #: with the source node, so two senders cannot collide.
        self._rndv_ids = itertools.count(1)
        # Internal eager buffers: a fixed registered region, as MVAPICH
        # pre-registers its eager RDMA buffers.
        self._eager_mr = ctx.reg_mr(64 * self.net.mpi_eager_threshold)

    # -- call gating ------------------------------------------------------------

    def _enter(self):
        """Process fragment: enter the MPI library (charges the lock)."""
        yield from self.lock.critical_section(
            self.net.cpu(self.net.mpi_overhead_ns))
        self.in_mpi += 1
        self._drain_backlog()

    def _exit(self) -> None:
        self.in_mpi -= 1

    def _on_wire(self, packet: Packet) -> None:
        """A message arrived from the fabric (hardware-side deposit)."""
        self._backlog.append(packet)
        if self.in_mpi > 0:
            self._drain_backlog()

    def _drain_backlog(self) -> None:
        while self._backlog:
            self._handle(self._backlog.popleft())

    # -- wire helpers --------------------------------------------------------------

    def _transmit(self, dest: int, kind: str, length: int, payload: Any,
                  meta: dict) -> Event:
        """Ship one runtime message as a flat callback chain (the NIC and
        the wire are hardware, not a CPU thread); returns the event an
        MPI call may block on until the message has been deposited."""
        packet = make_train(
            self.net, src_node=self.ctx.node_id, dst_node=dest,
            src_qpn=0, dst_qpn=0, kind=kind, length=length,
            wire_bytes=self.net.wire_bytes(max(length, 16), "RC"),
            payload=payload, meta=meta,
        )
        done = Event(self.sim)

        def after_wr() -> None:
            self.ctx.fabric.route(packet, arrived)

        def arrived(packet: Packet) -> None:
            MPIRuntime.get(self.ctx.peer_context(dest))._on_wire(packet)
            done.succeed(packet)

        # NIC doorbell + WQE processing, then the wire.
        self.node.nic.submit_wr(None, after_wr)
        return done

    # -- receive-side handling (progress engine) ---------------------------------------

    def _handle(self, packet: Packet) -> None:
        meta = packet.meta
        kind = packet.kind
        if kind == "MPI_EAGER":
            if meta.get("bcast"):
                tag = meta["tags"][self.ctx.node_id]
                self._deliver(tag, packet.src_node, packet.payload,
                              packet.length, eager=True)
                self._forward_bcast(packet)
            else:
                self._deliver(meta["tag"], packet.src_node, packet.payload,
                              packet.length, eager=True)
        elif kind == "MPI_RTS":
            # Clear-to-send only once a matching receive exists.
            self._try_cts(packet)
        elif kind == "MPI_CTS":
            waiter = self._rndv_waiting.pop(meta["req"], None)
            if waiter is not None:
                waiter.succeed()
        elif kind == "MPI_DATA":
            self._deliver(meta["tag"], packet.src_node, packet.payload,
                          packet.length, eager=False)

    def _try_cts(self, rts: Packet) -> None:
        tag = rts.meta["tag"]
        queue = self._recvs.get(tag)
        if queue:
            # Hand the pending-recv straight to the data message.
            req = rts.meta["req"]
            self._recvs.setdefault(("rndv", rts.src_node, req),
                                   deque()).append(queue.popleft())
            self._transmit(rts.src_node, "MPI_CTS", 0, None, {"req": req})
        else:
            # No matching receive yet: park the RTS; re-examined whenever
            # a receive is posted while progress runs.
            self._unexpected.setdefault(("rts", tag), deque()).append(rts)

    def _deliver(self, tag, src: int, payload: Any, length: int,
                 eager: bool) -> None:
        queue = self._recvs.get(tag)
        if queue:
            queue.popleft().succeed((src, payload, length, eager))
        else:
            self._unexpected.setdefault(tag, deque()).append(
                (src, payload, length))

    def _forward_bcast(self, packet: Packet) -> None:
        """Binomial-tree forwarding of a broadcast message."""
        members: Tuple[int, ...] = packet.meta["members"]
        me = members.index(self.ctx.node_id)
        total = len(members)
        # Children of position `me` in a binomial tree rooted at 0.
        offset = 1
        while offset <= me:
            offset <<= 1
        while offset < total:
            child = me + offset
            if child < total:
                meta = dict(packet.meta)
                self._transmit(members[child], packet.kind, packet.length,
                               packet.payload, meta)
            offset <<= 1

    # -- the MPI calls used by the endpoint --------------------------------------------

    def mpi_bcast(self, members: Tuple[int, ...], tags: Dict[int, int],
                  payload: Any, length: int, deliver_self: bool = False):
        """Process fragment: MPI_Ibcast rooted at this node.

        The root sends to its binomial-tree children; intermediate nodes
        forward (when their progress engine runs).  Collectives use the
        eager/pipelined path with per-node delivery tags.  ``members``
        must be duplicate-free with the root first; ``deliver_self``
        additionally delivers the message locally (root in its own group).
        """
        yield from self._enter()
        try:
            meta = {"bcast": True, "members": members, "tags": tags}
            yield self.node.cpu_delay(length * self.net.mpi_copy_ns_per_byte)
            if deliver_self:
                self._deliver(tags[self.ctx.node_id], self.ctx.node_id,
                              payload, length, eager=False)
            total = len(members)
            sends = []
            offset = 1
            while offset < total:
                sends.append(self._transmit(
                    members[offset], "MPI_EAGER", length, payload,
                    dict(meta)))
                offset <<= 1
            for send in sends:
                yield send
        finally:
            self._exit()

    def mpi_send(self, dest: int, tag: int, payload: Any, length: int):
        """Process fragment: blocking MPI_Send (eager or rendezvous)."""
        yield from self._enter()
        try:
            meta = {"tag": tag}
            if length <= self.net.mpi_eager_threshold:
                # Copy into the internal eager buffer, then ship.
                yield self.node.cpu_delay(length * self.net.mpi_copy_ns_per_byte)
                yield self._transmit(dest, "MPI_EAGER", length, payload, meta)
            else:
                req = next(self._rndv_ids)
                cts = Event(self.sim)
                self._rndv_waiting[req] = cts
                self._transmit(dest, "MPI_RTS", 0, None,
                               {"tag": tag, "req": req})
                yield cts
                meta["tag"] = ("rndv", self.ctx.node_id, req)
                yield self._transmit(dest, "MPI_DATA", length, payload, meta)
        finally:
            self._exit()

    def mpi_recv(self, tag: int):
        """Process fragment: blocking MPI_Recv(ANY_SOURCE, tag).

        Returns ``(src, payload, length)``.  Models Irecv + Test polling:
        the thread stays inside MPI (progress keeps running) while it
        waits.
        """
        yield from self._enter()
        try:
            unexpected = self._unexpected.get(tag)
            if unexpected:
                src, payload, length = unexpected.popleft()
                yield self.node.cpu_delay(
                    min(length, self.net.mpi_eager_threshold)
                    * self.net.mpi_copy_ns_per_byte)
                return (src, payload, length)
            event = Event(self.sim)
            self._recvs.setdefault(tag, deque()).append(event)
            # A parked RTS may now be matchable.
            parked = self._unexpected.get(("rts", tag))
            if parked:
                self._try_cts(parked.popleft())
            src, payload, length, eager = yield event
            if eager:
                yield self.node.cpu_delay(length * self.net.mpi_copy_ns_per_byte)
            return (src, payload, length)
        finally:
            self._exit()


class MPISendEndpoint(SendEndpoint):
    """The paper's MPI endpoint, send side (blocking MPI_Send per peer)."""

    def __init__(self, ctx: VerbsContext, endpoint_id: int,
                 config: EndpointConfig, destinations: Sequence[int],
                 num_groups: int, peers: Dict[int, int], threads: int = 1):
        super().__init__(ctx, endpoint_id, config, destinations,
                         num_groups, peers, threads)
        self.runtime = MPIRuntime.get(ctx)

    def setup(self, registry: EndpointRegistry):
        yield from self.provision_send_pool()

    def connect(self, registry: EndpointRegistry):
        return
        yield  # pragma: no cover - MPI wires lazily

    def send(self, buf: Buffer, dests: Sequence[int], state: DataState):
        frame = Frame(kind="data", state=state, src_endpoint=self.endpoint_id,
                      payload=buf.payload, length=buf.length,
                      remote_addr=buf.addr)
        if len(dests) > 1:
            # MPI_Ibcast: binomial tree rooted here, intermediate nodes
            # forward; delivery tags differ per receiving endpoint.
            me = self.ctx.node_id
            members = (me,) + tuple(d for d in dests if d != me)
            yield from self.runtime.mpi_bcast(
                members, dict(self.peers), frame, buf.length,
                deliver_self=(me in dests))
        else:
            for dest in dests:
                yield from self.runtime.mpi_send(
                    dest, self.peers[dest], frame, buf.length)
        for dest in dests:
            self.record_send(dest, buf.length)
        # Blocking send: the buffer is reusable as soon as send returns.
        self.recycle(buf)

    def _send_finals(self):
        for dest in self.destinations:
            frame = Frame(kind="final", state=DataState.DEPLETED,
                          src_endpoint=self.endpoint_id)
            yield from self.runtime.mpi_send(dest, self.peers[dest], frame, 0)


class MPIReceiveEndpoint(ReceiveEndpoint):
    """The paper's MPI endpoint, receive side (MPI_Irecv + Test)."""

    def __init__(self, ctx: VerbsContext, endpoint_id: int,
                 config: EndpointConfig,
                 sources: Sequence[Tuple[int, int]], threads: int = 1):
        super().__init__(ctx, endpoint_id, config, sources, threads)
        self.runtime = MPIRuntime.get(ctx)

    def setup(self, registry: EndpointRegistry):
        pool = yield from self.provision_recv_pool()
        self._avail = list(pool.buffers)

    def connect(self, registry: EndpointRegistry):
        return
        yield  # pragma: no cover - MPI wires lazily

    def get_data(self):
        t0 = self.sim.now
        while self._live_sources:
            src, frame, length = yield from self.runtime.mpi_recv(
                self.endpoint_id)
            if frame.kind != "final":
                self._account_data_wait(t0)
                local = self._avail.pop() if self._avail else Buffer(
                    self.pool.mr, self.pool.mr.addr, self.config.message_size)
                local.deposit(frame.payload, frame.length)
                # Through the shared delivery point and straight back
                # out: every thread blocks in its own MPI_Recv, so the
                # inbox never holds more than this one item.
                self._deliver(frame.src_endpoint, frame.remote_addr, local)
                return self._inbox.try_get()[1]
            # MPI threads each block in mpi_recv; no shared inbox
            # sentinel is needed — every thread observes depletion
            # independently (MPI delivers each final once; a sibling's
            # wake-up below names no source).
            if frame.src_endpoint >= 0:
                self._live_sources -= 1
            if not self._live_sources:
                # Wake sibling threads parked in MPI_Recv on this tag.
                parked = self.runtime._recvs.get(self.endpoint_id)
                while parked:
                    parked.popleft().succeed(
                        (self.ctx.node_id,
                         Frame(kind="final", src_endpoint=-1), 0, False))
        self._account_data_wait(t0)
        return DEPLETED_SENTINEL

    def release(self, remote_addr: int, local: Buffer, src: int):
        local.reset()
        self._avail.append(local)
        return
        yield  # pragma: no cover - nothing to post in MPI
