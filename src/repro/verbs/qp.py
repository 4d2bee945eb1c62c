"""Queue Pairs: the RC and UD transport state machines.

The semantics follow §2.2 of the paper:

* **Reliable Connection** — connected one-to-one, reliable, ordered.
  A Send that arrives before a Receive has been posted stalls the
  connection (receiver-not-ready) until one is posted; the sender's
  completion is generated only after the hardware ack returns.  Messages
  up to 1 GiB; RDMA Read and Write supported.
* **Unreliable Datagram** — connectionless; one QP talks to any other.
  No acks: the send completion fires as soon as the local NIC has drained
  the buffer.  Messages are capped at the MTU, may be delivered out of
  order, a Send with no matching Receive at the destination is *silently
  dropped*, and loss injection can discard packets in flight.

All data movement costs flow through the NIC model (processing engine with
the QP-context cache, egress/ingress serialization) so every design
trade-off in the paper's Figure 2 is exercised by these code paths.

A posted work request in flight is one slotted record — :class:`_UDSend`,
:class:`_RCSend`, :class:`_RCRead` or :class:`_RCWrite` — holding the QP,
the request and its post time.  Its stages (NIC processing done, the
message arrived, the ack returned...) are methods, scheduled as bound
methods: the NIC engine, the fabric or the receive queue holds the
record while it waits there, and nothing else does, so a retired request
is reclaimed by reference counting alone.  No bound method is stored on
a record (linter rule VS109).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.fabric.packet import Packet, make_train
from repro.sim import Event, Queue
from repro.verbs.constants import (
    MAX_RC_MSG,
    MCAST_NODE,
    OP_READ,
    OP_RECV,
    OP_SEND,
    OP_WRITE,
    QPS_INIT,
    QPS_RTS,
    QPT_RC,
    QPT_UD,
    WC_SUCCESS,
    AddressHandle,
    QPType,
    VerbsError,
)
from repro.verbs.cq import CompletionQueue, WorkCompletion
from repro.verbs.wr import RecvWR, SendWR

if TYPE_CHECKING:  # pragma: no cover
    from repro.verbs.device import VerbsContext

__all__ = ["QueuePair"]


class _RecvRun:
    """The maker of one run of Receives (:meth:`QueuePair.post_recv_run`):
    item ``k`` is slot ``slots[k]`` of ``pool`` as a Receive of ``length``
    bytes identified by its buffer.  It holds the pool, never the QP
    (see :meth:`~repro.sim.Queue.put_run`)."""

    __slots__ = ("pool", "slots", "length")

    def __init__(self, pool, slots: range, length: int):
        self.pool = pool
        self.slots = slots
        self.length = length

    def __call__(self, k: int) -> RecvWR:
        buf = self.pool.buffer(self.slots[k])
        return RecvWR(buf, buf, self.length)


class _Posted:
    """One posted work request in flight: the QP it was posted on, the
    request and its post time.  A subclass per kind supplies
    :meth:`issue`, the stage that runs once the NIC has processed the
    request, and the stages after it; :meth:`_acked` retires it, at the
    ack's arrival or, for a datagram, at egress."""

    __slots__ = ("qp", "wr", "t0")

    #: the request's trace span name.
    span = ""

    def __init__(self, qp: "QueuePair", wr: SendWR, now: int):
        self.qp = qp
        self.wr = wr
        self.t0 = now

    def issue(self) -> None:
        raise NotImplementedError

    def _acked(self, _ack: Optional[Packet] = None) -> None:
        self.qp._complete_send(self.wr, self.span, self.t0)


class _UDSend(_Posted):
    """One UD Send: NIC processing, route (unicast or multicast fan-out),
    completion at egress; delivery is :meth:`QueuePair._ud_deliver`, run
    once per receiving member."""

    __slots__ = ()
    span = "ud-send"

    def issue(self) -> None:
        qp = self.qp
        ctx = qp.ctx
        wr = self.wr
        dest = wr.dest
        # A multicast address handle names node -1: the trunk's
        # ``dst_node`` is 0 until the fan-out.
        dst_node = dest.node_id if dest.node_id > 0 else 0
        packet = make_train(
            ctx.config, ctx.node_id, dst_node, qp.qpn, dest.qpn, "SEND",
            wr.length, "UD", None,
            None if wr.buffer is None else wr.buffer.payload, None, wr.flow)
        # No ack in UD: local completion (``on_egress``) once the NIC
        # drained the buffer.
        if dest.node_id == MCAST_NODE:
            # InfiniBand multicast: the switch replicates the datagram
            # to every attached QP; the sender's port is charged once.
            ctx.fabric.route_mcast(packet, dest.qpn, qp._ud_deliver,
                                   on_egress=self._acked)
        else:
            ctx.fabric.route(packet, qp._ud_deliver, unordered=True,
                             lossy=True, on_egress=self._acked)


class _RCSend(_Posted):
    """One RC Send: NIC processing, route, the receive-queue get (RNR
    stall), deposit, ack, completion.  The stall's start and the waiting
    message are kept only while a Send waits for a Receive."""

    __slots__ = ("remote_qp", "packet", "rnr_t0")
    span = "rc-send"

    def issue(self) -> None:
        qp = self.qp
        ctx = qp.ctx
        wr = self.wr
        peer = qp._peer
        packet = make_train(
            ctx.config, ctx.node_id, peer.node_id, qp.qpn, peer.qpn, "SEND",
            wr.length, "RC", None,
            None if wr.buffer is None else wr.buffer.payload, None, wr.flow)
        ctx.fabric.route(packet, self._arrived)

    def _arrived(self, packet: Packet) -> None:
        qp = self.qp
        peer = qp._peer
        remote_qp = qp.ctx.peer_context(peer.node_id).qp(peer.qpn)
        recvs = remote_qp._recvs
        # A posted Receive is taken at once, unless an earlier Send is
        # still stalled on this QP (RC delivers in order).
        if not remote_qp._rnr_waiting:
            ok, rwr = recvs.try_get()
            if ok:
                self._received(remote_qp, rwr, packet)
                return
        # Receiver-not-ready: stall until a Receive is posted.  (The
        # paper's credit protocol exists precisely so this never happens.)
        self.remote_qp = remote_qp
        self.packet = packet
        self.rnr_t0 = qp.ctx.sim.now
        remote_qp._rnr_waiting += 1
        recvs.get().add_callback(self._got_recv)

    def _got_recv(self, evt: Event) -> None:
        qp = self.qp
        ctx = qp.ctx
        remote_qp = self.remote_qp
        rnr_t0 = self.rnr_t0
        remote_qp._rnr_waiting -= 1
        stalled = ctx.sim.now - rnr_t0
        if stalled:
            remote_qp.rnr_events += 1
            remote_qp.rnr_stall_ns += stalled
            telemetry = ctx.telemetry
            if telemetry.pipes_observed:
                telemetry.stall(qp._peer.node_id, -1, remote_qp.track,
                                "verbs", "rnr-stall", rnr_t0, stalled)
        self._received(remote_qp, evt.value, self.packet)

    def _received(self, remote_qp: "QueuePair", rwr: RecvWR,
                  packet: Packet) -> None:
        qp = self.qp
        ctx = qp.ctx
        peer = qp._peer
        remote_qp._recv_posted -= 1
        remote_qp._deposit(rwr, packet)
        ack = make_train(ctx.config, peer.node_id, ctx.node_id, peer.qpn,
                         qp.qpn, "ACK", 0, None, ctx.config.rc_ack_bytes)
        ctx.fabric.route(ack, self._acked)


class _RCRead(_Posted):
    """One RDMA Read: NIC processing, the request route, the remote NIC
    serving it, the response route, deposit, completion."""

    __slots__ = ()
    span = "rc-read"

    def issue(self) -> None:
        qp = self.qp
        ctx = qp.ctx
        peer = qp._peer
        request = make_train(
            ctx.config, ctx.node_id, peer.node_id, qp.qpn, peer.qpn,
            "READ_REQ", 0, None, ctx.config.rc_header_bytes)
        ctx.fabric.route(request, self._requested)

    def _requested(self, _request: Packet) -> None:
        # The remote CPU stays passive: the remote *NIC* serves the read.
        peer = self.qp._peer
        self.qp.ctx.peer_context(peer.node_id).nic.submit_wr(
            peer.qpn, self._served)

    def _served(self) -> None:
        qp = self.qp
        ctx = qp.ctx
        wr = self.wr
        peer = qp._peer
        mr = ctx.peer_context(peer.node_id).memory.resolve(wr.remote_addr)
        response = make_train(
            ctx.config, peer.node_id, ctx.node_id, peer.qpn, qp.qpn,
            "READ_RESP", wr.length, "RC", None,
            mr.get_object(wr.remote_addr))
        ctx.fabric.route(response, self._responded)

    def _responded(self, response: Packet) -> None:
        wr = self.wr
        if wr.buffer is not None:
            wr.buffer.deposit(response.payload, wr.length)
        self.qp._complete_send(wr, self.span, self.t0)


class _RCWrite(_Posted):
    """One RDMA Write: NIC processing, route, the remote memory update,
    ack, completion."""

    __slots__ = ()
    span = "rc-write"

    def issue(self) -> None:
        qp = self.qp
        ctx = qp.ctx
        wr = self.wr
        peer = qp._peer
        packet = make_train(
            ctx.config, ctx.node_id, peer.node_id, qp.qpn, peer.qpn, "WRITE",
            max(wr.length, 8 if wr.value is not None else 0), "RC", None,
            None if wr.buffer is None else wr.buffer.payload)
        ctx.fabric.route(packet, self._arrived)

    def _arrived(self, packet: Packet) -> None:
        qp = self.qp
        ctx = qp.ctx
        wr = self.wr
        peer = qp._peer
        mr = ctx.peer_context(peer.node_id).memory.resolve(wr.remote_addr)
        if wr.value is not None:
            mr.write_u64(wr.remote_addr, wr.value)
        else:
            mr.set_object(wr.remote_addr, packet.payload)
        ack = make_train(ctx.config, peer.node_id, ctx.node_id, peer.qpn,
                         qp.qpn, "ACK", 0, None, ctx.config.rc_ack_bytes)
        ctx.fabric.route(ack, self._acked)


class QueuePair:
    """One Queue Pair (send queue + receive queue)."""

    __slots__ = (
        "ctx", "qp_type", "send_cq", "recv_cq", "max_send_wr",
        "max_recv_wr", "qpn", "tenant", "state", "_peer", "_recvs",
        "_recv_posted", "_send_outstanding", "sends_posted",
        "recvs_posted", "ud_drops", "rnr_events", "rnr_stall_ns",
        "_rnr_waiting", "_last_flow",
    )

    def __init__(self, ctx: "VerbsContext", qp_type: QPType,
                 send_cq: CompletionQueue, recv_cq: CompletionQueue,
                 max_send_wr: int = 1024, max_recv_wr: int = 4096):
        config = ctx.config
        if max_send_wr > config.max_qp_depth or max_recv_wr > config.max_qp_depth:
            raise VerbsError(
                f"queue depth exceeds hardware limit {config.max_qp_depth}"
            )
        self.ctx = ctx
        self.qp_type = qp_type
        self.send_cq = send_cq
        self.recv_cq = recv_cq
        self.max_send_wr = max_send_wr
        self.max_recv_wr = max_recv_wr
        self.qpn = ctx._assign_qpn(self)
        #: owning tenant (service-layer accounting); None outside the
        #: multi-tenant service.
        self.tenant: Optional[str] = None
        self.state = QPS_INIT
        self._peer: Optional[AddressHandle] = None
        # Posted receives.  RC Sends block on them (RNR), and the FIFO
        # getter order of Queue preserves in-order delivery; UD Sends
        # take one non-blocking and drop when none is posted.
        self._recvs = Queue(ctx.sim)
        self._recv_posted = 0
        self._send_outstanding = 0
        self.sends_posted = 0
        self.recvs_posted = 0
        self.ud_drops = 0
        #: receiver-not-ready events: a Send arrived before any Receive
        #: was posted, stalling the connection (telemetry surfaces these
        #: because the credit protocol exists to keep them at zero).
        self.rnr_events = 0
        self.rnr_stall_ns = 0
        #: Sends stalled on this QP's receive queue, not yet delivered.
        self._rnr_waiting = 0
        #: last flow id posted on this QP — the FIFO ``prev`` edge of the
        #: causal DAG (repro.telemetry.links); only advanced while a
        #: recorder is installed.
        self._last_flow = 0

    # -- state transitions -------------------------------------------------

    @property
    def track(self) -> str:
        """This QP's thread in the trace (only tracing asks for it)."""
        return f"qp{self.qpn}"

    @property
    def peer(self) -> Optional[AddressHandle]:
        return self._peer

    def connect(self, remote: AddressHandle) -> None:
        """Transition an RC QP to ready-to-send, bound to ``remote``.

        Timing for the out-of-band handshake is charged by the connection
        manager (:mod:`repro.verbs.cm`), not here.
        """
        if self.qp_type is not QPT_RC:
            raise VerbsError("connect() applies to Reliable Connection QPs only")
        if self.state is not QPS_INIT:
            raise VerbsError(f"cannot connect QP in state {self.state}")
        self._peer = remote
        self.state = QPS_RTS

    def activate(self) -> None:
        """Transition a UD QP to ready-to-send (no peer binding)."""
        if self.qp_type is not QPT_UD:
            raise VerbsError("activate() applies to Unreliable Datagram QPs only")
        if self.state is not QPS_INIT:
            raise VerbsError(f"cannot activate QP in state {self.state}")
        self.state = QPS_RTS

    # -- posting -------------------------------------------------------------

    def post_recv(self, wr: RecvWR) -> None:
        """``ibv_post_recv``: queue a receive buffer."""
        state = self.state
        if state is not QPS_RTS and state is not QPS_INIT:
            raise self._rejected_recv()
        if self._recv_posted >= self.max_recv_wr:
            raise VerbsError(
                f"receive queue full (max_recv_wr={self.max_recv_wr})"
            )
        buf = wr.buffer
        if buf is not None and wr.length > buf.capacity:
            # A local length error on real verbs: the NIC would write
            # past the end of the registered buffer.
            raise VerbsError(
                f"receive of {wr.length} B posted into a {buf.capacity} B "
                f"buffer"
            )
        san = self.ctx.telemetry.sanitizer
        if san is not None:
            san.track_post_recv(self, wr)
        self._recv_posted += 1
        self.recvs_posted += 1
        self._recvs.put(wr)

    def post_recv_buffer(self, buf, length: int) -> None:
        """Reset ``buf`` and post it as a Receive identified by the
        buffer itself — the repost idiom of every endpoint's RELEASE
        path.  The sanitizer checks the reset when it tracks the post,
        so a repost makes one sanitizer call."""
        buf.reset(False)
        self.post_recv(RecvWR(buf, buf, length))

    def post_recv_run(self, pool, length: int,
                      slots: Optional[range] = None) -> None:
        """Post the ``slots`` of ``pool`` (all of it by default), in
        order, as Receives of ``length`` bytes, each identified by its
        buffer: what :meth:`post_recv_buffer` in slot order would post,
        counted and checked the same way at once, but each slot's
        :class:`~repro.memory.Buffer` and Receive are made only when a
        message takes it.  The receive queue must be empty, and nothing
        is posted if the run does not fit."""
        if slots is None:
            slots = range(len(pool))
        state = self.state
        if state is not QPS_RTS and state is not QPS_INIT:
            raise self._rejected_recv()
        if self._recv_posted + len(slots) > self.max_recv_wr:
            raise VerbsError(
                f"receive queue full (max_recv_wr={self.max_recv_wr})"
            )
        if length > pool.size:
            raise VerbsError(
                f"receive of {length} B posted into a {pool.size} B buffer"
            )
        if len(self._recvs):
            raise VerbsError("a run of Receives needs an empty receive queue")
        san = self.ctx.telemetry.sanitizer
        if san is not None:
            san.track_post_recv_run(pool, slots)
        self._recv_posted += len(slots)
        self.recvs_posted += len(slots)
        self._recvs.put_run(len(slots), _RecvRun(pool, slots, length))

    def post_send(self, wr: SendWR) -> None:
        """``ibv_post_send``: enqueue a Send / Read / Write work request.

        Returns immediately (the verb is asynchronous); completion is
        reported through the send CQ if ``wr.signaled``.
        """
        ctx = self.ctx
        if self.state is not QPS_RTS:
            raise self._rejected_send(
                wr, f"cannot post send in state {self.state}")
        if self._send_outstanding >= self.max_send_wr:
            raise self._rejected_send(
                wr, f"send queue full (max_send_wr={self.max_send_wr})")
        opcode = wr.opcode
        datagram = self.qp_type is QPT_UD
        if datagram:
            if opcode is not OP_SEND:
                raise VerbsError(
                    "Unreliable Datagram supports only Send/Receive (§2.2.2)"
                )
            if wr.dest is None:
                raise VerbsError("UD Send requires a destination address handle")
            if wr.length > ctx.config.mtu:
                raise VerbsError(
                    f"UD message of {wr.length} B exceeds MTU "
                    f"{ctx.config.mtu}"
                )
        else:
            if self._peer is None:
                raise self._rejected_send(wr, "RC QP is not connected")
            if wr.length > MAX_RC_MSG:
                raise VerbsError(f"RC message of {wr.length} B exceeds 1 GiB")
        telemetry = ctx.telemetry
        san = telemetry.sanitizer
        if san is not None:
            san.track_post_send(self, wr)
        self._send_outstanding += 1
        self.sends_posted += 1
        links = telemetry.links
        if links is not None:
            # A causal flow for the WR, chained to the QP's last one; its
            # kind is the endpoint-protocol tag of a tuple ``wr_id``
            # ("data", "final", "credit", "read", "valid", "free"...),
            # else the verb opcode.
            wid = wr.wr_id
            if type(wid) is tuple and wid and isinstance(wid[0], str):
                kind = wid[0]
            else:
                kind = str(opcode.value)
            dst = max(wr.dest.node_id, 0) if datagram else self._peer.node_id
            flow = wr.flow = links.new_flow(kind, ctx.node_id, dst, wr.length,
                                            self._last_flow)
            if flow:
                self._last_flow = flow
        # Every work request runs as one in-flight record whose stages
        # are flat callbacks: the QP state machine is hardware, not a CPU
        # thread (DESIGN.md, "Execution path").
        extra = 0
        if datagram:
            posted: _Posted = _UDSend(self, wr, ctx.sim.now)
        elif opcode is OP_SEND:
            posted = _RCSend(self, wr, ctx.sim.now)
        elif opcode is OP_READ:
            posted = _RCRead(self, wr, ctx.sim.now)
        elif opcode is OP_WRITE:
            posted = _RCWrite(self, wr, ctx.sim.now)
            # Inlined payloads skip the extra DMA fetch of the payload [16].
            if not wr.inline:
                extra = ctx.config.nic_wr_ns
        else:
            raise VerbsError(f"cannot post {opcode} to a send queue")
        ctx.nic.submit_wr(self.qpn, posted.issue, extra)

    def _rejected_recv(self) -> VerbsError:
        """The error a Receive posted outside INIT/RTS raises, once the
        sanitizer, if on, has recorded it."""
        san = self.ctx.telemetry.sanitizer
        if san is not None:
            san.check_post_recv(self)
        return VerbsError(f"cannot post receive in state {self.state}")

    def _rejected_send(self, wr: SendWR, message: str) -> VerbsError:
        """The error ``message`` a rejected ``post_send`` of ``wr`` raises,
        once the sanitizer, if on, has recorded what it sees wrong with
        the QP (only a QP outside RTS, or an unconnected RC QP, is)."""
        san = self.ctx.telemetry.sanitizer
        if san is not None:
            san.check_post_send(self, wr)
        return VerbsError(message)

    # -- completion helpers ----------------------------------------------------

    def _complete_send(self, wr: SendWR, name: str, t0: int) -> None:
        """Retire ``wr`` (posted at ``t0``): completion, then its span."""
        self._send_outstanding -= 1
        if wr.signaled:
            self.send_cq.push(WorkCompletion(
                wr.wr_id, wr.opcode, WC_SUCCESS, wr.length, self.qpn, -1,
                -1, wr.flow))
        tracer = self.ctx.telemetry.tracer
        if tracer is not None:
            tracer.work_request(self, name, t0, wr.length)

    def _deposit(self, rwr: RecvWR, packet: Packet) -> None:
        """Copy an arriving message into the posted receive buffer."""
        if rwr.length < packet.length:
            raise VerbsError(
                f"receive buffer of {rwr.length} B too small for "
                f"{packet.length} B message"
            )
        if rwr.buffer is not None:
            rwr.buffer.deposit(packet.payload, packet.length)
        self.recv_cq.push(WorkCompletion(
            rwr.wr_id, OP_RECV, WC_SUCCESS, packet.length, self.qpn,
            packet.src_node, packet.src_qpn, packet.flow))

    def _ud_deliver(self, packet: Packet) -> None:
        if packet.dropped:
            return
        remote = self.ctx.peer_context(packet.dst_node)
        try:
            remote_qp = remote.qp(packet.dst_qpn)
        except VerbsError:
            return  # destination QP vanished; datagram evaporates
        if remote_qp.qp_type is not QPT_UD:
            return
        ok, rwr = remote_qp._recvs.try_get()
        if not ok:
            # No Receive posted: the datagram is silently dropped (§2.2.1).
            remote_qp.ud_drops += 1
            return
        remote_qp._recv_posted -= 1
        remote_qp._deposit(rwr, packet)
