"""The endpoints: the one base every design and baseline descends from.

:class:`SendEndpoint` / :class:`ReceiveEndpoint` implement the §4.2
interface (:mod:`repro.core.endpoint` is its vocabulary) over the
plumbing every implementation needs — the per-peer connection
records (:mod:`~.connections`, one class per role), the in-flight
:class:`~.rings.PendingTable`, pool provisioning sized by the §4.2
rules (sender pools scale with transmission groups, receiver pools with
sources), the GETFREE/GETDATA queues and the shared instrumentation
points.  An implementation supplies ``setup`` / ``connect``, ``send`` /
``_send_finals`` and ``release``; the MPI and IPoIB baselines do so
like the RDMA designs.

:class:`CreditedSendEndpoint` / :class:`CreditedReceiveEndpoint` add the
credit-synchronized two-sided data path shared verbatim by the SR/RC and
SR/UD designs (Algorithm 1's SEND loop and the RELEASE/credit write-back
of §4.4.1-2); subclasses supply only the posting primitives
(:meth:`_post_data` / :meth:`_post_final` / :meth:`_repost` /
:meth:`_return_credit`).

Implementation style note: methods that may block are generator *process
fragments* — callers invoke them as ``yield from endpoint.send(...)``
inside a simulation process, mirroring how the real (blocking) C++ calls
occupy a worker thread.

Per-message semantics over packet trains
----------------------------------------
Everything at this layer observes *messages*: one credit consumed per
send, one CQE per signaled work request, one RELEASE per delivered
buffer.  Below the verbs API a multi-MTU RC message traverses the
fabric as a single :class:`~repro.fabric.packet.Packet` — the
endpoint never sees the segmentation,
exactly as real hardware hides per-packet ACK/retransmit behind one
work completion.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.memory import Buffer, BufferPool
from repro.sim import Mutex, Notify, Queue
from repro.verbs.cm import EndpointRegistry
from repro.verbs.device import VerbsContext

from repro.core.endpoint import (
    DEPLETED,
    DEPLETED_SENTINEL,
    MORE_DATA,
    DataState,
    EndpointConfig,
    Frame,
    ShuffleNetworkError,
)
from repro.core.transport import credit
from repro.core.transport.connections import (
    CreditReceiver,
    CreditSender,
    SourceRecord,
)
from repro.core.transport.rings import PendingTable

__all__ = [
    "CreditedReceiveEndpoint",
    "CreditedSendEndpoint",
    "ReceiveEndpoint",
    "SendEndpoint",
    "ensure_ud_message_size",
]


def ensure_ud_message_size(ctx: VerbsContext, config: EndpointConfig) -> None:
    """UD messages are MTU-capped (§2.2.2); reject oversized configs."""
    if config.message_size > ctx.config.mtu:
        raise ValueError(
            f"UD message size {config.message_size} exceeds the MTU "
            f"{ctx.config.mtu} (§2.2.2)"
        )


class _EndpointBase:
    """State shared by send and receive endpoints."""

    def __init__(self, ctx: VerbsContext, endpoint_id: int,
                 config: EndpointConfig, threads: int):
        self.ctx = ctx
        self.sim = ctx.sim
        self.node = ctx.node
        self.endpoint_id = endpoint_id
        self.config = config
        #: worker threads sharing this endpoint (1 in the multi-endpoint
        #: configuration, ``⌈t/k⌉`` otherwise; the stage derives it):
        #: buffer pools are sized per thread served.
        self.threads = threads
        #: registered buffers provisioned per connection on each side.
        self.buffers_per_link = config.buffers_per_connection * threads
        net = self.net = ctx.config
        # Fixed CPU costs, scaled once per endpoint (NetworkConfig.cpu is
        # the one rounding rule): what a thread yields per work request
        # posted, per CQ poll and per SEND call.
        self.post_wr_cost = net.cpu(net.post_wr_ns)
        self.poll_cq_cost = net.cpu(net.poll_cq_ns)
        self.send_call_cost = net.cpu(net.endpoint_send_ns)
        #: serializes bookkeeping when several threads share the endpoint.
        self.lock = Mutex(ctx.sim)
        #: per-peer transport state, one record of the design's role
        #: class each.  SEND endpoints key by destination node id,
        #: RECEIVE endpoints by source *endpoint* id (frames and
        #: circular-queue updates carry endpoint ids).
        self.conns: Dict[int, Any] = {}
        #: the completion queue, once ``setup`` created one.
        self.cq = None
        #: the one Queue Pair all peers share (UD designs); ``None``
        #: where Queue Pairs are per peer (each record's ``qp``) or
        #: absent.
        self.qp = None
        #: the main registered transmission/receive buffer pool.
        self.pool = None
        #: auxiliary registered pools (e.g. UD credit-datagram slots).
        self.aux_pools: List = []
        #: auxiliary registered regions (credit words, FreeArr/ValidArr).
        self.aux_mrs: List = []
        #: profiling: time threads spent blocked for credit / free
        #: buffers / data (the §5.1.3 "blocked for credit" vs "blocked
        #: on completions" distinction).  Every endpoint carries all
        #: four so harvests read them plainly; a side only ever
        #: advances its own.
        self.credit_wait_ns = 0
        self.credit_stalls = 0
        self.free_wait_ns = 0
        self.data_wait_ns = 0
        ctx.telemetry.register_endpoint(self)

    # -- lifecycle ---------------------------------------------------------

    def setup(self, registry: EndpointRegistry):
        """Phase 1 (process fragment): create resources, publish wiring."""
        raise NotImplementedError

    def connect(self, registry: EndpointRegistry):
        """Phase 2 (process fragment): resolve peers, build connections."""
        raise NotImplementedError

    # -- introspection ------------------------------------------------------

    def qps(self) -> List:
        """Queue Pairs owned by this endpoint (Table 1 accounting)."""
        if self.qp is not None:
            return [self.qp]
        return [c.qp for c in self.conns.values()]

    def registered_regions(self) -> List:
        """Registered memory regions pinned by this endpoint (Fig 9b)."""
        regions = []
        if self.pool is not None:
            regions.append(self.pool.mr)
        regions.extend(self.aux_mrs)
        regions.extend(pool.mr for pool in self.aux_pools)
        return regions

    def _trace_stall(self, name: str, t0: int) -> None:
        """Emit a stall span on this endpoint's track if time elapsed."""
        waited = self.sim.now - t0
        if waited > 0:
            telemetry = self.ctx.telemetry
            if telemetry.pipes_observed:
                telemetry.stall(self.ctx.node_id, self.endpoint_id,
                                f"ep{self.endpoint_id}", "endpoint", name,
                                t0, waited)

    def _charge_registration(self, nbytes: int):
        """Process fragment: what pinning ``nbytes`` of pool costs this
        transport (sockets override it: malloc'd memory costs nothing)."""
        yield from self.ctx.charge_registration(nbytes)

    def _provision_pool(self, buffers: int):
        """Process fragment: charge registration and carve the pool."""
        yield from self._charge_registration(
            buffers * self.config.message_size)
        self.pool = BufferPool(self.ctx, buffers, self.config.message_size,
                               tenant=self.config.tenant)
        return self.pool


class SendEndpoint(_EndpointBase):
    """The data-transmitting side."""

    def __init__(self, ctx: VerbsContext, endpoint_id: int,
                 config: EndpointConfig, destinations: Sequence[int],
                 num_groups: int, peers: Dict[int, int], threads: int = 1):
        super().__init__(ctx, endpoint_id, config, threads)
        #: node ids this endpoint may transmit to.
        self.destinations = tuple(destinations)
        #: number of transmission groups (sizes the buffer pool).
        self.num_groups = num_groups
        #: destination node id -> receiving endpoint id (the stage's
        #: mapping, shared, not copied).
        self.peers = peers
        #: buffers in flight, refcounted per destination (§5.1.3).
        self._pending = PendingTable()
        self._free = Queue(ctx.sim)
        self._attached_threads = 0
        self._finished_threads = 0
        self.messages_sent = 0
        self.bytes_sent = 0
        #: bytes transmitted per destination node (skew telemetry).
        self.bytes_by_dest: Dict[int, int] = {}

    # -- threads and buffers -------------------------------------------------

    def attach_thread(self) -> None:
        """Declare one worker thread as a user of this endpoint."""
        self._attached_threads += 1

    @property
    def send_pool_buffers(self) -> int:
        """Transmission buffers: the per-link window for every group."""
        return self.buffers_per_link * self.num_groups

    def provision_send_pool(self, extra: int = 0):
        """Process fragment: charge registration, carve the transmission
        pool (plus ``extra`` reserved buffers, e.g. final markers), and
        feed the non-reserved slots to the GETFREE free list as one run
        (a slot's Buffer is built when GETFREE first hands it out)."""
        pool = yield from self._provision_pool(self.send_pool_buffers + extra)
        self._free.put_run(self.send_pool_buffers, pool.buffer)
        return pool

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

    # -- the §4.2 interface ---------------------------------------------------

    def send(self, buf: Buffer, dests: Sequence[int], state: DataState):
        """Process fragment implementing SEND (may wait for flow control)."""
        raise NotImplementedError

    def record_send(self, dest: int, nbytes: int) -> None:
        """Account one transmitted message (per-destination skew feeds
        the telemetry snapshot)."""
        self.messages_sent += 1
        self.bytes_sent += nbytes
        self.bytes_by_dest[dest] = self.bytes_by_dest.get(dest, 0) + nbytes

    def get_free(self):
        """Process fragment implementing GETFREE; returns a Buffer."""
        ok, buf = self._free.try_get()
        if not ok:
            t0 = self.sim.now
            buf = yield self._free.get()
            self.free_wait_ns += self.sim.now - t0
            self._trace_stall("free-wait", t0)
        yield self.poll_cq_cost
        return buf

    def _wait_credit(self, conn):
        """Block until the connection has credit, tracking stall time.
        Callers enter it only when credit is short (``conn.sent >=
        conn.credit``): with credit in hand it waits for nothing."""
        t0 = self.sim.now
        while conn.sent >= conn.credit:
            if conn.notify is None:
                conn.notify = Notify(self.sim)
            yield conn.notify.wait()
        waited = self.sim.now - t0
        if waited > 0:
            self.credit_stalls += 1
            self.credit_wait_ns += waited
            self._trace_stall("credit-stall", t0)

    def finish(self):
        """Process fragment: the calling thread is done sending.

        When the last attached thread finishes, end-of-stream markers are
        transmitted on every connection (Algorithm 1, lines 14-17).
        """
        self._finished_threads += 1
        if self._finished_threads == self._attached_threads:
            yield from self._send_finals()

    def _send_finals(self):
        raise NotImplementedError


class CreditedSendEndpoint(SendEndpoint):
    """Two-sided SEND data path under stateless credit (§4.4.1-2)."""

    def _consume_credit(self, conn: CreditSender) -> None:
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
        wait = self.lock.acquire()
        if wait is not None:
            yield wait
        yield self.send_call_cost
        self.lock.release()
        self._pending.add(buf, len(dests))
        for dest in dests:
            conn = self.conns[dest]
            if conn.sent >= conn.credit:
                yield from self._wait_credit(conn)
            self._consume_credit(conn)
            frame = Frame("data", state, self.endpoint_id, conn.sent, None,
                          buf.payload, buf.length, buf.addr)
            yield self.post_wr_cost
            self._post_data(conn, buf, frame)
            self.record_send(dest, buf.length)

    def _send_finals(self):
        for dest in self.destinations:
            yield from self._send_final(dest)

    def _send_final(self, dest: int):
        # End-of-stream markers carry the per-connection send total
        # (message counting, §4.4.2; harmless extra state under RC).
        conn = self.conns[dest]
        if conn.sent >= conn.credit:
            yield from self._wait_credit(conn)
        self._consume_credit(conn)
        frame = Frame(
            kind="final", state=DEPLETED,
            src_endpoint=self.endpoint_id, seq=conn.sent,
            total=conn.sent + conn.lost,
        )
        yield self.post_wr_cost
        self._post_final(conn, dest, frame)

    # -- posting policy supplied by the design -----------------------------

    def _post_data(self, conn: CreditSender, buf: Buffer,
                   frame: Frame) -> None:
        raise NotImplementedError

    def _post_final(self, conn: CreditSender, dest: int,
                    frame: Frame) -> None:
        raise NotImplementedError


class ReceiveEndpoint(_EndpointBase):
    """The data-receiving side."""

    def __init__(self, ctx: VerbsContext, endpoint_id: int,
                 config: EndpointConfig, sources: Sequence[Tuple[int, int]],
                 threads: int = 1):
        super().__init__(ctx, endpoint_id, config, threads)
        #: (source node id, source endpoint id) pairs feeding this endpoint.
        self.sources = tuple(sources)
        #: delivered items: (state, src_endpoint, remote_addr, local Buffer).
        self._inbox = Queue(ctx.sim)
        #: sources whose end of stream has not arrived yet; each
        #: record's ``depleted`` flag says which.
        self._live_sources = len(self.sources)
        self.messages_received = 0
        self.bytes_received = 0

    @property
    def recv_pool_buffers(self) -> int:
        """Receive buffers: the per-link window for every source."""
        return self.buffers_per_link * max(1, len(self.sources))

    def provision_recv_pool(self):
        """Process fragment: charge registration and carve the pool."""
        return (yield from self._provision_pool(self.recv_pool_buffers))

    # -- the §4.2 interface ---------------------------------------------------

    def get_data(self):
        """Process fragment implementing GETDATA.

        Returns ``(state, src, remote, local)``; ``local`` is None on the
        end-of-stream sentinel.  Raises :class:`ShuffleNetworkError` if
        unreliable delivery lost data beyond the drain timeout.
        """
        ok, item = self._inbox.try_get()
        if not ok:
            t0 = self.sim.now
            item = yield self._inbox.get()
            self._account_data_wait(t0)
        yield self.poll_cq_cost
        if isinstance(item, ShuffleNetworkError):
            # Leave the error visible for the other consumer threads too.
            self._inbox.put(item)
            raise item
        return item

    def release(self, remote_addr: int, local: Buffer, src: int):
        """Process fragment implementing RELEASE."""
        raise NotImplementedError

    # -- shared internals ------------------------------------------------------

    def _account_data_wait(self, t0: int) -> None:
        """Close one GETDATA wait begun at ``t0``: the counter, and the
        ``data-wait`` stall on tracer and link recorder."""
        self.data_wait_ns += self.sim.now - t0
        self._trace_stall("data-wait", t0)

    def _deliver(self, src_endpoint: int, remote_addr: int, local,
                 flow: int = 0) -> None:
        """Hand one received buffer to the application inbox.

        The single receive-side instrumentation point: every transport
        routes arriving data through here, so message/byte accounting is
        uniform across designs.  ``flow`` closes the causal DAG edge when
        link recording is on: the flow's delivery time is stamped and a
        registered buffer remembered, so a later credit return can name
        the data message that freed it.  IPoIB delivers its ``Frame``
        itself, which no release reads and which dies once read, so it is
        not remembered.
        """
        self.messages_received += 1
        self.bytes_received += local.length
        if flow:  # only posted while the link recorder is on
            self.ctx.telemetry.links.on_deliver(
                flow, local if isinstance(local, Buffer) else None)
        self._inbox.put((MORE_DATA, src_endpoint, remote_addr,
                         local))

    def _source_depleted(self, conn: SourceRecord) -> None:
        """Mark ``conn``'s source finished (again: a no-op)."""
        if not conn.depleted:
            conn.depleted = True
            self._one_source_done()

    def _one_source_done(self) -> None:
        """Count one source finished; emit sentinels when all are done.
        Transports that see each end of stream exactly once (the
        baselines) call this directly."""
        self._live_sources -= 1
        if not self._live_sources:
            for _ in range(self.threads):
                self._inbox.put(DEPLETED_SENTINEL)

    def _fail(self, error: ShuffleNetworkError) -> None:
        self._inbox.put(error)


class CreditedReceiveEndpoint(ReceiveEndpoint):
    """Two-sided RELEASE path issuing stateless credit (§4.4.1-2)."""

    def release(self, remote_addr: int, local: Buffer, src: int):
        wait = self.lock.acquire()
        if wait is not None:
            yield wait
        yield self.post_wr_cost
        self.lock.release()
        conn = self.conns[src]
        self._repost(conn, local)
        conn.posted += 1
        # Credit is issued strictly after the Receive is reposted; the
        # model checker runs the same rule (looked up on the module).
        value = credit.release_credit(conn.posted,
                                      self.config.credit_frequency)
        if value is not None:
            yield self.post_wr_cost
            links = self.ctx.telemetry.links
            if links is not None:
                # Causal edge: the credit WR posted synchronously below is
                # triggered by the data flow that occupied this buffer.
                links.pending_trigger = links.buffer_flow(local)
            self._return_credit(conn, value)

    # -- posting policy supplied by the design -----------------------------

    def _repost(self, conn: CreditReceiver, local: Buffer) -> None:
        """Reset ``local`` and post it as a Receive again."""
        raise NotImplementedError

    def _return_credit(self, conn: CreditReceiver, value: int) -> None:
        raise NotImplementedError
