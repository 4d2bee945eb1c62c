"""The communication-endpoint abstraction (§4.2).

An endpoint hides transport-level intricacies (Queue Pair wiring, memory
registration, flow control, error handling) behind a small interface:

Send side:

* ``SEND(buf, dest, state)`` — schedule ``buf`` for transmission to every
  node in ``dest``; the buffer cannot be touched after the call.
* ``GETFREE()`` — obtain a registered buffer for a later SEND; blocks while
  all transmission buffers are in use.

Receive side:

* ``GETDATA()`` — returns ``(state, src, remote, local)``: a received
  buffer ``local``, the sending endpoint's id ``src``, and the buffer's
  address ``remote`` in the sender (used by one-sided implementations).
* ``RELEASE(remote, local, src)`` — return ``local`` for reuse and, for
  one-sided transports, notify the sender that ``remote`` is consumable.

Every endpoint participating in a query is identified by a unique integer
(used like a TCP address/port pair).  All methods are thread-safe: shared
(single-endpoint) configurations serialize their bookkeeping through a
mutex, which is exactly the contention the SE designs trade resources for.

This module defines the interface and the design-independent state
(configuration, framing, stall accounting, the GETFREE/GETDATA queues).
The transport mechanics the designs share — per-peer connection tables,
the §4.4 credit schemes, buffer rings, completion dispatch, and the
backend registry — live in :mod:`repro.core.transport`; concrete designs
subclass the runtime bases there and supply only posting policy.

Implementation style note: methods that may block are generator *process
fragments* — callers invoke them as ``yield from endpoint.send(...)``
inside a simulation process, mirroring how the real (blocking) C++ calls
occupy a worker thread.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.memory import Buffer
from repro.sim import Mutex, Queue
from repro.verbs.cm import EndpointRegistry
from repro.verbs.device import VerbsContext

from repro.core.transport.rings import charge_registration

__all__ = [
    "DataState",
    "ShuffleNetworkError",
    "EndpointConfig",
    "Frame",
    "SendEndpoint",
    "ReceiveEndpoint",
    "DEPLETED_SENTINEL",
]


class DataState(enum.IntEnum):
    """The binary transmission state carried with every buffer (§4.2)."""

    MORE_DATA = 0
    DEPLETED = 1


class ShuffleNetworkError(Exception):
    """Raised when unreliable transmission lost data past the drain
    timeout; the database system reacts by restarting the query (§4.4.2)."""


@dataclass(frozen=True)
class EndpointConfig:
    """Tunables shared by all endpoint implementations."""

    #: RDMA message size == transmission buffer size.  Capped at the MTU
    #: for Unreliable Datagram endpoints (§2.2.2).
    message_size: int = 64 * 1024
    #: transmission buffers per connection per thread ("double buffering"
    #: by default, §5.1.2; the flow-control experiment of §5.1.1 uses 16).
    buffers_per_connection: int = 2
    #: credit write-back frequency: the receiver returns credit after this
    #: many Receive requests have been reposted (§4.4.1, Fig 8).
    credit_frequency: int = 2
    #: number of worker threads sharing this endpoint (1 in the
    #: multi-endpoint configuration, t in the single-endpoint one);
    #: buffer pools are sized per thread served.
    threads_per_endpoint: int = 1
    #: how long an Unreliable Datagram receiver waits for outstanding
    #: packets after the sent/received totals disagree, before declaring a
    #: network error and forcing a query restart (§4.4.2).
    drain_timeout_ns: int = 50_000_000
    #: UD buffers-per-connection multiplier.  "Double buffering" refers to
    #: the 64 KiB RC buffers (§5.1.2); UD messages are MTU-sized, so the
    #: same *byte* window needs more buffers (the §5.1.1 experiments use
    #: 16 per remote node).  The stage multiplies buffers_per_connection
    #: by this factor for UD endpoints; pinned memory stays far below the
    #: RC designs' (Fig 9b).
    ud_window_factor: int = 4
    #: owning tenant of this endpoint's resources (multi-tenant service
    #: accounting and quota enforcement); None outside the service.
    tenant: Optional[str] = None

    def __post_init__(self):
        if self.message_size < 64:
            raise ValueError(f"message size too small: {self.message_size}")
        if self.buffers_per_connection < 1:
            raise ValueError("need at least one buffer per connection")
        if self.credit_frequency < 1:
            raise ValueError("credit frequency must be >= 1")
        if (self.credit_frequency
                > self.buffers_per_connection * self.threads_per_endpoint):
            # Otherwise the final write-back never happens and the sender
            # can starve for credit at end of stream (§5.1.1 discussion).
            raise ValueError(
                "credit_frequency must not exceed buffers per connection "
                f"({self.credit_frequency} > "
                f"{self.buffers_per_connection * self.threads_per_endpoint})"
            )
        if self.threads_per_endpoint < 1:
            raise ValueError("threads_per_endpoint must be >= 1")

    @property
    def buffers_per_link(self) -> int:
        """Registered buffers provisioned per connection on each side."""
        return self.buffers_per_connection * self.threads_per_endpoint


@dataclass(slots=True)
class Frame:
    """Endpoint-level framing carried inside every transmission buffer.

    The real implementation encodes this in the first bytes of the
    registered buffer (Algorithm 3 line 2); the simulation carries it as
    the buffer payload.
    """

    #: "data" for application buffers, "final" for end-of-stream markers,
    #: "credit" for UD software credit returns.
    kind: str
    state: DataState = DataState.MORE_DATA
    #: unique id of the sending endpoint.
    src_endpoint: int = -1
    #: per-connection sequence number (datagram accounting, §4.4.2).
    seq: int = 0
    #: on a "final" frame: total messages sent on this connection,
    #: including the final itself (§4.4.2).
    total: Optional[int] = None
    #: the tuple batch (opaque to the endpoint).
    payload: Any = None
    #: valid payload bytes.
    length: int = 0
    #: the buffer's address in the *sender's* registered memory; one-sided
    #: receivers return it through RELEASE.
    remote_addr: int = 0
    #: on a "credit" frame: the absolute credit value.
    credit: int = 0


#: item placed on the receive inbox once every source has been depleted.
DEPLETED_SENTINEL = (DataState.DEPLETED, -1, 0, None)


class FrameCarrier:
    """Adapts a :class:`Frame` to the verbs layer's buffer interface.

    A Send work request transmits ``wr.buffer.payload``; wrapping the frame
    in this one-field object lets one application buffer be in flight to
    several destinations with per-connection framing (distinct sequence
    numbers), the way the real code writes per-connection headers into the
    same registered buffer region.
    """

    __slots__ = ("payload",)

    def __init__(self, frame: Frame):
        self.payload = frame


class _EndpointBase:
    """State shared by send and receive endpoints."""

    def __init__(self, ctx: VerbsContext, endpoint_id: int,
                 config: EndpointConfig):
        self.ctx = ctx
        self.sim = ctx.sim
        self.node = ctx.node
        self.endpoint_id = endpoint_id
        self.config = config
        self.net = ctx.config
        #: serializes bookkeeping when several threads share the endpoint.
        self.lock = Mutex(ctx.sim)
        #: the main registered transmission/receive buffer pool.
        self.pool = None
        #: auxiliary registered pools (e.g. UD credit-datagram slots).
        self.aux_pools: List = []
        #: auxiliary registered regions (credit words, FreeArr/ValidArr).
        self.aux_mrs: List = []
        ctx.telemetry.register_endpoint(self)

    # -- introspection ------------------------------------------------------

    def qps(self) -> List:
        """Queue Pairs owned by this endpoint (Table 1 accounting)."""
        qps = []
        qp = getattr(self, "qp", None)
        if qp is not None:
            qps.append(qp)
        conns = getattr(self, "conns", None)
        if conns is not None:
            qps.extend(conns.qps())
        return qps

    def registered_regions(self) -> List:
        """Registered memory regions pinned by this endpoint (Fig 9b)."""
        regions = []
        if self.pool is not None:
            regions.append(self.pool.mr)
        regions.extend(self.aux_mrs)
        regions.extend(pool.mr for pool in self.aux_pools)
        return regions

    def _cpu(self, ns: float):
        """Charge scaled CPU time to the calling thread."""
        return self.node.cpu_delay(ns)

    def _trace_stall(self, name: str, t0: int) -> None:
        """Emit a stall span on this endpoint's track if time elapsed."""
        waited = self.sim.now - t0
        if waited > 0:
            telemetry = self.ctx.telemetry
            tracer = telemetry.tracer
            if tracer is not None:
                tracer.complete(
                    self.ctx.node_id, f"ep{self.endpoint_id}", name, t0,
                    waited, "endpoint")
            links = telemetry.links
            if links is not None:
                links.stall(self.ctx.node_id, self.endpoint_id, name, t0,
                            waited)

    def _charge_registration(self, nbytes: int):
        """Process fragment: charge memory pin+register time for ``nbytes``
        (the region itself is created separately, e.g. by a BufferPool)."""
        yield from charge_registration(self.ctx, nbytes)


class SendEndpoint(_EndpointBase):
    """Base class for the data-transmitting side."""

    def __init__(self, ctx: VerbsContext, endpoint_id: int,
                 config: EndpointConfig, destinations: Sequence[int],
                 num_groups: int):
        super().__init__(ctx, endpoint_id, config)
        #: node ids this endpoint may transmit to.
        self.destinations = tuple(destinations)
        #: number of transmission groups (sizes the buffer pool).
        self.num_groups = num_groups
        self._free = Queue(ctx.sim)
        self._attached_threads = 0
        self._finished_threads = 0
        self.messages_sent = 0
        self.bytes_sent = 0
        #: bytes transmitted per destination node (skew telemetry).
        self.bytes_by_dest: Dict[int, int] = {}
        #: profiling: time threads spent blocked for credit / free buffers
        #: (the §5.1.3 "blocked for credit" vs "blocked on completions"
        #: distinction).
        self.credit_wait_ns = 0
        self.credit_stalls = 0
        self.free_wait_ns = 0

    # -- lifecycle ---------------------------------------------------------

    def setup(self, registry: EndpointRegistry):
        """Phase 1 (process fragment): create resources, publish wiring."""
        raise NotImplementedError

    def connect(self, registry: EndpointRegistry):
        """Phase 2 (process fragment): resolve peers, build connections."""
        raise NotImplementedError

    def attach_thread(self) -> None:
        """Declare one worker thread as a user of this endpoint."""
        self._attached_threads += 1

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
        t0 = self.sim.now
        buf = yield self._free.get()
        self.free_wait_ns += self.sim.now - t0
        self._trace_stall("free-wait", t0)
        yield self._cpu(self.net.poll_cq_ns)
        return buf

    def _wait_credit(self, conn):
        """Block until the connection has credit, tracking stall time."""
        t0 = self.sim.now
        while conn.sent >= conn.credit:
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
        return None

    def _send_finals(self):
        raise NotImplementedError


class ReceiveEndpoint(_EndpointBase):
    """Base class for the data-receiving side."""

    def __init__(self, ctx: VerbsContext, endpoint_id: int,
                 config: EndpointConfig, sources: Sequence[Tuple[int, int]]):
        super().__init__(ctx, endpoint_id, config)
        #: (source node id, source endpoint id) pairs feeding this endpoint.
        self.sources = tuple(sources)
        #: delivered items: (state, src_endpoint, remote_addr, local Buffer).
        self._inbox = Queue(ctx.sim)
        self._active_sources = {src_ep for _node, src_ep in self.sources}
        self.messages_received = 0
        self.bytes_received = 0
        #: profiling: time threads spent blocked waiting for data.
        self.data_wait_ns = 0

    def setup(self, registry: EndpointRegistry):
        raise NotImplementedError

    def connect(self, registry: EndpointRegistry):
        raise NotImplementedError

    # -- the §4.2 interface ---------------------------------------------------

    def get_data(self):
        """Process fragment implementing GETDATA.

        Returns ``(state, src, remote, local)``; ``local`` is None on the
        end-of-stream sentinel.  Raises :class:`ShuffleNetworkError` if
        unreliable delivery lost data beyond the drain timeout.
        """
        t0 = self.sim.now
        item = yield self._inbox.get()
        self.data_wait_ns += self.sim.now - t0
        self._trace_stall("data-wait", t0)
        yield self._cpu(self.net.poll_cq_ns)
        if isinstance(item, ShuffleNetworkError):
            # Leave the error visible for the other consumer threads too.
            self._inbox.put(item)
            raise item
        return item

    def release(self, remote_addr: int, local: Buffer, src: int):
        """Process fragment implementing RELEASE."""
        raise NotImplementedError

    # -- shared internals ------------------------------------------------------

    def _deliver(self, src_endpoint: int, remote_addr: int, local,
                 flow: int = 0) -> None:
        """Hand one received buffer to the application inbox.

        The single receive-side instrumentation point: every transport
        routes arriving data through here, so message/byte accounting is
        uniform across designs.  ``flow`` closes the causal DAG edge when
        link recording is on: the flow's delivery time is stamped and the
        buffer remembered, so a later credit return can name the data
        message that freed it.
        """
        self.messages_received += 1
        self.bytes_received += local.length
        if flow:
            links = self.ctx.telemetry.links
            if links is not None:
                links.on_deliver(flow, local)
        self._inbox.put((DataState.MORE_DATA, src_endpoint, remote_addr,
                         local))

    def _source_depleted(self, src_endpoint: int) -> None:
        """Mark one source finished; emit sentinels when all are done."""
        self._active_sources.discard(src_endpoint)
        if not self._active_sources:
            for _ in range(self.config.threads_per_endpoint):
                self._inbox.put(DEPLETED_SENTINEL)

    def _fail(self, error: ShuffleNetworkError) -> None:
        self._inbox.put(error)
