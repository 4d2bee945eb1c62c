"""The runtime protocol sanitizer: a race detector for the simulated stack.

The endpoint designs live or die by protocol discipline (§4.2, §4.4):
receives are provisioned before the matching sends, a transmission buffer
is untouchable until its signaled completion has been polled, credit is
never driven negative, and the FreeArr/ValidArr circular queues only ever
carry addresses their consumer exposed.  The built-in endpoint kinds honour
these invariants implicitly; a *new* endpoint kind — a send/receive
class pair in an :class:`~repro.core.designs.EndpointKind` — can
silently violate them and still produce a plausible-looking simulation
result.

:class:`Sanitizer` is a zero-overhead-when-off checker consulted by the
verbs objects (:mod:`repro.verbs.qp` / ``cq`` / ``memory``), the buffer
layer and the transport runtime.  It lives in one place — the
``sanitizer`` field of the cluster's observer bundle
(:class:`~repro.telemetry.core.Telemetry`), ``None`` when off — and every
hook site reads that field and guards with ``if san is not None``, so an
unsanitized run executes exactly the code it executed before and a
sanitizer enabled at any time is seen by objects built earlier.

Checks **observe, never perturb**: no hook yields, charges simulated
time, or touches a metrics counter, so simulated end times and telemetry
snapshots are bit-identical with the sanitizer on or off.  Violations are
recorded with the simulated-time stamp of the offending call and, when
tracing is enabled, mirrored as instant events on a per-node
``sanitizer`` track so they line up with the transport spans in Perfetto.

Enable with :meth:`repro.cluster.Cluster.enable_sanitizer` or
``repro-bench --sanitize``; the rule catalogue is :data:`RUNTIME_RULES`
(see DESIGN.md for the companion static rules).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, DefaultDict, Dict, List, Tuple

from repro.memory import Buffer
from repro.verbs.constants import QPState, QPType

__all__ = [
    "ProtocolViolationError",
    "RUNTIME_RULES",
    "Sanitizer",
    "Violation",
]

#: runtime rule catalogue: rule id -> what a report of it means.
RUNTIME_RULES: Dict[str, str] = {
    "qp-state": (
        "work request posted on a Queue Pair that is not ready "
        "(send outside RTS, receive outside INIT/RTS, unconnected RC)"),
    "mr-lifetime": (
        "access to a deregistered memory region, an address outside the "
        "region, or a double deregistration"),
    "buffer-reuse": (
        "registered buffer rewritten while a work request on it is still "
        "in flight — the classic RDMA use-after-free race"),
    "cq-overflow": (
        "completion pushed into a full completion queue (fatal async "
        "event on real hardware)"),
    "cq-double-completion": (
        "completion arrived for a buffer with no work request in flight "
        "(double or spurious completion)"),
    "credit-underflow": (
        "sender transmitted past the absolute credit granted by the "
        "receiver (violates the sent <= credit invariant of §4.4)"),
    "credit-overgrant": (
        "receiver advertised more credit than Receives it has posted "
        "(violates the credit <= posted invariant of §4.4 — the sender "
        "would overrun the receive queue)"),
    "ring-overrun": (
        "circular-queue producer posted more in-flight values than the "
        "remote FreeArr/ValidArr ring has slots"),
    "ring-board-inconsistency": (
        "a FreeArr/ValidArr ring carried a value its consumer never "
        "exposed, or a value arrived that no producer posted"),
}


class ProtocolViolationError(Exception):
    """Raised by :meth:`Sanitizer.assert_clean` (or every violation in
    strict mode) when the run broke a transport protocol invariant."""


@dataclass
class Violation:
    """One recorded protocol violation, stamped in simulated time."""

    rule: str
    message: str
    node_id: int
    time_ns: int
    details: Dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        return (f"[{self.rule}] t={self.time_ns}ns node={self.node_id}: "
                f"{self.message}")


def _wr_id_buffers(ref: Any) -> Tuple[Buffer, ...]:
    """Registered buffers carried by a ``wr_id``: the endpoints put the
    real buffer either as the wr_id itself or inside a tag tuple.

    The test is type identity with :class:`~repro.memory.Buffer`, so a
    :class:`~repro.core.endpoint.FrameCarrier` (payload only) or a plain
    tag is untracked and costs nothing."""
    if type(ref) is Buffer:
        return (ref,)
    found: Tuple[Buffer, ...] = ()
    if type(ref) is tuple:
        for el in ref:
            if type(el) is Buffer:
                found += (el,)
    return found


class Sanitizer:
    """Collects protocol violations from the hook sites in the verbs
    layer and the transport runtime.

    One instance watches one simulation (one :class:`~repro.cluster.Cluster`).
    All state is plain Python bookkeeping keyed by node and address —
    addresses alone are *not* unique because every node's
    :class:`~repro.verbs.memory.AddressSpace` starts at the same base.
    """

    def __init__(self, sim, telemetry=None, strict: bool = False):
        self.sim = sim
        #: optional Telemetry bundle; violations mirror onto its tracer.
        self.telemetry = telemetry
        #: raise ProtocolViolationError at the first violation.
        self.strict = strict
        self.violations: List[Violation] = []
        #: signaled work requests in flight: node_id -> buffer addr ->
        #: count (an absent address is untracked, not zero).
        self._by_node: DefaultDict[int, Dict[int, int]] = defaultdict(dict)
        #: produced-but-unconsumed slots per (consumer node, ring base).
        self._rings: Dict[Tuple[int, int], int] = {}

    # -- reporting ---------------------------------------------------------

    def record(self, rule: str, message: str, node_id: int = -1,
               **details: Any) -> None:
        """Record one violation (never perturbs simulated time)."""
        violation = Violation(rule, message, node_id, self.sim.now, details)
        self.violations.append(violation)
        tracer = None if self.telemetry is None else self.telemetry.tracer
        if tracer is not None and node_id >= 0:
            tracer.instant(
                node_id, "sanitizer", rule, cat="sanitizer",
                args={"message": message})
        if self.strict:
            raise ProtocolViolationError(str(violation))

    def report(self) -> str:
        """Human-readable summary of every recorded violation."""
        if not self.violations:
            return "sanitizer: clean (0 violations)"
        lines = [f"sanitizer: {len(self.violations)} violation(s)"]
        lines.extend(f"  {v}" for v in self.violations)
        return "\n".join(lines)

    def assert_clean(self) -> None:
        """Raise :class:`ProtocolViolationError` if anything was recorded."""
        if self.violations:
            raise ProtocolViolationError(self.report())

    # -- verbs hooks: queue pairs ------------------------------------------

    def check_post_send(self, qp, wr) -> None:
        """A ``post_send`` the verbs layer rejects: record a QP outside
        RTS or an unconnected RC QP (called only before that raise)."""
        if qp.state is not QPState.RTS:
            self.record(
                "qp-state",
                f"post_send on QP {qp.qpn} in state {qp.state.name}",
                node_id=qp.ctx.node_id, qpn=qp.qpn, state=qp.state.name)
        elif qp.qp_type is QPType.RC and qp.peer is None:
            self.record(
                "qp-state",
                f"post_send on unconnected RC QP {qp.qpn}",
                node_id=qp.ctx.node_id, qpn=qp.qpn)

    def track_post_send(self, qp, wr) -> None:
        """Post-validation: account the signaled WR's buffer in flight."""
        if not wr.signaled:
            return
        buf = wr.buffer
        bufs = (buf,) if type(buf) is Buffer else _wr_id_buffers(wr.wr_id)
        for tracked in bufs:
            counts = self._by_node[tracked.mr.node_id]
            counts[tracked.addr] = counts.get(tracked.addr, 0) + 1

    def check_post_recv(self, qp) -> None:
        """A Receive posted outside INIT/RTS, called only before the verbs
        layer raises on it."""
        if qp.state not in (QPState.INIT, QPState.RTS):
            self.record(
                "qp-state",
                f"post_recv on QP {qp.qpn} in state {qp.state.name}",
                node_id=qp.ctx.node_id, qpn=qp.qpn, state=qp.state.name)

    def track_post_recv(self, qp, wr) -> None:
        """Receives always complete signaled; track the posted buffer,
        which a post rewrites (this checks a repost's reset too)."""
        buf = wr.buffer
        if type(buf) is Buffer:
            counts = self._by_node[buf.mr.node_id]
            outstanding = counts.get(buf.addr, 0)
            if outstanding > 0:
                self.on_buffer_write(buf, "post_recv")
            counts[buf.addr] = outstanding + 1

    def track_post_recv_run(self, pool, slots: range) -> None:
        """A run of a pool's ``slots`` posted as Receives: track each
        slot's address as :meth:`track_post_recv` tracks one buffer,
        without building the buffers."""
        counts = self._by_node[pool.mr.node_id]
        addrs = pool.addrs
        for i in slots:
            addr = addrs[i]
            counts[addr] = counts.get(addr, 0) + 1

    # -- verbs hooks: completion queues ------------------------------------

    def on_cq_push(self, cq, wc) -> None:
        """Called before a polled or waited CQ accepts ``wc``, and before
        a subscribed one refuses it (so overruns are seen even though the
        verbs layer raises on them)."""
        if len(cq) >= cq.depth:
            self.record(
                "cq-overflow",
                f"completion pushed into full CQ (depth={cq.depth})",
                node_id=cq.node_id, depth=cq.depth)
        by_node = self._by_node
        for buf in _wr_id_buffers(wc.wr_id):
            if by_node[buf.mr.node_id].get(buf.addr) == 0:
                self._double_completion(cq, wc, buf)

    def on_cq_consumed(self, cq, wc) -> None:
        """Called when the application polls ``wc`` out of the CQ; the
        buffer becomes reusable."""
        by_node = self._by_node
        for buf in _wr_id_buffers(wc.wr_id):
            counts = by_node[buf.mr.node_id]
            count = counts.get(buf.addr)
            if count:  # untracked (posted before attach) stays untracked
                counts[buf.addr] = count - 1

    def on_cq_delivered(self, cq, wc) -> None:
        """A subscribed CQ's push, which its consumer takes in place:
        :meth:`on_cq_push` then :meth:`on_cq_consumed` in one call, with
        ``wc`` decoded once.  Such a CQ holds nothing, so it cannot
        overflow."""
        ref = wc.wr_id
        bufs = (ref,) if type(ref) is Buffer else _wr_id_buffers(ref)
        by_node = self._by_node
        for buf in bufs:
            if by_node[buf.mr.node_id].get(buf.addr) == 0:
                self._double_completion(cq, wc, buf)
        for buf in bufs:
            counts = by_node[buf.mr.node_id]
            count = counts.get(buf.addr)
            if count:
                counts[buf.addr] = count - 1

    def _double_completion(self, cq, wc, buf: Buffer) -> None:
        self.record(
            "cq-double-completion",
            f"completion for buffer {buf.addr:#x} with no work "
            f"request in flight",
            node_id=cq.node_id, addr=buf.addr, opcode=wc.opcode.name)

    # -- memory hooks ------------------------------------------------------

    def on_mr_error(self, mr, kind: str, addr: int) -> None:
        """A memory-region access the verbs layer is about to reject."""
        self.record(
            "mr-lifetime",
            f"{kind} on MR lkey={mr.lkey} at {addr:#x}",
            node_id=mr.node_id, lkey=mr.lkey, addr=addr, kind=kind)

    def on_buffer_write(self, buf, op: str) -> None:
        """The application rewrote ``buf`` (fill/reset); illegal while any
        signaled work request on it is still in flight."""
        outstanding = self._by_node[buf.mr.node_id].get(buf.addr, 0)
        if outstanding > 0:
            self.record(
                "buffer-reuse",
                f"buffer {buf.addr:#x} {op}() with {outstanding} work "
                f"request(s) still in flight",
                node_id=buf.mr.node_id, addr=buf.addr, op=op,
                outstanding=outstanding)

    # -- transport-runtime hooks -------------------------------------------

    def on_credit_consumed(self, ep, conn) -> None:
        """Called after a send endpoint spent one credit on ``conn``."""
        if conn.sent > conn.credit:
            self.record(
                "credit-underflow",
                f"endpoint {ep.endpoint_id} sent {conn.sent} messages to "
                f"node {conn.node} but holds credit for {conn.credit}",
                node_id=ep.ctx.node_id, endpoint=ep.endpoint_id,
                dest=conn.node, sent=conn.sent, credit=conn.credit)

    def on_credit_issued(self, conn, value: int, node_id: int = -1) -> None:
        """Called when a receive endpoint advertises absolute credit
        ``value`` on ``conn`` (credit word or credit datagram)."""
        if value > conn.posted:
            if node_id < 0:  # a credit word: the record has its RC QP
                node_id = conn.qp.ctx.node_id
            self.record(
                "credit-overgrant",
                f"receiver advertised credit {value} to endpoint "
                f"{conn.endpoint} with only {conn.posted} Receives posted",
                node_id=node_id, endpoint=conn.endpoint,
                value=value, posted=conn.posted)

    def on_ring_produce(self, qp, cursor) -> None:
        """A value was produced into the remote ring behind ``cursor``."""
        peer = qp.peer
        if peer is None:  # rings ride RC QPs; tolerate exotic callers
            return
        key = (peer.node_id, cursor.base)
        outstanding = self._rings.get(key, 0) + 1
        self._rings[key] = outstanding
        if outstanding > cursor.cap:
            self.record(
                "ring-overrun",
                f"ring at node {peer.node_id} base {cursor.base:#x} has "
                f"{outstanding} in-flight values for {cursor.cap} slots",
                node_id=qp.ctx.node_id, base=cursor.base,
                outstanding=outstanding, cap=cursor.cap)

    def on_ring_consume(self, board, region_base: int, key: Any,
                        value: int) -> None:
        """A produced value reached its consumer board; validate it."""
        node = board.mr.node_id
        ring_key = (node, region_base)
        outstanding = self._rings.get(ring_key, 0) - 1
        if outstanding < 0:
            self.record(
                "ring-board-inconsistency",
                f"{board.name} at {region_base:#x} received value "
                f"{value:#x} that no producer posted",
                node_id=node, base=region_base, value=value)
            outstanding = 0
        self._rings[ring_key] = outstanding
        validator = board.validator
        if validator is not None and not validator(key, value):
            self.record(
                "ring-board-inconsistency",
                f"{board.name} carried value {value:#x} the consumer "
                f"never exposed (peer key {key!r})",
                node_id=node, base=region_base, value=value, key=key)

