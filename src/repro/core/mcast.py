"""MESQ/SR with native InfiniBand multicast — future work #3 (§7).

    "Third, we plan to specialize the MESQ/SR algorithm to use the native
    InfiniBand multicast primitive for broadcasting data.  We hypothesize
    that this will reduce the CPU cost during analytical query
    processing."

The send endpoint posts *one* Send work request per buffer for any
transmission group with more than one member: the datagram is addressed
to a multicast group the receivers' QPs joined at connection time, and
the fabric performs the replication at the last switch common to every
member's path (on the paper's single-switch platform, that one switch;
on a leaf-spine fabric, a shared trunk is crossed once before the
replication point — see ``repro.fabric.topology``).  The sender thus
pays one
``ibv_post_send`` and one egress serialization instead of ``|G|`` of
them — exactly the CPU and port-bandwidth saving the paper hypothesizes.

Flow control still operates per member (credit must be available on
*every* member before the single Send is posted), and the per-member
message counting of §4.4.2 is unchanged, so loss handling and
end-of-stream detection work exactly as in the base design.  The
end-of-stream finals carry per-destination totals, so they keep the
base design's point-to-point sends.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.endpoint import DataState, Frame, FrameCarrier
from repro.core.sr_ud import SRUDReceiveEndpoint, SRUDSendEndpoint
from repro.memory import Buffer
from repro.verbs.cm import EndpointRegistry
from repro.verbs.constants import OP_SEND, mcast_ah
from repro.verbs.wr import SendWR

__all__ = ["McastSRUDSendEndpoint", "McastSRUDReceiveEndpoint"]


class McastSRUDSendEndpoint(SRUDSendEndpoint):
    """SRUD send endpoint using hardware multicast for group sends.

    The endpoint id doubles as the MGID its receivers join."""

    def send(self, buf: Buffer, dests: Sequence[int], state: DataState):
        # The HCA does not loop a multicast datagram back to its sender,
        # so a group containing this node needs one explicit self copy.
        me = self.ctx.node_id
        others = [d for d in dests if d != me]
        if len(others) < 2:
            yield from super().send(buf, dests, state)
            return
        wait = self.lock.acquire()
        if wait is not None:
            yield wait
        yield self.send_call_cost
        self.lock.release()
        self._pending.add(buf, 1 + (1 if me in dests else 0))
        # Per-member flow control: every destination must have credit.
        for dest in dests:
            conn = self.conns[dest]
            if conn.sent >= conn.credit:
                yield from self._wait_credit(conn)
        for dest in dests:
            self._consume_credit(self.conns[dest])
        frame = Frame("data", state, self.endpoint_id, 0, None, buf.payload,
                      buf.length, buf.addr)
        yield self.post_wr_cost
        self.qp.post_send(SendWR(("data", buf), OP_SEND, FrameCarrier(frame),
                                 buf.length, 0, mcast_ah(self.endpoint_id)))
        # One multicast packet serves every remote member; attribute the
        # bytes to each destination for the skew telemetry.
        self.messages_sent += 1
        self.bytes_sent += buf.length
        for dest in others:
            self.bytes_by_dest[dest] = \
                self.bytes_by_dest.get(dest, 0) + buf.length
        if me in dests:
            yield self.post_wr_cost
            self.qp.post_send(SendWR(("data", buf), OP_SEND,
                                     FrameCarrier(frame), buf.length, 0,
                                     self.conns[me].ah))
            self.record_send(me, buf.length)


class McastSRUDReceiveEndpoint(SRUDReceiveEndpoint):
    """SRUD receive endpoint that joins its sources' multicast groups."""

    def connect(self, registry: EndpointRegistry):
        yield from super().connect(registry)
        for _src_node, src_ep in self.sources:
            self.ctx.mcast_attach(src_ep, self.qp)
