"""qperf: the raw bandwidth ceiling (§5.1).

The sender registers a single buffer and keeps posting RDMA Send
requests; the receiver keeps Receive requests posted and never touches
the data.  These assumptions preclude direct comparison with the shuffle
algorithms, but define the dashed "peak" line of Figure 10.
"""

from __future__ import annotations

from repro.cluster import Cluster
from repro.fabric.config import ClusterConfig, NetworkConfig
from repro.memory import BufferPool
from repro.verbs.constants import OP_SEND, QPT_RC, AddressHandle
from repro.verbs.wr import SendWR

__all__ = ["run_qperf"]

GIB = float(1 << 30)


def run_qperf(network: NetworkConfig, message_size: int = 64 * 1024,
              messages: int = 2048, outstanding: int = 16) -> float:
    """Peak RC Send/Receive throughput between two nodes, in GiB/s.

    ``outstanding`` models qperf's pipelining: completions are polled
    only to repost, so the wire stays saturated.  The first message only
    starts the timed span, so ``messages`` must be at least 2.
    """
    if messages < 2:
        raise ValueError(
            f"messages must be >= 2 (the first one only starts the timed "
            f"span), got {messages}")
    cluster = Cluster(ClusterConfig(network=network, num_nodes=2,
                                    threads_per_node=1))
    sim = cluster.sim
    ctx_s, ctx_r = cluster.contexts
    cq_s, cq_r = ctx_s.create_cq(), ctx_r.create_cq()
    qp_s = ctx_s.create_qp(QPT_RC, cq_s, cq_s)
    qp_r = ctx_r.create_qp(QPT_RC, cq_r, cq_r)
    qp_s.connect(AddressHandle(1, qp_r.qpn))
    qp_r.connect(AddressHandle(0, qp_s.qpn))
    send_pool = BufferPool(ctx_s, 1, message_size)  # a single buffer
    recv_pool = BufferPool(ctx_r, outstanding, message_size)
    the_buffer = send_pool.buffer(0)
    the_buffer.fill(None, message_size)
    qp_r.post_recv_run(recv_pool, message_size)

    received = {"count": 0, "first": None, "last": None}

    def sender():
        inflight = 0
        sent = 0
        while sent < messages:
            while inflight < outstanding and sent < messages:
                qp_s.post_send(SendWR(wr_id=sent, opcode=OP_SEND,
                                      buffer=the_buffer, length=message_size))
                inflight += 1
                sent += 1
            yield cq_s.wait()
            inflight -= 1

    def receiver():
        while received["count"] < messages:
            wc = yield cq_r.wait()
            if received["first"] is None:
                received["first"] = sim.now
            received["last"] = sim.now
            received["count"] += 1
            # Repost immediately; the data is never read.
            qp_r.post_recv_buffer(wc.wr_id, message_size)

    sim.process(sender(), name="qperf-send")
    done = sim.process(receiver(), name="qperf-recv")
    sim.run()
    if not done.processed or received["count"] < messages:
        raise RuntimeError("qperf run did not complete")
    span = max(1, received["last"] - received["first"])
    # first message excluded from the span, as qperf warms up.
    return (received["count"] - 1) * message_size / GIB / (span / 1e9)
