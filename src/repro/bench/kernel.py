"""Kernel hot-path microbenchmarks.

These measure the simulator itself — events dispatched per wall-clock
second, process wakeups, fabric packets routed, train events.  They are
the bottom rungs of the benchmark ladder (``benchmarks/ladder/rungs.py``
calls them as ``rung.sim.*`` / ``rung.fabric.*``), which compares parent
and change on one machine; see README, "Performance gating".
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict

from repro.sim import Simulator

__all__ = [
    "bench_dispatch_events",
    "bench_process_wakeups",
    "bench_fabric_packets",
    "bench_train_events",
]

#: concurrent call_at chains / sleeping processes the kernel rungs run.
CHAINS = 64

#: message size of the train rung: a 256-packet train at the 4 KiB MTU.
TRAIN_MESSAGE_BYTES = 1 << 20


def bench_dispatch_events(num_events: int = 300_000) -> Dict[str, Any]:
    """Raw callback dispatch: :data:`CHAINS` self-rescheduling ``call_at``
    chains.

    Exercises the scheduling path the flat fabric routing lives on:
    heap churn plus bare-callable queue entries.
    """
    sim = Simulator()
    remaining = [num_events]

    def make_tick(period: int):
        def tick() -> None:
            remaining[0] -= 1
            if remaining[0] > 0:
                sim.call_at(sim.now + period, tick)
        return tick

    for i in range(CHAINS):
        sim.call_at(i + 1, make_tick(7 + (i % 5)))
    start = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - start
    return {
        "name": "kernel_events_per_sec",
        "value": sim.events_dispatched / elapsed,
        "unit": "events/s",
        "higher_is_better": True,
        "detail": {"events": sim.events_dispatched,
                   "wall_clock_s": round(elapsed, 4)},
    }


def bench_process_wakeups(num_wakeups: int = 150_000) -> Dict[str, Any]:
    """:data:`CHAINS` generator processes in a ``yield period`` sleep
    loop.

    Measures the process resume path: one bare heap entry and one
    generator ``send`` per wakeup.
    """
    sim = Simulator()
    per_proc = num_wakeups // CHAINS

    def worker(period: int):
        for _ in range(per_proc):
            yield period

    for i in range(CHAINS):
        sim.process(worker(11 + (i % 7)), name=f"bench-worker-{i}")
    start = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - start
    return {
        "name": "kernel_wakeups_per_sec",
        "value": sim.process_wakeups / elapsed,
        "unit": "wakeups/s",
        "higher_is_better": True,
        "detail": {"wakeups": sim.process_wakeups,
                   "wall_clock_s": round(elapsed, 4)},
    }


def _pump(cluster, count: int, make_packet: Callable[[], Any]) -> None:
    """Route ``count`` packets back to back, each one's arrival
    continuation sending the next; runs the cluster until the last
    has arrived."""
    fabric = cluster.fabric
    remaining = count

    def send_next(_arrived: Any = None) -> None:
        nonlocal remaining
        if remaining:
            remaining -= 1
            fabric.route(make_packet(), send_next)

    send_next()
    cluster.run()


def bench_fabric_packets(num_packets: int = 30_000) -> Dict[str, Any]:
    """End-to-end packet routing on a two-node fabric (no QPs).

    Covers the coalesced route path: NIC pipes, switch hop, delivery.
    """
    from repro.cluster import Cluster
    from repro.fabric.config import EDR, ClusterConfig
    from repro.fabric.packet import make_train

    cluster = Cluster(ClusterConfig(network=EDR, num_nodes=2))

    start = time.perf_counter()
    _pump(cluster, num_packets, lambda: make_train(
        EDR, src_node=0, dst_node=1, src_qpn=1, dst_qpn=2,
        kind="SEND", length=256, wire_bytes=300))
    elapsed = time.perf_counter() - start
    return {
        "name": "fabric_packets_per_sec",
        "value": num_packets / elapsed,
        "unit": "packets/s",
        "higher_is_better": True,
        "detail": {"packets": num_packets,
                   "wall_clock_s": round(elapsed, 4)},
    }


def bench_train_events(num_messages: int = 2_000) -> Dict[str, Any]:
    """Train-path throughput and the event reduction trains buy.

    Routes ``num_messages`` 1 MiB RC messages (256-packet trains at the
    4 KiB MTU) through a two-node fabric, each charging every pipe in a
    single event.  The value is the train path's event throughput; the
    detail records the event-reduction factor over a per-packet model
    (the target is >= 20x for 1 MiB messages).  That model's count is
    derived, not run: it would add one tick per intra-train MTU
    boundary on each of the two pipes a message crosses on the
    single-switch fabric (egress and ingress).
    """
    from repro.cluster import Cluster
    from repro.fabric.config import EDR, ClusterConfig
    from repro.fabric.packet import make_train

    cluster = Cluster(ClusterConfig(network=EDR, num_nodes=2))
    start = time.perf_counter()
    _pump(cluster, num_messages, lambda: make_train(
        EDR, src_node=0, dst_node=1, src_qpn=1, dst_qpn=2,
        kind="SEND", length=TRAIN_MESSAGE_BYTES, transport="RC"))
    elapsed = time.perf_counter() - start
    train_events = cluster.sim.events_dispatched
    n_packets = max(1, -(-TRAIN_MESSAGE_BYTES // EDR.mtu))
    oracle_events = train_events + 2 * (n_packets - 1) * num_messages
    return {
        "name": "fabric_train_events_per_sec",
        "value": train_events / elapsed,
        "unit": "events/s",
        "higher_is_better": True,
        "detail": {
            "messages": num_messages,
            "message_bytes": TRAIN_MESSAGE_BYTES,
            "n_packets": n_packets,
            "train_events": train_events,
            "oracle_events": oracle_events,
            "event_reduction": round(oracle_events / train_events, 2),
            "train_wall_clock_s": round(elapsed, 4),
        },
    }
