"""Per-peer state costs what it carries.

A cluster of ``n`` nodes holds ``n²`` connection records, address-handle
references, link counters and peer-map entries, so the host memory a
node pair costs decides how far the scale-out sweep can go.  These tests
pin that budget and the representations behind it: records by role, one
address handle per UD QP, signals built on the first wait, MR table
entries only for slots that hold an object, link bytes in rows, and
ring boards that find a write's ring by division, not by a scan over
every peer's ring.
"""

import gc
import tracemalloc
from types import SimpleNamespace

import pytest

import repro.fabric.routing as routing
from repro import Cluster, ClusterConfig, EDR
from repro.bench.workloads import run_broadcast, run_repartition
from repro.core.groups import TransmissionGroups
from repro.core.transport import connections
from repro.core.transport.credit import RingBoard, grant_credit
from repro.fabric import Fabric
from repro.fabric.config import LEAF_SPINE
from repro.memory import BufferPool
from repro.sim import Simulator
from repro.verbs import VerbsContext
from repro.verbs.qp import QueuePair


def make_cluster(nodes, threads=1, **kwargs):
    return Cluster(ClusterConfig(network=EDR, num_nodes=nodes,
                                 threads_per_node=threads, **kwargs))


def set_up(design, nodes, threads=1):
    cluster = make_cluster(nodes, threads)
    stage = cluster.shuffle_stage(
        design, TransmissionGroups.repartition(nodes))
    cluster.run_process(stage.setup(), name="setup")
    return cluster, stage


def setup_bytes(design, nodes):
    """Traced bytes a cluster plus one set-up stage holds."""
    gc.collect()
    tracemalloc.start()
    try:
        cluster, stage = set_up(design, nodes)
        gc.collect()
        held, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    cluster.dispose()
    return held


@pytest.mark.parametrize("design, budget", [
    # Parent of the role records: 1,205 and 2,482 B per pair.
    ("MESQ/SR", 750),
    ("MEMQ/SR", 2_000),
])
def test_setup_bytes_per_node_pair_stay_in_budget(design, budget):
    """What one more node pair costs a set-up stage, from the growth
    between 16 and 32 nodes (one thread, so one endpoint per node)."""
    grown = setup_bytes(design, 32) - setup_bytes(design, 16)
    per_pair = grown / (32 ** 2 - 16 ** 2)
    assert per_pair <= budget, f"{design}: {per_pair:.0f} B per node pair"


ROLE_RECORDS = [
    connections.RCCreditSender, connections.UDCreditSender,
    connections.RCCreditReceiver, connections.UDCreditReceiver,
    connections.RingSender, connections.WriteRingSender,
    connections.RingReceiver, connections.ReadRingReceiver,
]


@pytest.mark.parametrize("record", ROLE_RECORDS,
                         ids=lambda r: r.__name__)
def test_a_connection_record_is_slotted_and_small(record):
    slots = [name for klass in record.__mro__
             for name in getattr(klass, "__slots__", ())]
    assert record.__dictoffset__ == 0  # no per-instance __dict__
    assert len(slots) <= 8, f"{record.__name__}: {slots}"


@pytest.mark.parametrize("design, records", [
    ("MESQ/SR", {connections.UDCreditSender,
                 connections.UDCreditReceiver}),
    ("MEMQ/SR", {connections.RCCreditSender,
                 connections.RCCreditReceiver}),
    ("MEMQ/RD", {connections.RingSender, connections.ReadRingReceiver}),
    ("MEMQ/WR", {connections.WriteRingSender, connections.RingReceiver}),
])
def test_each_design_keeps_its_own_role_records(design, records):
    cluster, stage = set_up(design, 4)
    eps = [ep for by_node in (stage.send_endpoints, stage.recv_endpoints)
           for node_eps in by_node.values() for ep in node_eps]
    assert {type(c) for ep in eps for c in ep.conns.values()} == records
    # No signal exists before a thread waited for credit or a buffer.
    assert all(getattr(c, "notify", None) is None
               for ep in eps for c in ep.conns.values())
    cluster.dispose()


def test_one_address_handle_per_ud_qp_per_cluster():
    cluster, stage = set_up("MESQ/SR", 6, threads=2)
    handles = [c.ah for eps in (stage.send_endpoints, stage.recv_endpoints)
               for node_eps in eps.values() for ep in node_eps
               for c in ep.conns.values()]
    by_qp = {}
    for ah in handles:
        by_qp.setdefault(tuple(ah), set()).add(id(ah))
    assert all(len(ids) == 1 for ids in by_qp.values())
    # One per UD QP that some peer addresses: every endpoint's.
    qps = {(ctx.node_id, qp.qpn) for ctx in cluster.fabric.verbs_contexts
           .values() for qp in ctx._qps.values()}
    assert set(by_qp) == qps
    assert set(cluster.fabric.address_handles) == qps
    stage.dispose()
    assert cluster.fabric.address_handles == {}


def test_create_ah_charges_every_call():
    """Sharing the handle leaves the control path as it was: every
    ``create_ah`` costs ``ah_create_ns``."""
    from repro.verbs.cm import create_ah

    cluster = make_cluster(2)
    ctx = cluster.fabric.verbs_contexts[0]

    def two():
        first = yield from create_ah(ctx, 1, 7)
        second = yield from create_ah(ctx, 1, 7)
        return first, second

    first, second = cluster.run_process(two())
    assert first is second
    assert cluster.sim.now == 2 * cluster.config.network.ah_create_ns


def test_grant_credit_without_a_waiter_builds_no_signal():
    conn = connections.UDCreditSender(3)
    grant_credit(conn, 4)
    assert (conn.credit, conn.notify) == (4, None)


def test_a_repeated_depletion_emits_no_extra_sentinels():
    cluster, stage = set_up("MESQ/SR", 3, threads=2)
    ep = stage.recv_endpoints[0][0]
    first, *rest = ep.conns.values()
    ep._source_depleted(first)
    ep._source_depleted(first)
    assert (ep._live_sources, len(ep._inbox)) == (len(rest), 0)
    for conn in rest:
        ep._source_depleted(conn)
        ep._source_depleted(conn)
    assert ep._live_sources == 0
    assert len(ep._inbox) == ep.threads
    cluster.dispose()


def test_reset_leaves_no_mr_entry_behind():
    cluster = make_cluster(1)
    pool = BufferPool(cluster.fabric.verbs_contexts[0], 4, 64)
    buf = pool.buffer(2)
    buf.fill("payload", 8)
    assert pool.mr.get_object(buf.addr) == "payload"
    buf.reset()
    assert pool.mr.get_object(buf.addr) is None
    assert pool.mr._objects == {}


def test_a_pool_caches_buffers_only_up_to_its_highest_used_slot():
    cluster = make_cluster(1)
    pool = BufferPool(cluster.fabric.verbs_contexts[0], 1000, 64)
    assert pool._slots == []
    assert pool.at(pool.mr.addr + 5 * 64) is pool.buffer(5)
    assert len(pool._slots) == 6
    assert len(pool.buffers) == 1000


def test_a_queue_pair_has_no_instance_dict():
    assert QueuePair.__dictoffset__ == 0
    cluster, stage = set_up("MEMQ/SR", 2)
    qp = stage.send_endpoints[0][0].conns[1].qp
    assert not hasattr(qp, "__dict__")
    assert qp.track == f"qp{qp.qpn}"
    cluster.dispose()


def test_link_bytes_equal_a_tuple_keyed_reference(monkeypatch):
    """On a leaf-spine multicast broadcast (the trunk's fan-out adds the
    legs' bytes) and a unicast repartition, the rows must snapshot to
    what a ``(src, dst)``-keyed dict of every routed train gives."""
    reference = {}

    def count(src, dst, nbytes):
        reference[(src, dst)] = reference.get((src, dst), 0) + nbytes

    cluster = make_cluster(8, threads=2, topology=LEAF_SPINE(2, 4))
    fabric = cluster.fabric
    route, clone = fabric.route, routing.clone_for_member

    def counted_route(packet, *args, **kwargs):
        count(packet.src_node, packet.dst_node, packet.wire_bytes)
        return route(packet, *args, **kwargs)

    def counted_clone(packet, node_id, qpn):
        count(packet.src_node, node_id, packet.wire_bytes)
        return clone(packet, node_id, qpn)

    monkeypatch.setattr(fabric, "route", counted_route)
    monkeypatch.setattr(routing, "clone_for_member", counted_clone)
    run_broadcast(cluster, "MESQ/SR+MC", bytes_per_node=256 << 10)
    run_repartition(cluster, "MESQ/SR", bytes_per_node=256 << 10)
    snapshot = cluster.metrics_snapshot()["fabric"]["fabric.link_bytes"]
    assert snapshot == {f"{s}->{d}": v
                        for (s, d), v in sorted(reference.items())}
    assert any(s // 4 != d // 4 for s, d in reference)  # trunks crossed


def installed_board(keys, cap, min_one):
    """A ring board of ``cap`` slots per key on a one-node context; the
    ``(key, value)`` pairs it routes land in the returned list."""
    sim = Simulator()
    fabric = Fabric(sim, ClusterConfig(network=EDR, num_nodes=1))
    ep = SimpleNamespace(ctx=VerbsContext(sim, fabric, 0), aux_mrs=[])
    routed = []
    board = sim.run_process(RingBoard.install(
        ep, keys, cap, lambda key, value: routed.append((key, value)),
        min_one=min_one))
    return board, routed


@pytest.mark.parametrize("min_one", [False, True])
@pytest.mark.parametrize("keys", [["a"], ["a", "b", "c"]])
def test_a_ring_write_reaches_its_rings_key(keys, min_one):
    """Writes at each ring's first and last slot go to that ring's key."""
    cap = 5
    board, routed = installed_board(keys, cap, min_one)
    for value, key in enumerate(keys, 1):
        base = board.base_by_key[key]
        board.mr.write_u64(base, value)
        board.mr.write_u64(base + 8 * (cap - 1), 10 * value)
    assert routed == [(key, v) for value, key in enumerate(keys, 1)
                      for v in (value, 10 * value)]


@pytest.mark.parametrize("keys, min_one", [
    (["a", "b"], False), (["a", "b"], True), ([], True)])
def test_a_ring_board_ignores_what_is_in_no_ring(keys, min_one):
    """A zero value, and a write in the guard gap before or after the
    region or past the last ring, route to nothing (with ``min_one`` and
    no key, the region's one ring belongs to nobody)."""
    cap = 4
    board, routed = installed_board(keys, cap, min_one)
    mr = board.mr
    for key in keys:
        mr.write_u64(board.base_by_key[key], 0)
    past_last_ring = mr.addr + 8 * cap * len(keys)
    if past_last_ring < mr.addr + mr.length:  # min_one's keyless ring
        mr.write_u64(past_last_ring, 7)
    board._route(mr.addr - 8, 7)
    board._route(mr.addr + mr.length, 7)
    board._route(past_last_ring + 8 * cap, 7)
    assert routed == []
