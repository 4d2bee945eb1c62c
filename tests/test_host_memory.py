"""Host memory follows what is in flight, and every tuple is accounted.

SHUFFLE hands the transport views of the staged tuples and RECEIVE makes
the one host copy into its output batch, so the host's traced peak stays
well below the volume shuffled.  The conservation test checks that the
tuple counters of both operators agree with what the sinks received, for
every design.
"""

import gc
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import repro
from repro import Cluster, ClusterConfig, EDR, EndpointConfig
from repro.bench.workloads import run_repartition
from repro.core import ReceiveOperator, ShuffleOperator, TransmissionGroups
from repro.core.designs import DESIGNS
from repro.core.shuffle import hash_partitioner
from repro.core.synthetic import SyntheticShuffle, make_template_batch
from repro.engine import run_fragments
from repro.fabric.network import Fabric
from repro.fabric.packet import make_train
from repro.memory import Buffer, BufferPool
from repro.sim import Simulator
from repro.tpch.datagen import generate
from repro.verbs import AddressHandle, Opcode, QPType, SendWR, VerbsContext

MIB = 1 << 20


@pytest.mark.parametrize("design", ["SEMQ/SR", "MEMQ/SR", "MEMQ/RD"])
def test_traced_peak_is_below_half_the_shuffled_volume(design):
    nodes, per_node = 8, 4 * MIB
    cluster = Cluster(ClusterConfig(network=EDR, num_nodes=nodes))
    tracemalloc.start()
    try:
        result = run_repartition(cluster, design, bytes_per_node=per_node,
                                 config=EndpointConfig(message_size=64 << 10))
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    shuffled = nodes * per_node
    assert result.total_received_bytes >= shuffled
    assert peak < 0.5 * shuffled, (
        f"{design}: traced peak {peak / MIB:.1f} MiB for "
        f"{shuffled / MIB:.0f} MiB shuffled")


def test_a_repartition_builds_buffers_only_for_the_slots_it_takes(
        monkeypatch):
    """Every pool is registered whole, but a slot gets its Buffer only
    when a message takes it.  A 16-node, 1-thread MESQ/SR repartition
    registers 8,192 slots; it builds a Buffer for no slot it did not
    take, leaves a quarter untouched, and posts the 10,486 Receives it
    posted when every slot was built and posted one by one."""
    pools, built, taken = [], [], set()
    pool_init, buffer_init, take = (BufferPool.__init__, Buffer.__init__,
                                    BufferPool.buffer)

    def registering(pool, *args, **kwargs):
        pool_init(pool, *args, **kwargs)
        pools.append(pool)

    def building(buf, mr, addr, capacity):
        buffer_init(buf, mr, addr, capacity)
        built.append((mr.node_id, addr))

    def taking(pool, index):
        taken.add((pool.mr.node_id, pool.addrs[index]))
        return take(pool, index)

    monkeypatch.setattr(BufferPool, "__init__", registering)
    monkeypatch.setattr(Buffer, "__init__", building)
    monkeypatch.setattr(BufferPool, "buffer", taking)
    cluster = Cluster(ClusterConfig(network=EDR, num_nodes=16,
                                    threads_per_node=1))
    run_repartition(cluster, "MESQ/SR", bytes_per_node=1 * MIB)
    slots = sum(len(pool) for pool in pools)
    assert slots == 8192
    assert set(built) <= taken and len(built) == len(set(built))
    assert len(built) < 0.8 * slots
    posted = sum(node["verbs.recvs_posted"]
                 for node in cluster.metrics_snapshot()["nodes"].values())
    assert posted == 10486


@pytest.mark.parametrize("design", sorted(DESIGNS))
def test_tuples_out_equal_tuples_in_equal_sink_rows(design):
    nodes = 4
    cluster = Cluster(ClusterConfig(network=EDR, num_nodes=nodes,
                                    threads_per_node=2))
    stage = cluster.shuffle_stage(design,
                                  TransmissionGroups.repartition(nodes))
    cluster.run_process(stage.setup(), name="setup")
    shuffle = SyntheticShuffle(cluster)
    fragments = shuffle.fragments(stage, 1 * MIB)
    cluster.run_process(run_fragments(cluster.sim, fragments), name="query")
    roots = [f.root for f in fragments]
    out = sum(r.tuples_out for r in roots if isinstance(r, ShuffleOperator))
    got = sum(r.tuples_in for r in roots if isinstance(r, ReceiveOperator))
    rows = sum(sink.rows for sink in shuffle.sinks)
    assert out > 0
    assert out == got == rows


class TestReadOnlyInputs:
    def test_template_batch_rejects_writes(self):
        batch = make_template_batch(rows=8)
        with pytest.raises(ValueError):
            batch["a"][0] = 1

    def test_tpch_tables_and_partitions_reject_writes(self):
        data = generate(0.001, num_nodes=2)
        arrays = [data.customer, data.orders, data.lineitem, data.nation]
        arrays += [a for parts in data.partitions.values() for a in parts]
        assert not any(a.flags.writeable for a in arrays)
        with pytest.raises(ValueError):
            data.partition("orders", 0)["o_custkey"][:1] = np.int64(0)


class TestWhatARunImports:
    def test_a_synthetic_repartition_loads_no_rng_or_masked_arrays(self):
        # A fresh interpreter: numpy.random (the template's keys) and
        # numpy.ma (pulled in by numpy.lib.recfunctions) cost megabytes
        # of RSS that nothing in a synthetic run needs.
        code = ("import sys\n"
                "from repro import Cluster, ClusterConfig, EDR\n"
                "from repro.bench.workloads import run_repartition\n"
                "cluster = Cluster(ClusterConfig(network=EDR, "
                "num_nodes=2))\n"
                "run_repartition(cluster, 'MESQ/SR', bytes_per_node=1 << 20)\n"
                "print(sorted(m for m in sys.modules if m in ("
                "'numpy.random', 'numpy.ma', 'numpy.lib.recfunctions')))\n")
        src = os.path.dirname(os.path.dirname(repro.__file__))
        out = subprocess.run(
            [sys.executable, "-c", code], check=True, capture_output=True,
            text=True, env={**os.environ, "PYTHONPATH": src}).stdout
        assert out.strip() == "[]"


class TestTemplateKeys:
    def test_keys_are_distinct_and_62_bit(self):
        batch = make_template_batch()
        for name in ("a", "b"):
            keys = batch[name]
            assert len(np.unique(keys)) == len(batch)
            assert keys.min() >= 0 and keys.max() < 1 << 62

    @pytest.mark.parametrize("groups", [2, 3, 8, 16, 64])
    def test_hash_partitioning_the_key_spreads_evenly(self, groups):
        batch = make_template_batch()
        counts = np.bincount(
            hash_partitioner(lambda b: b["a"], groups)(batch),
            minlength=groups)
        share = len(batch) / groups
        assert np.abs(counts - share).max() <= 0.02 * share, counts


def test_a_queued_train_holds_a_handful_of_blocks():
    """Trains queued behind one busy egress pipe: each holds its packet,
    its flight object and its queue entry, not a set of closures."""
    sim = Simulator()
    config = ClusterConfig(network=EDR, num_nodes=2)
    fabric = Fabric(sim, config)
    arrived = []

    def send(n, transport):
        for _ in range(n):
            packet = make_train(config.network, src_node=0, dst_node=1,
                                src_qpn=1, dst_qpn=2, kind="SEND",
                                length=4096, transport=transport)
            datagram = transport == "UD"
            fabric.route(packet, arrived.append, unordered=datagram,
                         lossy=datagram)

    trains = 1000
    for transport in ("RC", "UD"):
        send(64, transport)  # warm the bucket dict and the heap
        gc.collect()
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            before = sys.getallocatedblocks()
            send(trains, transport)
            per_train = (sys.getallocatedblocks() - before) / trains
        finally:
            if was_enabled:
                gc.enable()
        assert per_train <= 12, (transport, per_train)
    sim.run()
    assert len(arrived) == 2 * (64 + trains)


@pytest.mark.parametrize("kind", ["UD Send", "RC Send", "RC Read",
                                  "RC Write"])
def test_a_queued_work_request_holds_a_handful_of_blocks(kind):
    """Work requests queued behind one busy NIC engine: each holds the
    caller's SendWR, its in-flight record and its queue entry, not a set
    of closures and their cells (15 blocks for a UD Send and 22 for an
    RC Send when it did)."""
    sim = Simulator()
    fabric = Fabric(sim, ClusterConfig(network=EDR, num_nodes=2))
    ctxs = [VerbsContext(sim, fabric, i) for i in range(2)]
    wrs, warm = 1000, 64
    cqs = [ctx.create_cq(depth=2 * wrs) for ctx in ctxs]
    qp_type = QPType.UD if kind == "UD Send" else QPType.RC
    qps = [ctx.create_qp(qp_type, cq, cq, max_send_wr=2 * wrs,
                         max_recv_wr=2 * wrs)
           for ctx, cq in zip(ctxs, cqs)]
    for qp, peer in zip(qps, reversed(qps)):
        if qp_type is QPType.UD:
            qp.activate()
        else:
            qp.connect(AddressHandle(peer.ctx.node_id, peer.qpn))
    local = BufferPool(ctxs[0], 1, 64).buffer(0)
    remote = ctxs[1].reg_mr(64)
    dest = AddressHandle(1, qps[1].qpn)
    qps[1].post_recv_run(BufferPool(ctxs[1], wrs + warm, 64), 64)

    def post(n):
        for _ in range(n):
            if kind == "UD Send":
                wr = SendWR(0, Opcode.SEND, local, 64, dest=dest)
            elif kind == "RC Send":
                wr = SendWR(0, Opcode.SEND, local, 64)
            elif kind == "RC Read":
                wr = SendWR(0, Opcode.READ, local, 64, remote.addr)
            else:
                wr = SendWR(0, Opcode.WRITE, None, 8, remote.addr, value=7)
            qps[0].post_send(wr)

    post(warm)  # warm the bucket dict and the heap
    sim.run()
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        before = sys.getallocatedblocks()
        post(wrs)
        per_wr = (sys.getallocatedblocks() - before) / wrs
    finally:
        if was_enabled:
            gc.enable()
    assert per_wr <= 8, (kind, per_wr)
    sim.run()
    assert cqs[0].pushed == warm + wrs
