"""Host memory follows what is in flight, and every tuple is accounted.

SHUFFLE hands the transport views of the staged tuples and RECEIVE makes
the one host copy into its output batch, so the host's traced peak stays
well below the volume shuffled.  The conservation test checks that the
tuple counters of both operators agree with what the sinks received, for
every design.
"""

import tracemalloc

import numpy as np
import pytest

from repro import Cluster, ClusterConfig, EDR, EndpointConfig
from repro.bench.workloads import run_repartition
from repro.core import ReceiveOperator, ShuffleOperator, TransmissionGroups
from repro.core.designs import DESIGNS
from repro.core.synthetic import SyntheticShuffle, make_template_batch
from repro.engine import run_fragments
from repro.memory import Buffer, BufferPool
from repro.tpch.datagen import generate

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
