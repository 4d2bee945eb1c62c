"""End-to-end shuffle correctness across all designs and baselines.

Every tuple shuffled must arrive exactly once (RC) — the multiset of
received tuples equals the multiset sent — for repartition, multicast and
broadcast patterns, in both endpoint configurations.
"""

import numpy as np
import pytest

from repro import (
    Cluster,
    ClusterConfig,
    EDR,
    EndpointConfig,
    TransmissionGroups,
)
from repro.core import ReceiveOperator, ShuffleOperator
from repro.core.shuffle import hash_partitioner, striped_partitioner
from repro.engine import CollectSink, QueryFragment, run_fragments
from repro.engine.scan import ScanOperator

ALL_DESIGNS = ["MEMQ/RD", "SEMQ/RD", "MEMQ/SR", "SEMQ/SR", "MESQ/SR", "SESQ/SR"]
BASELINES = ["MPI", "IPoIB"]

DTYPE = np.dtype([("key", np.int64), ("val", np.int64)])


def make_table(rows, node, seed=11):
    rng = np.random.default_rng(seed + node)
    table = np.empty(rows, dtype=DTYPE)
    table["key"] = rng.integers(0, 1 << 40, rows)
    table["val"] = np.arange(rows, dtype=np.int64) + node * rows
    return table


def run_shuffle_query(design, nodes=2, threads=2, rows_per_node=4000,
                      groups=None, message_size=8192, partition=None,
                      config=None, net_overrides=None):
    """Run scan -> shuffle -> receive on every node; return results."""
    cc = ClusterConfig(network=EDR, num_nodes=nodes, threads_per_node=threads)
    if net_overrides:
        cc = cc.with_network(**net_overrides)
    cluster = Cluster(cc)
    if groups is None:
        groups = TransmissionGroups.repartition(nodes)
    cfg = config or EndpointConfig(message_size=message_size,
                                   buffers_per_connection=2)
    stage = cluster.shuffle_stage(design, groups, config=cfg)
    cluster.run_process(stage.setup(), name="setup")

    fragments, sinks, sent = [], [], []
    for n in range(nodes):
        node = cluster.nodes[n]
        table = make_table(rows_per_node, n)
        sent.append(table)
        scan = ScanOperator(node, table, threads, batch_rows=512)
        part = partition or hash_partitioner(
            lambda b: b["key"], groups.num_groups)
        shuffle = ShuffleOperator(node, scan, stage.send_endpoints[n],
                                  groups, part, threads)
        fragments.append(QueryFragment(node, shuffle, threads))
        if n in stage.recv_endpoints:
            recv = ReceiveOperator(node, stage.recv_endpoints[n], threads)
            sink = CollectSink()
            sinks.append(sink)
            fragments.append(QueryFragment(node, recv, threads, sink=sink))
    elapsed = cluster.run_process(
        run_fragments(cluster.sim, fragments), name="query")
    return sent, sinks, elapsed, stage, cluster


def received_multiset(sinks):
    parts = [s.result() for s in sinks if s.result() is not None]
    if not parts:
        return np.array([], dtype=np.int64)
    return np.sort(np.concatenate([p["val"] for p in parts]))


@pytest.mark.parametrize("design", ALL_DESIGNS + BASELINES)
class TestExactlyOnceDelivery:
    def test_repartition_delivers_every_tuple_once(self, design):
        sent, sinks, _el, _st, _cl = run_shuffle_query(design)
        expected = np.sort(np.concatenate([t["val"] for t in sent]))
        got = received_multiset(sinks)
        np.testing.assert_array_equal(got, expected)

    def test_broadcast_delivers_n_minus_1_copies(self, design):
        nodes = 3

        def groups_for(_node):  # same for everyone here: all nodes
            return TransmissionGroups.broadcast(nodes)

        groups = TransmissionGroups.broadcast(nodes)
        sent, sinks, _el, _st, _cl = run_shuffle_query(
            design, nodes=nodes, rows_per_node=1500, groups=groups)
        all_vals = np.concatenate([t["val"] for t in sent])
        expected = np.sort(np.tile(all_vals, nodes))  # every node gets all
        got = received_multiset(sinks)
        np.testing.assert_array_equal(got, expected)


class TestPatterns:
    def test_multicast_reaches_group_members_only(self):
        nodes = 4
        # One group {1,2}, one group {3}: node 0..3 all shuffle.
        groups = TransmissionGroups.multicast([(1, 2), (3,)])
        sent, sinks, _el, stage, _cl = run_shuffle_query(
            "MEMQ/SR", nodes=nodes, rows_per_node=2000, groups=groups)
        # Receivers exist only on nodes 1, 2, 3.
        assert sorted(stage.recv_endpoints) == [1, 2, 3]
        total_sent = sum(len(t) for t in sent)
        got = received_multiset(sinks)
        # Group 0 tuples arrive twice (nodes 1 and 2), group 1 once.
        assert len(got) > total_sent  # multicast duplicates group-0 rows

    def test_hash_partitioning_is_deterministic_by_key(self):
        sent, sinks, _el, _st, _cl = run_shuffle_query(
            "SEMQ/SR", nodes=2, rows_per_node=3000)
        # Each distinct key must land on exactly one node.
        per_node_keys = []
        for sink in sinks:
            result = sink.result()
            per_node_keys.append(set() if result is None
                                 else set(result["key"].tolist()))
        assert not (per_node_keys[0] & per_node_keys[1])

    def test_striped_partitioner_balances(self):
        groups = TransmissionGroups.repartition(4)
        sent, sinks, _el, _st, _cl = run_shuffle_query(
            "MESQ/SR", nodes=4, rows_per_node=4000, groups=groups,
            partition=striped_partitioner(4))
        counts = [len(s.result()) for s in sinks]
        assert max(counts) - min(counts) < 0.15 * max(counts)


def recv_buffers_per_source(stage):
    """Receive buffers per source over buffers per connection, for
    every RECEIVE endpoint of ``stage``: the threads each one serves."""
    return {ep.recv_pool_buffers
            // (len(ep.sources) * stage.config.buffers_per_connection)
            for eps in stage.recv_endpoints.values() for ep in eps}


class TestEndpointConfigurations:
    def test_single_endpoint_shares_one_endpoint(self):
        _s, _k, _e, stage, _cl = run_shuffle_query("SEMQ/SR", threads=4)
        assert len(stage.send_endpoints[0]) == 1
        assert recv_buffers_per_source(stage) == {4}

    def test_multi_endpoint_one_per_thread(self):
        _s, _k, _e, stage, _cl = run_shuffle_query("MEMQ/SR", threads=4)
        assert len(stage.send_endpoints[0]) == 4
        assert recv_buffers_per_source(stage) == {1}

    def test_intermediate_endpoint_count(self):
        cc = ClusterConfig(network=EDR, num_nodes=2, threads_per_node=4)
        cluster = Cluster(cc)
        groups = TransmissionGroups.repartition(2)
        stage = cluster.shuffle_stage("MEMQ/SR", groups, num_endpoints=2)
        assert len(stage.send_endpoints[0]) == 2
        assert recv_buffers_per_source(stage) == {2}

    def test_more_endpoints_than_threads_rejected(self):
        cluster = Cluster(ClusterConfig(network=EDR, num_nodes=2,
                                        threads_per_node=2))
        with pytest.raises(ValueError):
            cluster.shuffle_stage("MEMQ/SR",
                                  TransmissionGroups.repartition(2),
                                  num_endpoints=4)

    def test_ud_message_size_clamped_to_mtu(self):
        _s, _k, _e, stage, _cl = run_shuffle_query(
            "MESQ/SR", message_size=65536)
        assert stage.config.message_size == EDR.mtu

    def test_rc_message_size_unclamped(self):
        _s, _k, _e, stage, _cl = run_shuffle_query(
            "MEMQ/SR", message_size=65536)
        assert stage.config.message_size == 65536


class TestTable1Measured:
    """The Table 1 QP counts, measured on live stages."""

    @pytest.mark.parametrize("design,expected_qps", [
        # n=4, t=2: send-side QPs per node per Table 1, doubled for the
        # receive operator's own endpoints.
        ("MEMQ/SR", 4 * 2 * 2),
        ("SEMQ/SR", 4 * 2),
        ("MEMQ/RD", 4 * 2 * 2),
        ("MESQ/SR", 2 * 2),
        ("SESQ/SR", 1 * 2),
    ])
    def test_qp_count(self, design, expected_qps):
        _s, _k, _e, stage, _cl = run_shuffle_query(
            design, nodes=4, threads=2, rows_per_node=500)
        assert stage.qps_created(0) == expected_qps


class TestRegisteredMemory:
    def test_ud_uses_far_less_memory_than_rc(self):
        _s, _k, _e, ud, _c1 = run_shuffle_query(
            "MESQ/SR", nodes=4, threads=4, rows_per_node=500,
            message_size=65536)
        _s, _k, _e, rc, _c2 = run_shuffle_query(
            "MEMQ/SR", nodes=4, threads=4, rows_per_node=500,
            message_size=65536)
        assert ud.registered_bytes(0) < rc.registered_bytes(0) / 3

    def test_memory_scales_with_message_size(self):
        sizes = {}
        for msg in (16384, 65536):
            _s, _k, _e, stage, _cl = run_shuffle_query(
                "SEMQ/SR", nodes=2, threads=2, rows_per_node=500,
                message_size=msg)
            sizes[msg] = stage.registered_bytes(0)
        assert sizes[65536] > 3 * sizes[16384]


class TestSetupTiming:
    def test_connection_time_scales_with_qps(self):
        def setup_ns(design, nodes):
            cluster = Cluster(ClusterConfig(network=EDR, num_nodes=nodes,
                                            threads_per_node=2))
            stage = cluster.shuffle_stage(
                design, TransmissionGroups.repartition(nodes))
            cluster.run_process(stage.setup())
            return stage.max_setup_ns

        memq_4 = setup_ns("MEMQ/SR", 4)
        memq_8 = setup_ns("MEMQ/SR", 8)
        mesq_4 = setup_ns("MESQ/SR", 4)
        mesq_8 = setup_ns("MESQ/SR", 8)
        # MQ connection time grows with the cluster; SQ stays stable.
        assert memq_8 > 1.6 * memq_4
        assert mesq_8 < 1.3 * mesq_4
        assert mesq_8 < memq_8
