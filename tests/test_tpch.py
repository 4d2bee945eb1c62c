"""TPC-H: generator invariants and distributed-vs-reference correctness."""

import hashlib

import numpy as np
import pytest

from repro import Cluster, ClusterConfig, EDR
from repro.tpch import generate, reference_answer, run_query
from repro.tpch.schema import date_to_days

#: sha256 of every partition's bytes, generate(0.005, 3, seed=4), pinned
#: from the generator that copied each partition out by a boolean mask.
PARTITION_SHA256 = {
    False: {
        "customer": (
            "b0c3c0408524a59762c6a7971f2af2a129652871d3b4de49dd743e7756a26333",
            "e7f46c65472268d11053ea6b6b1c15e269210de11f7a25eeac836b082e4003fb",
            "e4b018a1eac2f13b0ec63fbcf8cd853023e32548ccd3f3fb1d25921cc001bc32",
        ),
        "orders": (
            "7084fda2f2ba000468d5553ff4bf503897117aeaa3f426fc649ec021cc09bfe8",
            "46e9eab57962b6946bea7273a8555fe599d197caf15d220b337c1a1fa57e9c72",
            "6364b603d3dc2802995ccd08cdefc6c88b5d6faf7444fb0156c8a6f304510a47",
        ),
        "lineitem": (
            "d97767f674e0eb56e81947e50e08dc04b91768ab3d0ed1de77fdc0cd247dac8a",
            "60f4fe0c7d0a8e3befda42a0d1817181ce236f1eedaf6973b9880151048b2ccd",
            "eb3b2af26cc8aef467690f12bb9eaa1d7f41ecb499081a0959a3cc16ec862c2c",
        ),
    },
    True: {
        "customer": (
            "cf059831b58eced971794b6d6ee1fab71c0ae8a6c85b794a1c0340ebd73e141e",
            "2419813ba3432487c9e81ef564d5423e9fceafe250ee286cde0fd15e2418129e",
            "964b12cb999fb9ee52116a57738c005db235c8f0dc7be69604086788f3b47ac1",
        ),
        "orders": (
            "bbe95683a5faef4a113d12dca61a34a2710a6b72e10a964c21da69ad04c259cf",
            "cd3b3b439c38bc08b31895c340975bd53b0339285e937efae647dab78f32ca1a",
            "3384ad9f4db2570d375b17415c361b78eb00016714912bc2645ef6a71b39b0a4",
        ),
        "lineitem": (
            "930a6b84c73604feed07e1a8986a8cff932cd2c3e2d2ed728708ddc256d78c5f",
            "78d8ed68ded9ce4a5a5f173c51e4bc619024ade8008175e5d1037ee3c27fcffa",
            "dadcda3e44994daf9358845837c2ea1bbad460e82d4ab68bd5c6eb82d8e4cc89",
        ),
    },
}
NATION_SHA256 = "b729ce724d9a48d3884dbfcbee1d3793d922b29fa9d639e7290af4978263772b"


@pytest.fixture(scope="module")
def data():
    return generate(0.01, 2, seed=3)


def answers_close(a, b, tol=1e-6):
    assert set(a) == set(b), f"group keys differ: {set(a) ^ set(b)}"
    for key in a:
        assert abs(a[key] - b[key]) <= tol * max(1.0, abs(a[key])), (
            f"group {key}: {a[key]} != {b[key]}")


class TestDatagen:
    def test_cardinalities_follow_scale_factor(self, data):
        assert len(data.customer) == 1500
        assert len(data.orders) == 15000
        # 1..7 lineitems per order, ~4 on average.
        assert 1 * len(data.orders) <= len(data.lineitem) <= 7 * len(data.orders)

    def test_deterministic(self):
        a = generate(0.005, 2, seed=9)
        b = generate(0.005, 2, seed=9)
        np.testing.assert_array_equal(a.orders, b.orders)
        np.testing.assert_array_equal(a.lineitem, b.lineitem)

    def test_partitions_cover_tables(self, data):
        for table in ("customer", "orders", "lineitem"):
            parts = data.partitions[table]
            total = sum(len(p) for p in parts)
            assert total == len(getattr(data, table))

    def test_nation_replicated(self, data):
        parts = data.partitions["nation"]
        assert len(parts) == 2
        np.testing.assert_array_equal(parts[0], parts[1])

    def test_lineitem_keys_reference_orders(self, data):
        assert np.isin(data.lineitem["l_orderkey"],
                       data.orders["o_orderkey"]).all()

    def test_receiptdate_after_shipdate(self, data):
        assert (data.lineitem["l_receiptdate"] >
                data.lineitem["l_shipdate"]).all()

    def test_copartition_places_by_key(self):
        d = generate(0.005, 3, seed=4, copartition=True)
        for i, part in enumerate(d.partitions["orders"]):
            assert (part["o_orderkey"] % 3 == i).all()
        for i, part in enumerate(d.partitions["lineitem"]):
            assert (part["l_orderkey"] % 3 == i).all()

    def test_invalid_scale_factor(self):
        with pytest.raises(ValueError):
            generate(0, 2)

    @pytest.mark.parametrize("copartition", [False, True])
    def test_invalid_node_count(self, copartition):
        with pytest.raises(ValueError, match="num_nodes"):
            generate(0.005, 0, copartition=copartition)

    @pytest.mark.parametrize("copartition", [False, True])
    def test_partitions_are_pinned_read_only_views(self, copartition):
        """One copy per table: every partition is a read-only view of
        its table, byte for byte the partition a per-node copy held."""
        data = generate(0.005, 3, seed=4, copartition=copartition)
        assert data.copartition is copartition
        pinned = dict(PARTITION_SHA256[copartition],
                      nation=(NATION_SHA256,) * 3)
        for table, digests in pinned.items():
            whole = getattr(data, table)
            parts = data.partitions[table]
            assert [hashlib.sha256(p.tobytes()).hexdigest()
                    for p in parts] == list(digests), table
            for part in parts:
                assert np.shares_memory(part, whole), table
                assert not part.flags.writeable, table
                with pytest.raises(ValueError):
                    part[:1] = part[:1]

    def test_whole_tables_are_grouped_by_node(self, data):
        for table in ("customer", "orders", "lineitem"):
            np.testing.assert_array_equal(
                np.concatenate(data.partitions[table]),
                getattr(data, table))

    def test_date_mapping_monotone(self):
        assert date_to_days(1995, 3, 15) > date_to_days(1993, 7, 1)
        assert date_to_days(1993, 10, 1) > date_to_days(1993, 7, 1)


class TestReference:
    def test_q4_counts_positive(self, data):
        ref = reference_answer("Q4", data)
        assert ref and all(v > 0 for v in ref.values())
        assert set(ref) <= {0, 1, 2, 3, 4}

    def test_q3_nonempty(self, data):
        assert reference_answer("Q3", data)

    def test_q10_nonempty(self, data):
        assert reference_answer("Q10", data)

    def test_unknown_query_rejected(self, data):
        with pytest.raises(ValueError):
            reference_answer("Q99", data)


@pytest.mark.parametrize("query", ["Q3", "Q4", "Q10"])
class TestDistributedCorrectness:
    def test_matches_reference(self, query, data):
        cluster = Cluster(ClusterConfig(network=EDR, num_nodes=2,
                                        threads_per_node=2))
        result = run_query(cluster, query, data, design="MESQ/SR")
        answers_close(result.answer, reference_answer(query, data))

    def test_matches_reference_on_rc_read(self, query, data):
        cluster = Cluster(ClusterConfig(network=EDR, num_nodes=2,
                                        threads_per_node=2))
        result = run_query(cluster, query, data, design="MEMQ/RD")
        answers_close(result.answer, reference_answer(query, data))

    def test_matches_reference_on_mpi(self, query, data):
        cluster = Cluster(ClusterConfig(network=EDR, num_nodes=2,
                                        threads_per_node=2))
        result = run_query(cluster, query, data, design="MPI")
        answers_close(result.answer, reference_answer(query, data))


class TestLocalDataPlan:
    def test_q4_local_data_matches(self):
        data = generate(0.01, 3, seed=5, copartition=True)
        cluster = Cluster(ClusterConfig(network=EDR, num_nodes=3,
                                        threads_per_node=2))
        result = run_query(cluster, "Q4", data, design="MESQ/SR",
                           local_data=True)
        answers_close(result.answer, reference_answer("Q4", data))

    def test_local_data_is_faster_than_shuffled(self):
        data = generate(0.02, 2, seed=5, copartition=True)
        c1 = Cluster(ClusterConfig(network=EDR, num_nodes=2,
                                   threads_per_node=2))
        local = run_query(c1, "Q4", data, design="MESQ/SR", local_data=True)
        c2 = Cluster(ClusterConfig(network=EDR, num_nodes=2,
                                   threads_per_node=2))
        shuffled = run_query(c2, "Q4", data, design="MESQ/SR")
        assert local.response_time_ns <= shuffled.response_time_ns

    def test_local_data_only_for_q4(self):
        data = generate(0.005, 2, copartition=True)
        cluster = Cluster(ClusterConfig(network=EDR, num_nodes=2,
                                        threads_per_node=2))
        with pytest.raises(ValueError, match="Q4"):
            run_query(cluster, "Q3", data, local_data=True)

    def test_unknown_query_rejected(self, ):
        data = generate(0.005, 2)
        cluster = Cluster(ClusterConfig(network=EDR, num_nodes=2,
                                        threads_per_node=2))
        with pytest.raises(ValueError, match="unknown query"):
            run_query(cluster, "Q7", data)

    def test_local_data_needs_copartitioned_data(self):
        data = generate(0.002, 4, seed=1)
        cluster = Cluster(ClusterConfig(network=EDR, num_nodes=4,
                                        threads_per_node=2))
        with pytest.raises(ValueError, match="copartition=True"):
            run_query(cluster, "Q4", data, local_data=True)

    @pytest.mark.parametrize("data_nodes, cluster_nodes", [(4, 2), (2, 4)])
    def test_node_count_must_match_the_data(self, data_nodes,
                                            cluster_nodes):
        data = generate(0.002, data_nodes, seed=1)
        cluster = Cluster(ClusterConfig(network=EDR,
                                        num_nodes=cluster_nodes,
                                        threads_per_node=2))
        with pytest.raises(ValueError, match=f"{data_nodes} nodes.*"
                                             f"{cluster_nodes}"):
            run_query(cluster, "Q4", data)


class TestScaling:
    def test_answer_independent_of_cluster_size(self):
        base = generate(0.008, 2, seed=21)
        ref = reference_answer("Q4", base)
        for nodes in (2, 4):
            data = generate(0.008, nodes, seed=21)
            cluster = Cluster(ClusterConfig(network=EDR, num_nodes=nodes,
                                            threads_per_node=2))
            result = run_query(cluster, "Q4", data, design="SEMQ/SR")
            answers_close(result.answer, ref)
