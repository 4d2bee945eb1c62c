"""Tests for the stage wiring and the connection-manager layer."""

import pytest

from repro import Cluster, ClusterConfig, EDR, EndpointConfig, TransmissionGroups
from repro.core.policy import StagePlan
from repro.core.stage import ShuffleStage
from repro.verbs.cm import EndpointRegistry
from repro.verbs import VerbsError


def make_cluster(nodes=3, threads=2):
    return Cluster(ClusterConfig(network=EDR, num_nodes=nodes,
                                 threads_per_node=threads))


class TestEndpointRegistry:
    def test_publish_lookup_roundtrip(self):
        reg = EndpointRegistry()
        reg.publish_endpoint(1, {"qpn": 42})
        assert reg.lookup_endpoint(1) == {"qpn": 42}
        reg.unpublish_endpoint(1)
        with pytest.raises(VerbsError, match="not been published"):
            reg.lookup_endpoint(1)

    def test_double_publish_rejected(self):
        reg = EndpointRegistry()
        reg.publish_endpoint(7, {"qpn": 1})
        with pytest.raises(VerbsError, match="already published"):
            reg.publish_endpoint(7, {"qpn": 2})

    def test_missing_lookup_raises(self):
        reg = EndpointRegistry()
        with pytest.raises(VerbsError, match="not been published"):
            reg.lookup_endpoint(99)


class TestStageWiring:
    def test_send_endpoints_pair_with_same_index_receivers(self):
        cluster = make_cluster()
        groups = TransmissionGroups.repartition(3)
        stage = ShuffleStage(cluster.fabric, StagePlan("MEMQ/SR"), groups,
                             registry=cluster.registry)
        # ME with t=2: send ep j on node s peers with recv ep j on dest d.
        for s in range(3):
            for j, ep in enumerate(stage.send_endpoints[s]):
                for d in range(3):
                    expected = stage.recv_endpoints[d][j].endpoint_id
                    assert ep.peers[d] == expected

    def test_receive_sources_are_complete(self):
        cluster = make_cluster()
        groups = TransmissionGroups.repartition(3)
        stage = ShuffleStage(cluster.fabric, StagePlan("SEMQ/SR"), groups,
                             registry=cluster.registry)
        for d in range(3):
            recv = stage.recv_endpoints[d][0]
            source_nodes = sorted(node for node, _ep in recv.sources)
            assert source_nodes == [0, 1, 2]

    def test_gather_stage_receivers_only_on_targets(self):
        cluster = make_cluster()
        stage = ShuffleStage(cluster.fabric, StagePlan("SEMQ/SR"),
                             TransmissionGroups([(0,)]),
                             registry=cluster.registry)
        assert list(stage.recv_endpoints) == [0]
        assert sorted(stage.send_endpoints) == [0, 1, 2]

    def test_per_node_transmission_groups(self):
        cluster = make_cluster()

        def groups_for(node):
            return TransmissionGroups.broadcast(3, exclude=node)

        stage = ShuffleStage(cluster.fabric, StagePlan("SEMQ/SR"), groups_for,
                             registry=cluster.registry)
        assert stage.groups_for[0].all_destinations == (1, 2)
        assert stage.groups_for[1].all_destinations == (0, 2)
        # everyone still receives (union of all destinations).
        assert sorted(stage.recv_endpoints) == [0, 1, 2]

    def test_two_stages_share_registry_without_collision(self):
        cluster = make_cluster()
        groups = TransmissionGroups.repartition(3)
        s1 = ShuffleStage(cluster.fabric, StagePlan("SEMQ/SR"), groups,
                          registry=cluster.registry)
        s2 = ShuffleStage(cluster.fabric, StagePlan("MESQ/SR"), groups,
                          registry=cluster.registry)
        cluster.run_process(s1.setup())
        cluster.run_process(s2.setup())
        ids1 = {ep.endpoint_id for eps in s1.send_endpoints.values()
                for ep in eps}
        ids2 = {ep.endpoint_id for eps in s2.send_endpoints.values()
                for ep in eps}
        assert not ids1 & ids2

    def test_setup_records_per_node_time(self):
        cluster = make_cluster()
        stage = ShuffleStage(cluster.fabric, StagePlan("MEMQ/SR"),
                             TransmissionGroups.repartition(3),
                             registry=cluster.registry)
        cluster.run_process(stage.setup())
        assert sorted(stage.setup_ns) == [0, 1, 2]
        assert all(ns > 0 for ns in stage.setup_ns.values())
        assert stage.max_setup_ns == max(stage.setup_ns.values())

    def test_config_resolution_for_ud(self):
        cluster = make_cluster()
        cfg = EndpointConfig(message_size=64 * 1024,
                             buffers_per_connection=2, ud_window_factor=4)
        stage = ShuffleStage(cluster.fabric, StagePlan("MESQ/SR"),
                             TransmissionGroups.repartition(3),
                             config=cfg, registry=cluster.registry)
        assert stage.config.message_size == EDR.mtu
        assert stage.config.buffers_per_connection == 8

    def test_unknown_design_rejected(self):
        cluster = make_cluster()
        with pytest.raises(KeyError):
            cluster.shuffle_stage("NOPE/XX",
                                  TransmissionGroups.repartition(3))

    def test_only_a_plan_crosses_the_boundary(self):
        """Names, Designs and policies are coerced by the entry points;
        the stage itself takes nothing but a StagePlan."""
        cluster = make_cluster()
        with pytest.raises(TypeError, match="Cluster.shuffle_stage"):
            ShuffleStage(cluster.fabric, "MESQ/SR",
                         TransmissionGroups.repartition(3))

    def test_stats_cover_every_endpoint(self):
        cluster = make_cluster()
        stage = cluster.shuffle_stage(
            "MEMQ/SR", TransmissionGroups.repartition(3))
        cluster.run_process(stage.setup())
        stats = stage.stats()
        assert len(stats.qpns) == sum(stage.qps_created(n) for n in range(3))
        assert stats.credit_stalls == stats.credit_wait_ns == 0
