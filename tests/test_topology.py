"""Unit tests for the explicit switch/route layer (fabric.topology)."""

import json

import pytest

from repro.cluster import Cluster
from repro.bench.workloads import run_repartition
from repro.fabric import (
    EDR,
    LEAF_SPINE,
    SINGLE_SWITCH,
    ClusterConfig,
    Fabric,
    Packet,
    TopologySpec,
)
from repro.fabric.topology import Hop, Topology
from repro.sim import Simulator

MIB = 1 << 20


def make_topology(spec, nodes=8, network=EDR):
    return Topology(Simulator(), spec, network, nodes)


class TestTopologySpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            TopologySpec("fat-tree")

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            TopologySpec("leaf-spine", oversubscription=0)
        with pytest.raises(ValueError):
            TopologySpec("leaf-spine", nodes_per_leaf=0)

    def test_describe(self):
        assert "full bisection" in SINGLE_SWITCH.describe()
        assert "4:1" in LEAF_SPINE(oversubscription=4).describe()

    def test_cluster_config_defaults_to_single_switch(self):
        assert ClusterConfig(network=EDR, num_nodes=2).topology == \
            SINGLE_SWITCH

    def test_with_topology(self):
        config = ClusterConfig(network=EDR, num_nodes=4)
        derived = config.with_topology(LEAF_SPINE(oversubscription=2))
        assert derived.topology == LEAF_SPINE(oversubscription=2)
        assert config.topology == SINGLE_SWITCH


class TestHop:
    def test_rejects_float_latency(self):
        # The Hop constructor is the single int-ns rounding boundary.
        with pytest.raises(TypeError):
            Hop(None, 1000.0)

    def test_rejects_bool_and_negative(self):
        with pytest.raises(TypeError):
            Hop(None, True)
        with pytest.raises(ValueError):
            Hop(None, -1)


class TestSingleSwitch:
    def test_loopback_route_is_empty(self):
        topo = make_topology(SINGLE_SWITCH)
        assert topo.route_hops(3, 3) == ()

    def test_unicast_is_one_portless_hop(self):
        topo = make_topology(SINGLE_SWITCH)
        (hop,) = topo.route_hops(0, 5)
        assert hop.port is None
        assert hop.latency_ns == EDR.switch_latency_ns

    def test_all_pairs_share_one_hop_object(self):
        # Hop identity is what multicast uses to find the replication
        # point — the degenerate fabric must present a single switch.
        topo = make_topology(SINGLE_SWITCH)
        hops = {topo.route_hops(s, d)[0]
                for s in range(4) for d in range(4) if s != d}
        assert len(hops) == 1

    def test_no_trunk_ports(self):
        topo = make_topology(SINGLE_SWITCH)
        assert topo.ports() == []
        assert len(topo.switches) == 1


class TestLeafSpine:
    def test_same_leaf_matches_single_switch_shape(self):
        topo = make_topology(LEAF_SPINE(oversubscription=4))
        (hop,) = topo.route_hops(0, 3)  # both on leaf0
        assert hop.port is None
        assert hop.latency_ns == EDR.switch_latency_ns

    def test_cross_leaf_pays_three_switches_and_two_trunks(self):
        topo = make_topology(LEAF_SPINE(oversubscription=2))
        up, spine, down = topo.route_hops(0, 6)  # leaf0 -> leaf1
        assert up.port.name == "leaf0.up"
        assert spine.port is None
        assert down.port.name == "spine0.down1"

    def test_trunk_rate_scales_with_oversubscription(self):
        for k in (1, 2, 4):
            topo = make_topology(LEAF_SPINE(oversubscription=k))
            up = topo.route_hops(0, 6)[0]
            assert up.port.pipe.rate == pytest.approx(
                4 * EDR.link_bytes_per_ns / k)

    def test_cross_leaf_pairs_share_trunk_ports(self):
        topo = make_topology(LEAF_SPINE())
        a = topo.route_hops(0, 4)
        b = topo.route_hops(1, 7)
        assert a[0].port is b[0].port  # leaf0.up
        assert a[2].port is b[2].port  # spine0.down1

    def test_single_leaf_cluster_has_no_spine(self):
        topo = make_topology(LEAF_SPINE(nodes_per_leaf=8), nodes=8)
        assert [s.name for s in topo.switches] == ["leaf0"]
        assert topo.ports() == []
        (hop,) = topo.route_hops(0, 7)
        assert hop.port is None


class TestMulticastRoute:
    def test_single_switch_replicates_at_the_switch(self):
        topo = make_topology(SINGLE_SWITCH)
        trunk, legs = topo.mcast_route(0, (1, 2, 3))
        assert trunk == ()
        assert all(len(hops) == 1 for hops in legs.values())

    def test_leaf_spine_shares_the_trunk_to_a_remote_leaf(self):
        topo = make_topology(LEAF_SPINE())
        trunk, legs = topo.mcast_route(0, (4, 5, 6))
        # All members behind leaf1: the uplink and the spine traversal
        # are walked once; each replica pays the spine0.down1 hop.
        assert len(trunk) == 2
        assert trunk[0].port.name == "leaf0.up"
        assert all(hops == (topo.route_hops(0, 4)[2],)
                   for hops in legs.values())

    def test_mixed_membership_replicates_at_the_source_leaf(self):
        topo = make_topology(LEAF_SPINE())
        trunk, legs = topo.mcast_route(0, (1, 4))
        # Member 1 is same-leaf, member 4 is cross-leaf: nothing beyond
        # the sender's leaf is common, so legs carry the full paths.
        assert trunk == ()
        assert len(legs[1]) == 1
        assert len(legs[4]) == 3

    def test_empty_membership(self):
        topo = make_topology(SINGLE_SWITCH)
        assert topo.mcast_route(0, ()) == ((), {})


class TestEndToEnd:
    def test_repartition_completes_on_leaf_spine(self):
        cluster = Cluster(ClusterConfig(
            network=EDR, num_nodes=8,
            topology=LEAF_SPINE(oversubscription=4)))
        result = run_repartition(cluster, "MESQ/SR",
                                 bytes_per_node=2 * MIB)
        assert result.receive_throughput_gib_per_node() > 0
        assert cluster.fabric.delivered_messages > 0
        # The trunks carried the cross-leaf share of the shuffle.
        assert all(p.pipe.total_units > 0
                   for p in cluster.fabric.topology.ports())

    def test_oversubscription_slows_cross_leaf_traffic(self):
        def elapsed(k):
            sim = Simulator()
            fabric = Fabric(sim, ClusterConfig(
                network=EDR, num_nodes=8,
                topology=LEAF_SPINE(oversubscription=k)))

            # Cross-leaf transfer: must squeeze through leaf0.up.
            pkt = Packet(0, 4, 1, 2, "SEND", 4 * MIB, 4 * MIB)
            fabric.route(pkt, lambda _pkt: None)
            return sim.run()

        assert elapsed(4) > elapsed(1)

    def test_snapshot_reports_topology_ports(self):
        cluster = Cluster(ClusterConfig(
            network=EDR, num_nodes=8,
            topology=LEAF_SPINE(oversubscription=2)))
        run_repartition(cluster, "MESQ/SR", bytes_per_node=2 * MIB)
        fabric = cluster.metrics_snapshot()["fabric"]
        assert fabric["topology.kind"] == "leaf-spine"
        ports = fabric["topology.ports"]
        assert set(ports) == {"leaf0.up", "leaf1.up",
                              "spine0.down0", "spine0.down1"}
        for stats in ports.values():
            assert stats["bytes"] > 0
            assert 0.0 <= stats["utilization"] <= 1.0

    def test_single_switch_snapshot_has_no_ports_key(self):
        cluster = Cluster(ClusterConfig(network=EDR, num_nodes=2))
        run_repartition(cluster, "MESQ/SR", bytes_per_node=2 * MIB)
        fabric = cluster.metrics_snapshot()["fabric"]
        assert fabric["topology.kind"] == "single-switch"
        assert "topology.ports" not in fabric

    def test_trace_names_switches_as_pseudo_processes(self, tmp_path):
        cluster = Cluster(ClusterConfig(
            network=EDR, num_nodes=8,
            topology=LEAF_SPINE(oversubscription=2)))
        tracer = cluster.enable_tracing()
        run_repartition(cluster, "MESQ/SR", bytes_per_node=2 * MIB)
        path = tmp_path / "trace.json"
        tracer.export(str(path))
        events = json.loads(path.read_text())["traceEvents"]
        meta = {e["args"]["name"]: e["pid"] for e in events
                if e["ph"] == "M" and e["name"] == "process_name"}
        # Switches trace under their graph names, after the real nodes.
        assert meta["leaf0"] == 8 and meta["spine0"] == 10
        spans = [e for e in events
                 if e.get("pid") in (8, 9, 10) and e["ph"] == "X"]
        assert spans  # trunk forwarding was recorded
