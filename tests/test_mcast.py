"""Tests for native InfiniBand multicast (§7 future work #3)."""

import numpy as np
import pytest

from repro import Cluster, ClusterConfig, EDR, TransmissionGroups
from repro.core import DESIGNS
from repro.verbs import QPType, RecvWR, SendWR, VerbsError
from repro.verbs.constants import Opcode, mcast_ah

from tests.test_shuffle_integration import (
    received_multiset,
    run_shuffle_query,
)


class TestVerbsMulticast:
    def make_ud(self, cluster, node):
        ctx = cluster.contexts[node]
        cq = ctx.create_cq()
        qp = ctx.create_qp(QPType.UD, cq, cq)
        qp.activate()
        return ctx, qp, cq

    def test_one_send_reaches_all_members(self):
        cluster = Cluster(ClusterConfig(network=EDR, num_nodes=4,
                                        threads_per_node=1))
        cluster = Cluster(ClusterConfig(network=EDR, num_nodes=4,
                                        threads_per_node=1).with_network(
                                            ud_jitter_ns=0))
        sender_ctx, sender_qp, sender_cq = self.make_ud(cluster, 0)
        receivers = [self.make_ud(cluster, i) for i in (1, 2, 3)]
        mgid = 99
        for ctx, qp, _cq in receivers:
            ctx.mcast_attach(mgid, qp)
            qp.post_recv(RecvWR(wr_id="r", buffer=None, length=4096))
        sender_qp.post_send(SendWR(wr_id="s", opcode=Opcode.SEND,
                                   length=1000, dest=mcast_ah(mgid)))
        cluster.run()
        for _ctx, _qp, cq in receivers:
            wcs = cq.poll()
            assert len(wcs) == 1 and wcs[0].src_node == 0

    def test_sender_egress_charged_once(self):
        cluster = Cluster(ClusterConfig(network=EDR, num_nodes=4,
                                        threads_per_node=1).with_network(
                                            ud_jitter_ns=0))
        sender_ctx, sender_qp, _cq = self.make_ud(cluster, 0)
        receivers = [self.make_ud(cluster, i) for i in (1, 2, 3)]
        mgid = 7
        for ctx, qp, _c in receivers:
            ctx.mcast_attach(mgid, qp)
            qp.post_recv(RecvWR(wr_id="r", buffer=None, length=4096))
        sender_qp.post_send(SendWR(wr_id="s", opcode=Opcode.SEND,
                                   length=4000, dest=mcast_ah(mgid)))
        cluster.run()
        wire = EDR.wire_bytes(4000, "UD")
        assert cluster.nodes[0].nic.egress.total_units == wire
        for i in (1, 2, 3):
            assert cluster.nodes[i].nic.ingress.total_units == wire

    def test_attached_sender_does_not_hear_itself(self):
        cluster = Cluster(ClusterConfig(network=EDR, num_nodes=2,
                                        threads_per_node=1).with_network(
                                            ud_jitter_ns=0))
        ctx0, qp0, cq0 = self.make_ud(cluster, 0)
        ctx1, qp1, cq1 = self.make_ud(cluster, 1)
        mgid = 5
        ctx0.mcast_attach(mgid, qp0)
        ctx1.mcast_attach(mgid, qp1)
        qp0.post_recv(RecvWR(wr_id="r0", buffer=None, length=4096))
        qp1.post_recv(RecvWR(wr_id="r1", buffer=None, length=4096))
        qp0.post_send(SendWR(wr_id="s", opcode=Opcode.SEND, length=64,
                             dest=mcast_ah(mgid)))
        cluster.run()
        assert len(cq1.poll()) == 1
        # Sender got only its own send completion, no self-delivery.
        wcs = cq0.poll()
        assert all(wc.opcode is Opcode.SEND for wc in wcs)

    def test_rc_qp_cannot_join(self):
        cluster = Cluster(ClusterConfig(network=EDR, num_nodes=1,
                                        threads_per_node=1))
        ctx = cluster.contexts[0]
        cq = ctx.create_cq()
        rc = ctx.create_qp(QPType.RC, cq, cq)
        with pytest.raises(VerbsError, match="UD"):
            ctx.mcast_attach(1, rc)


class TestMcastDesign:
    def test_registered(self):
        assert "MESQ/SR+MC" in DESIGNS
        assert DESIGNS["MESQ/SR+MC"].uses_ud

    def test_broadcast_delivery_identical_to_base(self):
        nodes = 3
        groups = TransmissionGroups.broadcast(nodes)
        sent, sinks, _e, _st, _cl = run_shuffle_query(
            "MESQ/SR+MC", nodes=nodes, rows_per_node=1500, groups=groups)
        all_vals = np.concatenate([t["val"] for t in sent])
        expected = np.sort(np.tile(all_vals, nodes))
        np.testing.assert_array_equal(received_multiset(sinks), expected)

    def test_repartition_uses_unicast_path(self):
        # Singleton groups never hit the multicast branch but must still
        # be correct end to end.
        sent, sinks, _e, _st, _cl = run_shuffle_query("MESQ/SR+MC")
        expected = np.sort(np.concatenate([t["val"] for t in sent]))
        np.testing.assert_array_equal(received_multiset(sinks), expected)

    def test_broadcast_cuts_sender_egress(self):
        nodes = 4
        groups = TransmissionGroups.broadcast(nodes)

        def egress(design):
            _s, _k, _e, _st, cluster = run_shuffle_query(
                design, nodes=nodes, rows_per_node=4000, groups=groups)
            return sum(n.nic.egress.total_units for n in cluster.nodes)

        base = egress("MESQ/SR")
        mc = egress("MESQ/SR+MC")
        # 4 unicast copies (3 remote + 1 self loopback) collapse into one
        # multicast send plus the explicit self copy: ~2/4 of the bytes.
        assert mc < 0.65 * base

    def test_disposed_stage_leaves_no_destroyed_qp_in_a_group(self):
        """``ibv_destroy_qp`` refuses a QP still attached to a group; the
        stage's teardown used to leave every membership behind, each
        naming a destroyed QP."""
        cluster = Cluster(ClusterConfig(network=EDR, num_nodes=4,
                                        threads_per_node=2))
        # Every node broadcasts to the other three (Figure 3c).
        stage = cluster.shuffle_stage(
            "MESQ/SR+MC",
            lambda node: TransmissionGroups.broadcast(4, exclude=node))
        cluster.run_process(stage.setup())
        members = cluster.fabric.mcast_members
        joined = [m for group in members.values() for m in group]
        assert len(members) == 8 and len(joined) == 24
        for node, qpn in joined:
            cluster.contexts[node].qp(qpn)  # live
        stage.dispose()
        left = [m for group in members.values() for m in group]
        assert left == []
