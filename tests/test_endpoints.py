"""Endpoint behaviour: flow control, unreliable delivery, one-sided queues.

These tests target the transport-level mechanisms of §4.4 directly:
credit stalling and write-back amortization, UD message counting with
out-of-order and lossy delivery, the drain timeout, and the RDMA Read
endpoint's FreeArr/ValidArr buffer-recycling protocol.
"""

import numpy as np
import pytest

from repro import (
    Cluster,
    ClusterConfig,
    EDR,
    EndpointConfig,
    ShuffleNetworkError,
    TransmissionGroups,
)
from repro.core import ReceiveOperator, ShuffleOperator
from repro.core.shuffle import striped_partitioner
from repro.engine import CollectSink, QueryFragment, run_fragments
from repro.engine.scan import ScanOperator

DTYPE = np.dtype([("a", np.int64), ("b", np.int64)])


def make_cluster(nodes=2, threads=2, **net_overrides):
    cc = ClusterConfig(network=EDR, num_nodes=nodes, threads_per_node=threads)
    if net_overrides:
        cc = cc.with_network(**net_overrides)
    return Cluster(cc)


def run_stage_query(cluster, design, rows_per_node=3000, config=None,
                    groups=None, expect_error=False):
    nodes = cluster.num_nodes
    threads = cluster.threads_per_node
    groups = groups or TransmissionGroups.repartition(nodes)
    cfg = config or EndpointConfig(message_size=4096)
    stage = cluster.shuffle_stage(design, groups, config=cfg)
    cluster.run_process(stage.setup())
    fragments, sinks = [], []
    for n in range(nodes):
        node = cluster.nodes[n]
        table = np.empty(rows_per_node, dtype=DTYPE)
        table["a"] = np.arange(rows_per_node)
        table["b"] = n
        scan = ScanOperator(node, table, threads, batch_rows=256)
        shuffle = ShuffleOperator(node, scan, stage.send_endpoints[n],
                                  groups, striped_partitioner(len(groups)),
                                  threads)
        fragments.append(QueryFragment(node, shuffle, threads))
        recv = ReceiveOperator(node, stage.recv_endpoints[n], threads)
        sink = CollectSink()
        sinks.append(sink)
        fragments.append(QueryFragment(node, recv, threads, sink=sink))
    if expect_error:
        with pytest.raises(ShuffleNetworkError):
            cluster.run_process(run_fragments(cluster.sim, fragments))
        return stage, sinks, None
    elapsed = cluster.run_process(run_fragments(cluster.sim, fragments))
    return stage, sinks, elapsed


class TestCreditProtocol:
    def test_sender_never_exceeds_issued_credit(self):
        """The flow-control invariant: sent <= credit, always."""
        cluster = make_cluster()
        stage, _, _ = run_stage_query(cluster, "MEMQ/SR")
        for eps in stage.send_endpoints.values():
            for ep in eps:
                for conn in ep.conns.values():
                    assert conn.sent <= conn.credit

    def test_credit_write_back_amortization(self):
        """Higher write-back frequency means fewer credit RDMA Writes."""
        def credit_writes(freq):
            cluster = make_cluster()
            cfg = EndpointConfig(message_size=4096, buffers_per_connection=16,
                                 credit_frequency=freq)
            stage, _, _ = run_stage_query(cluster, "MEMQ/SR", config=cfg)
            writes = 0
            for eps in stage.recv_endpoints.values():
                for ep in eps:
                    for conn in ep.conns.values():
                        writes += conn.qp.sends_posted
            return writes

        assert credit_writes(1) > 1.7 * credit_writes(8)

    def test_small_credit_window_stalls_sender(self):
        cluster = make_cluster()
        cfg = EndpointConfig(message_size=4096, buffers_per_connection=1,
                             credit_frequency=1)
        stage, _, _ = run_stage_query(cluster, "MEMQ/SR", config=cfg,
                                   rows_per_node=20000)
        stalls = sum(ep.credit_wait_ns
                     for eps in stage.send_endpoints.values() for ep in eps)
        assert stalls > 0

    def test_credit_frequency_above_buffers_rejected(self):
        with pytest.raises(ValueError, match="credit_frequency"):
            EndpointConfig(buffers_per_connection=2, credit_frequency=3)

    @pytest.mark.parametrize("value", [0, -1])
    @pytest.mark.parametrize("field", ["ud_window_factor"])
    def test_ud_knobs_below_one_rejected(self, field, value):
        """Checked here, not at run time: a zero window factor would
        fail stage setup naming buffers_per_connection."""
        with pytest.raises(ValueError,
                           match=f"^{field} must be an int >= 1, got {value}$"):
            EndpointConfig(**{field: value})
        assert getattr(EndpointConfig(**{field: 1}), field) == 1


class TestUnreliableDatagram:
    def test_out_of_order_delivery_reconciles_totals(self):
        """Heavy jitter reorders datagrams; message counting still
        terminates cleanly with every tuple delivered (§4.4.2)."""
        cluster = make_cluster(ud_jitter_ns=20_000)
        stage, sinks, _ = run_stage_query(cluster, "MESQ/SR",
                                       rows_per_node=5000)
        got = sum(len(s.result()) for s in sinks if s.result() is not None)
        assert got == 2 * 5000

    def test_loss_triggers_drain_timeout_error(self):
        """Lost datagrams leave received < expected; after the drain
        timeout the endpoint reports a network error (query restart)."""
        cluster = make_cluster(ud_loss_probability=0.05, ud_jitter_ns=0)
        cfg = EndpointConfig(message_size=4096)
        run_stage_query(cluster, "MESQ/SR", rows_per_node=30000,
                        config=cfg, expect_error=True)

    def test_zero_loss_zero_drops(self):
        cluster = make_cluster()
        stage, _, _ = run_stage_query(cluster, "MESQ/SR")
        assert cluster.fabric.dropped_messages == 0

    def test_message_counts_match_on_clean_run(self):
        cluster = make_cluster()
        stage, _, _ = run_stage_query(cluster, "MESQ/SR")
        for eps in stage.recv_endpoints.values():
            for ep in eps:
                for conn in ep.conns.values():
                    assert conn.expected is not None
                    assert conn.received == conn.expected

    def test_ud_uses_single_qp_per_endpoint(self):
        cluster = make_cluster(nodes=4)
        stage, _, _ = run_stage_query(cluster, "MESQ/SR", rows_per_node=500)
        for eps in stage.send_endpoints.values():
            for ep in eps:
                assert ep.qp is not None  # exactly one QP, many peers
                assert len(ep.conns) == 4


class TestRdmaReadEndpoint:
    def test_buffers_recycle_through_freearr(self):
        """Every transmitted buffer must come back through FreeArr: at
        end of stream no sender buffer is waiting on notifications."""
        cluster = make_cluster()
        stage, _, _ = run_stage_query(cluster, "MEMQ/RD")
        cluster.run()  # drain in-flight FreeArr RDMA Writes
        for eps in stage.send_endpoints.values():
            for ep in eps:
                pending = {addr: cnt for addr, cnt in ep._pending.items()
                           if addr not in ep._final_addrs}
                assert not pending

    def test_sender_remains_passive(self):
        """The RD sender posts only RDMA Writes (ValidArr notifications);
        receivers do all the data movement via RDMA Read."""
        cluster = make_cluster()
        stage, _, _ = run_stage_query(cluster, "MEMQ/RD")
        # All data bytes travel as READ_RESP packets, none as SEND.
        # (Check via endpoint counters: received == sent logical msgs.)
        sent = sum(ep.messages_sent
                   for eps in stage.send_endpoints.values() for ep in eps)
        received = sum(ep.messages_received
                       for eps in stage.recv_endpoints.values() for ep in eps)
        assert sent == received > 0

    def test_broadcast_waits_for_all_readers(self):
        """A multicast buffer is freed only after every group member
        returned it (the §5.1.3 broadcast-starvation mechanism)."""
        cluster = make_cluster(nodes=3)
        groups = TransmissionGroups.broadcast(3)
        stage, sinks, _ = run_stage_query(cluster, "MEMQ/RD",
                                       rows_per_node=2000, groups=groups)
        got = sum(len(s.result()) for s in sinks if s.result() is not None)
        assert got == 3 * 3 * 2000  # every node sees every tuple

    def test_local_arr_restored_at_end(self):
        cluster = make_cluster()
        cfg = EndpointConfig(message_size=4096)
        stage, _, _ = run_stage_query(cluster, "MEMQ/RD", config=cfg)
        cluster.run()  # drain in-flight completions
        for eps in stage.recv_endpoints.values():
            for ep in eps:
                for conn in ep.conns.values():
                    assert len(conn.local_arr) == ep.buffers_per_link
                    assert not conn.pending_remote


class TestSharedEndpointContention:
    def test_se_configuration_is_slower_than_me_on_ud(self):
        """SESQ/SR serializes all threads on one endpoint lock; MESQ/SR
        does not (Table 1's thread-contention column, §5.1.3).  Buffer
        windows are deepened so neither run is flow-control bound and the
        comparison isolates the lock."""
        def run(design):
            cluster = make_cluster(threads=4)
            cfg = EndpointConfig(message_size=4096,
                                 buffers_per_connection=8)
            _stage, _sinks, elapsed = run_stage_query(
                cluster, design, rows_per_node=120000, config=cfg)
            return elapsed

        assert run("SESQ/SR") > run("MESQ/SR")


# ---------------------------------------------------------------------------
# Conformance suite: every endpoint kind a design in DESIGNS names — the
# five RDMA kinds plus the MPI and IPoIB baselines — must honour the §4.2
# interface contract.
# ---------------------------------------------------------------------------

from repro.core.designs import DESIGNS  # noqa: E402


def _design_for_kind(kind):
    """A representative design for an endpoint kind (prefer multi-endpoint)."""
    candidates = [d for d in DESIGNS.values() if d.kind.name == kind]
    return next((d for d in candidates if d.multi_endpoint), candidates[0])


CONFORMANCE_KINDS = sorted({d.kind.name for d in DESIGNS.values()})


@pytest.mark.parametrize("kind", CONFORMANCE_KINDS)
class TestEndpointConformance:
    def test_delivers_every_tuple_and_depletes(self, kind):
        """Exactly-once delivery plus DEPLETED sentinel propagation: every
        receive endpoint must drain all its sources and terminate."""
        design = _design_for_kind(kind)
        cluster = make_cluster()
        stage, sinks, _ = run_stage_query(cluster, design, rows_per_node=2000)
        got = sum(len(s.result()) for s in sinks if s.result() is not None)
        assert got == cluster.num_nodes * 2000
        for eps in stage.recv_endpoints.values():
            for ep in eps:
                # The final/DEPLETED marker arrived from every source.
                assert ep._live_sources == 0
                assert all(c.depleted for c in ep.conns.values())

    def test_getfree_blocks_until_release_recycles(self, kind):
        """With a single buffer per connection, forward progress is only
        possible if GETFREE blocks and RELEASE recycles buffers: the run
        must still complete, reusing each buffer many times."""
        design = _design_for_kind(kind)
        cluster = make_cluster()
        cfg = EndpointConfig(message_size=4096, buffers_per_connection=1,
                             credit_frequency=1)
        stage, sinks, _ = run_stage_query(cluster, design,
                                          rows_per_node=12000, config=cfg)
        got = sum(len(s.result()) for s in sinks if s.result() is not None)
        assert got == cluster.num_nodes * 12000
        for eps in stage.send_endpoints.values():
            for ep in eps:
                # More messages than pool buffers proves buffer reuse.
                assert ep.messages_sent > len(ep.pool)

    def test_network_error_surfaces_as_shuffle_error(self, kind):
        """Unreliable transports must convert missing datagrams into a
        ShuffleNetworkError after the drain timeout (§4.4.2); reliable
        transports handle loss in hardware and never see it."""
        design = _design_for_kind(kind)
        if not design.uses_ud:
            pytest.skip("reliable transport: retransmission is in hardware")
        cluster = make_cluster(ud_loss_probability=0.05, ud_jitter_ns=0)
        cfg = EndpointConfig(message_size=4096)
        run_stage_query(cluster, design, rows_per_node=30000,
                        config=cfg, expect_error=True)
