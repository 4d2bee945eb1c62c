"""Correctness tests for the RDMA Write endpoint (§7 future work)."""

import numpy as np
import pytest

from repro.core import DESIGNS

from tests.test_shuffle_integration import (
    received_multiset,
    run_shuffle_query,
)
from repro import TransmissionGroups


class TestWriteDesignRegistry:
    def test_write_designs_registered(self):
        assert "MEMQ/WR" in DESIGNS and "SEMQ/WR" in DESIGNS
        assert DESIGNS["MEMQ/WR"].one_sided
        assert not DESIGNS["MEMQ/WR"].uses_ud

    def test_qp_count_matches_mq(self):
        # Same connection footprint as the other MQ designs (Table 1).
        assert DESIGNS["MEMQ/WR"].qps_per_operator(16, 8) == 128
        assert DESIGNS["SEMQ/WR"].qps_per_operator(16, 8) == 16


@pytest.mark.parametrize("design", ["MEMQ/WR", "SEMQ/WR"])
class TestWriteDelivery:
    def test_repartition_exactly_once(self, design):
        sent, sinks, _el, _st, _cl = run_shuffle_query(design)
        expected = np.sort(np.concatenate([t["val"] for t in sent]))
        np.testing.assert_array_equal(received_multiset(sinks), expected)

    def test_broadcast_all_copies(self, design):
        nodes = 3
        groups = TransmissionGroups.broadcast(nodes)
        sent, sinks, _el, _st, _cl = run_shuffle_query(
            design, nodes=nodes, rows_per_node=1500, groups=groups)
        all_vals = np.concatenate([t["val"] for t in sent])
        expected = np.sort(np.tile(all_vals, nodes))
        np.testing.assert_array_equal(received_multiset(sinks), expected)


class TestWriteBufferProtocol:
    def test_remote_free_lists_replenished(self):
        """Every remote buffer lent to a sender must be returned."""
        _s, _k, _e, stage, cluster = run_shuffle_query("MEMQ/WR")
        cluster.run()  # drain in-flight FreeArr writes
        for eps in stage.send_endpoints.values():
            for ep in eps:
                for conn in ep.conns.values():
                    assert len(conn.remote_free) == ep.buffers_per_link

    def test_sender_buffers_all_freed(self):
        _s, _k, _e, stage, cluster = run_shuffle_query("SEMQ/WR")
        cluster.run()
        for eps in stage.send_endpoints.values():
            for ep in eps:
                assert not ep._pending
