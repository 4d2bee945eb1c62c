"""Unit tests for the design table and its endpoint kinds (Table 1)."""

import numpy as np
import pytest

from repro import EDR, Cluster, ClusterConfig, TransmissionGroups
from repro.core import DESIGNS, design_properties
from repro.core.designs import ENDPOINT_KINDS, Design, EndpointKind
from repro.core.read_rc import ReadRCSendEndpoint
from repro.core.sr_rc import SRRCReceiveEndpoint, SRRCSendEndpoint
from repro.core.sr_ud import SRUDSendEndpoint
from repro.core.write_rc import WriteRCReceiveEndpoint, WriteRCSendEndpoint
from repro.core.transport.runtime import (
    CreditedReceiveEndpoint,
    CreditedSendEndpoint,
    ReceiveEndpoint,
    SendEndpoint,
)

from tests.test_endpoints import make_cluster, run_stage_query


class TestRegistry:
    def test_six_designs_present(self):
        assert set(DESIGNS) >= {
            "MEMQ/RD", "SEMQ/RD", "MEMQ/SR", "SEMQ/SR", "MESQ/SR", "SESQ/SR",
        }

    def test_endpoint_classes(self):
        assert DESIGNS["MESQ/SR"].send_cls is SRUDSendEndpoint
        assert DESIGNS["MEMQ/SR"].send_cls is SRRCSendEndpoint
        assert DESIGNS["MEMQ/RD"].send_cls is ReadRCSendEndpoint
        assert DESIGNS["SEMQ/WR"].send_cls is WriteRCSendEndpoint
        assert DESIGNS["SEMQ/WR"].recv_cls is WriteRCReceiveEndpoint

    def test_endpoint_counts(self):
        assert DESIGNS["MESQ/SR"].num_endpoints(threads=8) == 8
        assert DESIGNS["SESQ/SR"].num_endpoints(threads=8) == 1


class TestKindTable:
    def test_kind_table_rows(self):
        assert list(ENDPOINT_KINDS) == [
            "MPI", "IPOIB", "SR_UD", "SR_UD_MC", "RD_RC", "SR_RC", "WR_RC"]
        for name, kind in ENDPOINT_KINDS.items():
            assert kind.name == name
        assert [k for k, v in ENDPOINT_KINDS.items() if v.uses_ud] == [
            "SR_UD", "SR_UD_MC"]
        assert [k for k, v in ENDPOINT_KINDS.items() if v.one_sided] == [
            "RD_RC", "WR_RC"]

    def test_every_design_kind_is_a_table_row(self):
        for design in DESIGNS.values():
            assert ENDPOINT_KINDS[design.kind.name] is design.kind
            assert design.send_cls is design.kind.send_cls
            assert design.recv_cls is design.kind.recv_cls
            assert design.uses_ud == design.kind.uses_ud
            assert design.one_sided == design.kind.one_sided

    def test_design_outside_designs_runs_its_own_classes(self):
        """A design built outside DESIGNS runs a full shuffle through its
        own send/receive classes."""
        class DemoSendEndpoint(SRRCSendEndpoint):
            pass

        class DemoReceiveEndpoint(SRRCReceiveEndpoint):
            pass

        design = Design(
            "DEMO/SR",
            EndpointKind("DEMO_SR", DemoSendEndpoint, DemoReceiveEndpoint),
            multi_endpoint=True)
        assert design.name not in DESIGNS
        cluster = make_cluster()
        stage, sinks, _ = run_stage_query(cluster, design, rows_per_node=1000)
        got = np.sum([len(s.result()) for s in sinks
                      if s.result() is not None])
        assert got == cluster.num_nodes * 1000
        for eps in stage.send_endpoints.values():
            for ep in eps:
                assert type(ep) is DemoSendEndpoint
        for eps in stage.recv_endpoints.values():
            for ep in eps:
                assert type(ep) is DemoReceiveEndpoint


@pytest.mark.parametrize("name", sorted(DESIGNS))
class TestOneEndpointBase:
    """Every design and both baselines stand on the one SendEndpoint /
    ReceiveEndpoint; nothing about an endpoint has to be probed for."""

    def test_classes_descend_from_the_one_base(self, name):
        implementations = {cls for d in DESIGNS.values()
                           for cls in (d.send_cls, d.recv_cls)}
        for cls, base, credited in (
                (DESIGNS[name].send_cls, SendEndpoint, CreditedSendEndpoint),
                (DESIGNS[name].recv_cls, ReceiveEndpoint,
                 CreditedReceiveEndpoint)):
            assert issubclass(cls, base)
            between = cls.__mro__[:cls.__mro__.index(base)]
            assert all(c in implementations or c is credited
                       for c in between), between

    def test_every_endpoint_answers_the_harvests_plainly(self, name):
        cluster = Cluster(ClusterConfig(network=EDR, num_nodes=2,
                                        threads_per_node=1))
        stage = cluster.shuffle_stage(name, TransmissionGroups.repartition(2))
        cluster.run_process(stage.setup())
        endpoints = [ep for eps in (*stage.send_endpoints.values(),
                                    *stage.recv_endpoints.values())
                     for ep in eps]
        assert len(endpoints) == 4
        for ep in endpoints:
            assert isinstance(ep.qps(), list)
            assert ep.registered_regions()
            assert ep.conns is not None
            assert ep.cq is None or ep.cq in cluster.contexts[
                ep.ctx.node_id]._cqs
            assert ep.credit_wait_ns == ep.data_wait_ns == 0
        stage.dispose()
        cluster.dispose()


class TestTable1:
    """The QPs-per-node column of Table 1 for n nodes, t threads."""

    @pytest.mark.parametrize("name,expected", [
        ("MEMQ/RD", 16 * 8),   # n*t
        ("MEMQ/SR", 16 * 8),   # n*t
        ("SEMQ/RD", 16),       # n
        ("SEMQ/SR", 16),       # n
        ("MESQ/SR", 8),        # t
        ("SESQ/SR", 1),        # 1
    ])
    def test_qps_per_operator(self, name, expected):
        assert DESIGNS[name].qps_per_operator(num_nodes=16, threads=8) == expected

    def test_connection_labels(self):
        labels = {name: d.connections_label for name, d in DESIGNS.items()
                  if name in ("MEMQ/SR", "SEMQ/SR", "MESQ/SR", "SESQ/SR")}
        assert labels == {
            "MEMQ/SR": "n*t", "SEMQ/SR": "n", "MESQ/SR": "t", "SESQ/SR": "1",
        }

    def test_contention_column(self):
        assert DESIGNS["SESQ/SR"].thread_contention == "Excessive"
        assert DESIGNS["SEMQ/SR"].thread_contention == "Moderate"
        assert DESIGNS["MESQ/SR"].thread_contention == "None"
        assert DESIGNS["MEMQ/RD"].thread_contention == "None"

    def test_messaging_and_transport(self):
        assert "4 KiB" in DESIGNS["MESQ/SR"].messaging
        assert "1 GiB" in DESIGNS["MEMQ/SR"].messaging
        assert "software" in DESIGNS["SESQ/SR"].transport
        assert "hardware" in DESIGNS["SEMQ/RD"].transport

    def test_flow_control_column(self):
        assert DESIGNS["MEMQ/RD"].flow_control.startswith("One-sided")
        assert DESIGNS["MEMQ/SR"].flow_control.startswith("Two-sided")

    def test_design_properties_rows(self):
        rows = design_properties(num_nodes=16, threads=8)
        assert len(rows) == 6
        by_name = {row["design"]: row for row in rows}
        assert by_name["MESQ/SR"]["qps_per_operator"] == 8
        assert by_name["MEMQ/SR"]["resource_consumption"] == "Excessive"
        assert by_name["SESQ/SR"]["resource_consumption"] == "Minimal"
