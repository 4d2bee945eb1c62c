"""Planted-deadlock corpus: broken protocols the checker must catch.

Three intentionally broken endpoint kinds, registered only here (the
``_TEST`` suffix keeps them out of ``--all-kinds`` sweeps).  Each carries the *same* bug twice — once in its protocol
model, once in its runtime endpoint code — and each test asserts both
detectors agree:

* ``SR_RC_LEAK_TEST`` — the receiver never writes credit back: the
  model checker proves a deadlock, the simulator wedges (empty event
  queue) with the senders stalled on credit.
* ``RD_RC_TIGHTRING_TEST`` — the sender publishes a one-slot FreeArr:
  the model checker proves a ring overrun, the runtime sanitizer flags
  ``ring-overrun`` on the same board.
* ``SR_RC_OVERGRANT_TEST`` — the receiver advertises two more credits
  than it has Receives posted: the model checker proves a credit-
  conservation violation, the runtime sanitizer flags
  ``credit-overgrant``.

Counterexamples are minimal (BFS over the unreduced graph) and export
as Perfetto-loadable Chrome trace JSON.
"""

import json

import numpy as np
import pytest

from repro import EndpointConfig, TransmissionGroups
from repro.analysis.model import check_kind, parse_bound
from repro.analysis.model.protocols import CreditProtocolModel
from repro.analysis.model.trace import write_counterexample
from repro.core import ReceiveOperator, ShuffleOperator
from repro.core.designs import Design, register_endpoint_kind
from repro.core.read_rc import ReadRCReceiveEndpoint, ReadRCSendEndpoint
from repro.core.shuffle import striped_partitioner
from repro.core.sr_rc import SRRCReceiveEndpoint, SRRCSendEndpoint
from repro.core.transport.credit import CreditWordBoard, RingBoard
from repro.core.transport.credit import post_credit_word
from repro.engine import CollectSink, QueryFragment, run_fragments
from repro.engine.scan import ScanOperator
from repro.sim import SimError
from repro.verbs.constants import QPType
from repro.verbs.qp import fault_actions

from tests.test_endpoints import DTYPE, make_cluster, run_stage_query


# -- the planted kinds ------------------------------------------------------

class _LeakyCreditModel(CreditProtocolModel):
    """Model of a receiver that never writes credit back."""

    def _release_credit_values(self, posted):
        return ()


class LeakySRRCSendEndpoint(SRRCSendEndpoint):
    @classmethod
    def protocol_model(cls, bound):
        return _LeakyCreditModel(
            "SR_RC_LEAK_TEST", bound, credit=CreditWordBoard.model(),
            faults=fault_actions(QPType.RC))


class LeakySRRCReceiveEndpoint(SRRCReceiveEndpoint):
    def _return_credit(self, conn):
        pass  # the planted bug: releases never reach the sender


class _OvergrantCreditModel(CreditProtocolModel):
    """Model of a receiver advertising credit beyond its Receives."""

    def _release_credit_values(self, posted):
        return (posted + 2,)


class OvergrantSRRCSendEndpoint(SRRCSendEndpoint):
    @classmethod
    def protocol_model(cls, bound):
        return _OvergrantCreditModel(
            "SR_RC_OVERGRANT_TEST", bound, credit=CreditWordBoard.model(),
            faults=fault_actions(QPType.RC))


class OvergrantSRRCReceiveEndpoint(SRRCReceiveEndpoint):
    def _return_credit(self, conn):
        post_credit_word(conn, conn.posted + 2)  # the planted bug


class TightRingRDSendEndpoint(ReadRCSendEndpoint):
    @classmethod
    def protocol_model(cls, bound):
        from repro.analysis.model.protocols import RingProtocolModel
        return RingProtocolModel(
            "RD_RC_TIGHTRING_TEST", bound, role="read",
            valid=RingBoard.model("validarr", bound.sender_buffers + 2),
            free=RingBoard.model("freearr", 1),  # the planted bug
            faults=fault_actions(QPType.RC))

    @property
    def _free_cap(self):
        return 1  # the planted bug: one FreeArr slot for a whole pool


register_endpoint_kind(
    "SR_RC_LEAK_TEST", LeakySRRCSendEndpoint, LeakySRRCReceiveEndpoint,
    description="fault injection: SR/RC receiver that leaks credit")
register_endpoint_kind(
    "SR_RC_OVERGRANT_TEST", OvergrantSRRCSendEndpoint,
    OvergrantSRRCReceiveEndpoint,
    description="fault injection: SR/RC receiver that overgrants credit")
register_endpoint_kind(
    "RD_RC_TIGHTRING_TEST", TightRingRDSendEndpoint, ReadRCReceiveEndpoint,
    one_sided=True,
    description="fault injection: RD/RC sender with a one-slot FreeArr")

LEAK_DESIGN = Design("LEAK/SR", "SR_RC_LEAK_TEST", multi_endpoint=True)
OVERGRANT_DESIGN = Design("OVERGRANT/SR", "SR_RC_OVERGRANT_TEST",
                          multi_endpoint=True)
TIGHTRING_DESIGN = Design("TIGHT/RD", "RD_RC_TIGHTRING_TEST",
                          multi_endpoint=True)

#: a small instance keeps counterexamples short and exploration instant.
CORPUS_BOUND = parse_bound("peers=1")


def rules_of(san):
    return sorted({v.rule for v in san.violations})


def build_stage_query(cluster, design, rows_per_node=600, config=None):
    """Like run_stage_query, but hands back the stage and fragments so a
    wedged run can still be inspected afterwards."""
    nodes = cluster.num_nodes
    threads = cluster.threads_per_node
    groups = TransmissionGroups.repartition(nodes)
    cfg = config or EndpointConfig(message_size=1024,
                                   buffers_per_connection=4)
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
    return stage, fragments, sinks


class TestCreditLeak:
    def test_model_finds_deadlock(self, tmp_path):
        result = check_kind("SR_RC_LEAK_TEST", CORPUS_BOUND)
        assert not result.passed
        dead = result.status_of("deadlock-freedom")
        assert dead.status == "fail"
        assert not result.explored.por  # confirmed on the full graph
        witness = dead.witness
        # Minimal wedge: 2 sends, 2 deliveries, 2 releases (no credit
        # written back), 2 completions polled -- 8 steps, nothing less.
        assert len(witness) == 8
        names = [a.name for a, _s in witness.steps[1:]]
        assert names.count("send_data") == 2
        assert names.count("release") == 2
        assert "credit_arrive" not in names  # the leak itself
        path = write_counterexample(result.model, witness, str(tmp_path))
        trace = json.load(open(path))
        assert trace["otherData"]["property"] == "deadlock-freedom"

    def test_runtime_wedges_on_credit(self):
        cluster = make_cluster()
        cfg = EndpointConfig(message_size=1024, buffers_per_connection=2,
                             credit_frequency=1)
        stage, fragments, _ = build_stage_query(cluster, LEAK_DESIGN,
                                                rows_per_node=6000,
                                                config=cfg)
        with pytest.raises(SimError, match="deadlock"):
            cluster.run_process(run_fragments(cluster.sim, fragments))
        # Wedged exactly where the model says: every sender burned its
        # initial credit and never saw another grant.
        wedged = [conn
                  for eps in stage.send_endpoints.values() for ep in eps
                  for conn in ep.conns.values()
                  if conn.credit > 0 and conn.sent >= conn.credit]
        assert wedged


class TestCreditOvergrant:
    def test_model_finds_conservation_violation(self, tmp_path):
        result = check_kind("SR_RC_OVERGRANT_TEST", CORPUS_BOUND)
        assert not result.passed
        cons = result.status_of("credit-conservation")
        assert cons.status == "fail"
        assert "overgrant" in cons.witness.message or \
            "posted" in cons.witness.message
        # Minimal: send, deliver, release -- the very first write-back
        # already advertises more than the receiver posted.
        assert len(cons.witness) == 3
        path = write_counterexample(result.model, cons.witness,
                                    str(tmp_path))
        json.load(open(path))

    def test_runtime_sanitizer_flags_overgrant(self):
        cluster = make_cluster()
        san = cluster.enable_sanitizer()
        cfg = EndpointConfig(message_size=1024, buffers_per_connection=4)
        _, sinks, _ = run_stage_query(cluster, OVERGRANT_DESIGN,
                                      rows_per_node=600, config=cfg)
        assert sum(len(s.result()) for s in sinks) == 2 * 600
        assert "credit-overgrant" in rules_of(san)
        first = next(v for v in san.violations
                     if v.rule == "credit-overgrant")
        assert first.details["value"] > first.details["posted"]


class TestTightRing:
    def test_model_finds_ring_overrun(self, tmp_path):
        result = check_kind("RD_RC_TIGHTRING_TEST", CORPUS_BOUND)
        assert not result.passed
        ring = result.status_of("ring-consistency")
        assert ring.status == "fail"
        assert "freearr" in ring.witness.message
        path = write_counterexample(result.model, ring.witness,
                                    str(tmp_path))
        trace = json.load(open(path))
        assert trace["otherData"]["model"] == "RD_RC_TIGHTRING_TEST"

    def test_runtime_sanitizer_flags_ring_overrun(self):
        cluster = make_cluster()
        san = cluster.enable_sanitizer()
        cfg = EndpointConfig(message_size=1024, buffers_per_connection=4)
        run_stage_query(cluster, TIGHTRING_DESIGN, rows_per_node=600,
                        config=cfg)
        assert "ring-overrun" in rules_of(san)
        first = next(v for v in san.violations if v.rule == "ring-overrun")
        assert first.details["outstanding"] > 1


def test_corpus_kinds_stay_out_of_default_sweeps():
    from repro.analysis.model import modeled_kinds
    default = modeled_kinds()
    assert not any(k.endswith("_TEST") for k in default)
    everything = modeled_kinds(include_test=True)
    for kind in ("SR_RC_LEAK_TEST", "SR_RC_OVERGRANT_TEST",
                 "RD_RC_TIGHTRING_TEST"):
        assert kind in everything
