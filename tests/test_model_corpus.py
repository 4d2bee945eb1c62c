"""Planted-bug corpus: broken protocols the checker must catch.

Each bug is planted once, by replacing a rule the transport and the
model checker share where both look it up, and each test asserts that
both detectors see it:

* **leak** — ``credit.release_credit`` never writes credit back: the
  model checker proves a deadlock, the simulator wedges (empty event
  queue) with the senders stalled on credit.
* **overgrant** — ``credit.release_credit`` writes back two more
  credits than Receives posted: the model checker proves a credit-
  conservation violation, the runtime sanitizer flags
  ``credit-overgrant``.
* **tight ring** — ``read_rc.ring_caps`` gives FreeArr one slot: the
  model checker proves a ring overrun, the runtime sanitizer flags
  ``ring-overrun`` on the same board.

Counterexamples are minimal (BFS over the full graph) and export
as Perfetto-loadable Chrome trace JSON.
"""

import json

import numpy as np
import pytest

from repro import EndpointConfig, TransmissionGroups
from repro.analysis.model import check_kind, modeled_kinds, parse_bound
from repro.analysis.model.trace import write_counterexample
from repro.core import ReceiveOperator, ShuffleOperator, read_rc
from repro.core.shuffle import striped_partitioner
from repro.core.transport import credit
from repro.engine import CollectSink, QueryFragment, run_fragments
from repro.engine.scan import ScanOperator
from repro.sim import SimError

from tests.test_endpoints import DTYPE, make_cluster, run_stage_query


# -- the planted bugs -------------------------------------------------------

@pytest.fixture
def leak(monkeypatch):
    """Releases never write credit back to the sender."""
    monkeypatch.setattr(credit, "release_credit",
                        lambda posted, frequency: None)


@pytest.fixture
def overgrant(monkeypatch):
    """Every release advertises two credits with no Receive behind them."""
    monkeypatch.setattr(credit, "release_credit",
                        lambda posted, frequency: posted + 2)


@pytest.fixture
def tight_ring(monkeypatch):
    """One FreeArr slot for a whole sender pool."""
    real = read_rc.ring_caps
    monkeypatch.setattr(read_rc, "ring_caps",
                        lambda sender_buffers: (real(sender_buffers)[0], 1))


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
    def test_model_finds_deadlock(self, leak, tmp_path):
        result = check_kind("SR_RC", CORPUS_BOUND)
        assert not result.passed
        dead = result.status_of("deadlock-freedom")
        assert dead.status == "fail"
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

    def test_runtime_wedges_on_credit(self, leak):
        cluster = make_cluster()
        cfg = EndpointConfig(message_size=1024, buffers_per_connection=2,
                             credit_frequency=1)
        stage, fragments, _ = build_stage_query(cluster, "MEMQ/SR",
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
    def test_model_finds_conservation_violation(self, overgrant, tmp_path):
        result = check_kind("SR_RC", CORPUS_BOUND)
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

    def test_runtime_sanitizer_flags_overgrant(self, overgrant):
        cluster = make_cluster()
        san = cluster.enable_sanitizer()
        cfg = EndpointConfig(message_size=1024, buffers_per_connection=4)
        _, sinks, _ = run_stage_query(cluster, "MEMQ/SR",
                                      rows_per_node=600, config=cfg)
        assert sum(len(s.result()) for s in sinks) == 2 * 600
        assert "credit-overgrant" in rules_of(san)
        first = next(v for v in san.violations
                     if v.rule == "credit-overgrant")
        assert first.details["value"] > first.details["posted"]


class TestTightRing:
    def test_model_finds_ring_overrun(self, tight_ring, tmp_path):
        result = check_kind("RD_RC", CORPUS_BOUND)
        assert not result.passed
        ring = result.status_of("ring-consistency")
        assert ring.status == "fail"
        assert "freearr" in ring.witness.message
        path = write_counterexample(result.model, ring.witness,
                                    str(tmp_path))
        trace = json.load(open(path))
        assert trace["otherData"]["model"] == "RD_RC"

    def test_runtime_sanitizer_flags_ring_overrun(self, tight_ring):
        cluster = make_cluster()
        san = cluster.enable_sanitizer()
        cfg = EndpointConfig(message_size=1024, buffers_per_connection=4)
        run_stage_query(cluster, "MEMQ/RD", rows_per_node=600, config=cfg)
        assert "ring-overrun" in rules_of(san)
        first = next(v for v in san.violations if v.rule == "ring-overrun")
        assert first.details["outstanding"] > 1


def test_corpus_kinds_stay_out_of_default_sweeps():
    """Planting a bug adds no kind: the sweep is the five designs."""
    assert modeled_kinds() == ("SR_UD", "SR_UD_MC", "RD_RC", "SR_RC",
                               "WR_RC")
