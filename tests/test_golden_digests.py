"""Golden digests: the committed reference for every simulated result.

``tests/golden/digests.json`` freezes what a user can measure from a
small train-sized shuffle (:func:`run_shuffle`) — for every endpoint
design on every topology preset — plus the multicast jitter + loss
outcome per preset and one ``credit_frequency=1`` point.
The fixture is the oracle: a change to the simulator either reproduces
every digest or is a deliberate modeling change, in which case the
fixture is regenerated and the diff is reviewed as data:

    PYTHONPATH=src python -m tests.test_golden_digests

The four interpreter self-counters (events dispatched, wakeups,
processes started, queue depth) are excluded from the metrics digest:
they measure the host cost of the run, not its simulated result.

The shuffles use 64 KiB messages on the RC designs so that multi-MTU
messages (16 packets each) cross the fabric; the UD designs are
MTU-bound by the verbs layer, so their datagrams are single-packet
messages by construction.
"""

import hashlib
import json
import os

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
from repro.core.shuffle import striped_partitioner
from repro.engine import CollectSink, QueryFragment, run_fragments
from repro.engine.scan import ScanOperator
from repro.fabric import LEAF_SPINE, SINGLE_SWITCH, Fabric, Packet
from repro.sim import Simulator
from tests.test_determinism import DESIGN_NAMES, _comparable

DTYPE = np.dtype([("a", np.int64), ("b", np.int64)])

#: UD transports cap messages at the MTU; RC designs get 64 KiB messages
#: (16 MTU packets at the 4 KiB MTU).
UD_DESIGNS = {"MESQ/SR", "MESQ/SR+MC"}

TOPOLOGIES = [SINGLE_SWITCH, LEAF_SPINE(oversubscription=2)]
TOPOLOGY_IDS = ["single-switch", "leaf-spine"]

#: the points of :func:`run_shuffle` at which the observers can be
#: switched on; nothing simulated has happened before the last of them.
OBSERVE_AT = ("cluster-built", "stage-built", "setup-done")


def run_shuffle(design, topology=SINGLE_SWITCH, nodes=2, threads=2,
                credit_frequency=None, observe_at="cluster-built",
                sanitize=False):
    """One small shuffle with multi-MTU messages; returns ``(metrics
    snapshot, span count, end time, report JSON, delivered_messages)``.
    Tracing and reporting (and, with ``sanitize``, the sanitizer, which
    must then stay silent) are enabled at ``observe_at``."""
    cluster = Cluster(ClusterConfig(network=EDR, num_nodes=nodes,
                                    threads_per_node=threads,
                                    topology=topology))

    def observe(point):
        if point == observe_at:
            cluster.enable_tracing()
            cluster.enable_reporting()
            if sanitize:
                cluster.enable_sanitizer()

    observe("cluster-built")
    groups = TransmissionGroups.repartition(nodes)
    message_size = 4096 if design in UD_DESIGNS else 65536
    kwargs = {}
    if credit_frequency is not None:
        kwargs["credit_frequency"] = credit_frequency
    cfg = EndpointConfig(message_size=message_size, **kwargs)
    stage = cluster.shuffle_stage(design, groups, config=cfg)
    observe("stage-built")
    cluster.run_process(stage.setup())
    observe("setup-done")
    rows_per_node = 8192
    fragments, sinks = [], []
    for n in range(nodes):
        node = cluster.nodes[n]
        table = np.empty(rows_per_node, dtype=DTYPE)
        table["a"] = np.arange(rows_per_node)
        table["b"] = n
        # Large batches so per-destination slices exceed one MTU on the
        # RC designs — that is what makes the messages multi-packet.
        scan = ScanOperator(node, table, threads, batch_rows=4096)
        shuffle = ShuffleOperator(node, scan, stage.send_endpoints[n],
                                  groups, striped_partitioner(len(groups)),
                                  threads)
        fragments.append(QueryFragment(node, shuffle, threads))
        recv = ReceiveOperator(node, stage.recv_endpoints[n], threads)
        sink = CollectSink()
        sinks.append(sink)
        fragments.append(QueryFragment(node, recv, threads, sink=sink))
    cluster.run_process(run_fragments(cluster.sim, fragments))
    cluster.run()  # drain trailing completions
    got = sum(len(s.result()) for s in sinks if s.result() is not None)
    assert got == nodes * rows_per_node
    report = cluster.run_report()
    if sanitize:
        assert cluster.sanitizer.violations == []
        assert report["sanitizer"] == {"attached": True, "violations": 0,
                                       "messages": []}
    report_json = json.dumps(report, sort_keys=True)
    return (cluster.metrics_snapshot(), len(cluster.telemetry.tracer.events),
            cluster.sim.now, report_json, cluster.fabric.delivered_messages)


GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "digests.json")

PRESETS = list(zip(TOPOLOGIES, TOPOLOGY_IDS))


def _sha256(obj):
    canonical = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def shuffle_digest(design, topology, **kwargs):
    snapshot, spans, end_ns, report_json, messages = run_shuffle(
        design, topology, **kwargs)
    return {
        "end_ns": end_ns,
        "trace_spans": spans,
        "delivered_messages": messages,
        "metrics_sha256": _sha256(_comparable(snapshot)),
        "report_sha256": hashlib.sha256(report_json.encode()).hexdigest(),
    }


MCAST_NETWORK = dict(ud_jitter_ns=2600, ud_loss_probability=0.25)


def mcast_blast(sim, fabric):
    """Blast 16 multicast datagrams at 7 members of an 8-node ``fabric``;
    returns every per-leg outcome in completion order."""
    mgid = 7
    for node in range(1, 8):
        fabric.mcast_attach(mgid, node, 200 + node)
    outcomes = []

    def on_leg(copy):
        outcomes.append((sim.now, copy.dst_node, copy.dropped))

    for seq in range(16):
        pkt = Packet(0, 0, 11, 0, "SEND", 2048, 2108, meta={"seq": seq})
        fabric.route_mcast(pkt, mgid, on_leg)
    sim.run()
    assert fabric.delivered_messages + fabric.dropped_messages \
        == len(outcomes) == 16 * 7
    return outcomes


def mcast_digest(topology):
    """Blast multicast datagrams with jitter and 25 % loss injection;
    digests every per-leg outcome in completion order.  Multicast
    exercises walker paths unicast cannot: the trunk hands over to a
    fan-out terminal, and every leg draws jitter *and* loss."""
    sim = Simulator()
    config = ClusterConfig(network=EDR, num_nodes=8,
                           topology=topology).with_network(**MCAST_NETWORK)
    fabric = Fabric(sim, config)
    outcomes = mcast_blast(sim, fabric)
    return {
        "end_ns": sim.now,
        "delivered_messages": fabric.delivered_messages,
        "dropped_messages": fabric.dropped_messages,
        "outcomes_sha256": _sha256(outcomes),
    }


def _load():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


@pytest.mark.parametrize("topology,topology_id", PRESETS, ids=TOPOLOGY_IDS)
@pytest.mark.parametrize("design", DESIGN_NAMES)
def test_shuffle_matches_golden(design, topology, topology_id):
    assert shuffle_digest(design, topology) == \
        _load()["shuffle"][f"{design}@{topology_id}"]


@pytest.mark.parametrize("design", DESIGN_NAMES)
def test_enabling_order_does_not_matter(design):
    """Observers are read off the cluster's one bundle at every site, so
    tracer + reporting + sanitizer may be switched on before the stage
    exists, after it is built, or after setup has created every CQ, QP
    and memory region: the result is the same, and it is the golden
    one (whose RunReport alone differs, by saying no sanitizer was
    attached)."""
    digests = [shuffle_digest(design, TOPOLOGIES[0], observe_at=point,
                              sanitize=True) for point in OBSERVE_AT]
    assert digests[1:] == digests[:-1]
    golden = _load()["shuffle"][f"{design}@{TOPOLOGY_IDS[0]}"]
    assert dict(digests[0], report_sha256=golden["report_sha256"]) == golden


@pytest.mark.parametrize("topology,topology_id", PRESETS, ids=TOPOLOGY_IDS)
def test_mcast_jitter_loss_matches_golden(topology, topology_id):
    digest = mcast_digest(topology)
    assert digest == _load()["mcast"][topology_id]
    assert digest["dropped_messages"] > 0, "loss injection dropped nothing"
    assert digest["delivered_messages"] > 0


def test_credit_every_message_matches_golden():
    """Multi-MTU messages interleaved with a credit grant per message."""
    assert shuffle_digest("MEMQ/SR", TOPOLOGIES[0], credit_frequency=1) == \
        _load()["credit_frequency_1"]


def collect():
    """Every golden entry, recomputed from the current tree."""
    return {
        "shuffle": {
            f"{design}@{topology_id}": shuffle_digest(design, topology)
            for design in DESIGN_NAMES for topology, topology_id in PRESETS
        },
        "mcast": {topology_id: mcast_digest(topology)
                  for topology, topology_id in PRESETS},
        "credit_frequency_1": shuffle_digest("MEMQ/SR", TOPOLOGIES[0],
                                             credit_frequency=1),
    }


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(collect(), fh, indent=2, sort_keys=True)
        fh.write("\n")
