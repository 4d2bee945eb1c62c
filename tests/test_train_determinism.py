"""Reference check for flow-level packet trains.

Every pipe charges one message's back-to-back MTU packets in a single
event; the per-packet reference (``Fabric.use_packet_oracle()``) ticks
every MTU boundary instead.  Everything a user
can measure — simulated end times, modeled metrics, trace span counts,
critical-path attribution — must come out bit-identical, for every
endpoint design on every topology preset.  Only the four interpreter
self-counters may differ (the oracle legitimately dispatches more
events — that surplus *is* the event reduction the train abstraction
buys, asserted at the bottom).

The shuffles here use 64 KiB messages on the RC designs so that real
multi-packet trains (16 MTU packets each) cross the fabric; the UD
designs are MTU-bound by the verbs layer, so their datagrams are
single-packet trains by construction and pin down the n==1 boundary.
"""

import json

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
from repro.fabric import DUAL_RAIL, LEAF_SPINE, SINGLE_SWITCH
from tests.test_determinism import (
    DESIGN_NAMES,
    SIM_SELF_COUNTERS,
    _comparable,
)

DTYPE = np.dtype([("a", np.int64), ("b", np.int64)])

#: UD transports cap messages at the MTU; RC designs get 64 KiB messages
#: (16-packet trains at the 4 KiB MTU).
UD_DESIGNS = {"MESQ/SR", "MESQ/SR+MC"}

TOPOLOGIES = [SINGLE_SWITCH, LEAF_SPINE(oversubscription=2), DUAL_RAIL]
TOPOLOGY_IDS = ["single-switch", "leaf-spine", "dual-rail"]


#: the points of :func:`run_shuffle` at which the observers can be
#: switched on; nothing simulated has happened before the last of them.
OBSERVE_AT = ("cluster-built", "stage-built", "setup-done")


def run_shuffle(design, topology=SINGLE_SWITCH, nodes=2, threads=2,
                credit_frequency=None, oracle=False,
                observe_at="cluster-built", sanitize=False):
    """One small shuffle with train-sized messages; returns
    ``(metrics snapshot, span count, end time, report JSON,
    delivered_messages, delivered_packets)``.  ``oracle`` runs it on the
    per-packet reference instead of packet trains.  Tracing and
    reporting (and, with ``sanitize``, the sanitizer, which must then
    stay silent) are enabled at ``observe_at``."""
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
    if oracle:
        cluster.fabric.use_packet_oracle()
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
        # RC designs — that is what makes the trains multi-packet.
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
            cluster.sim.now, report_json, cluster.fabric.delivered_messages,
            cluster.fabric.delivered_packets)


@pytest.mark.parametrize("topology", TOPOLOGIES, ids=TOPOLOGY_IDS)
@pytest.mark.parametrize("design", DESIGN_NAMES)
def test_trains_match_per_packet_oracle(design, topology):
    train = run_shuffle(design, topology)
    oracle = run_shuffle(design, topology, oracle=True)
    assert train[2] == oracle[2], "simulated end times diverge"
    assert train[1] == oracle[1], "trace span counts diverge"
    assert _comparable(train[0]) == _comparable(oracle[0]), \
        "modeled metrics diverge"
    assert train[3] == oracle[3], "critical-path attribution diverges"
    assert train[4:] == oracle[4:], "delivery accounting diverges"
    if design not in UD_DESIGNS:
        # The RC shuffles must actually move multi-packet trains, and the
        # oracle must pay for them in dispatched events — the surplus the
        # train abstraction removes.
        assert train[5] > train[4], "no multi-packet trains were routed"
        events = "sim.events_dispatched"
        assert oracle[0]["fabric"][events] > train[0]["fabric"][events]


def test_exempt_counters_are_the_only_divergence():
    """Sanity check on the exemption set: everything the oracle changes
    is one of the four interpreter self-counters."""
    train = run_shuffle("MEMQ/SR")
    oracle = run_shuffle("MEMQ/SR", oracle=True)
    diverged = {k for k in train[0]["fabric"]
                if train[0]["fabric"][k] != oracle[0]["fabric"].get(k)}
    assert diverged, "oracle should dispatch extra no-op events"
    assert diverged <= SIM_SELF_COUNTERS


def test_train_crossing_credit_grant():
    """Boundary case: with a credit granted back after every message,
    multi-packet trains interleave with credit traffic at every pipe;
    the oracle must still be bit-identical."""
    train = run_shuffle("MEMQ/SR", credit_frequency=1)
    oracle = run_shuffle("MEMQ/SR", credit_frequency=1, oracle=True)
    assert train[2] == oracle[2], "simulated end times diverge"
    assert _comparable(train[0]) == _comparable(oracle[0])
    assert train[3] == oracle[3], "critical-path attribution diverges"
