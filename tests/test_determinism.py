"""Determinism regression: two identical runs must be bit-identical.

The simulator is a deterministic discrete-event machine: with the same
cluster configuration, design and input, every metric and every trace
event must come out the same.  The transport-runtime refactor (and any
future one) must not perturb process spawn order, yield sequences, or
dict iteration order — this suite catches that class of regression for
all five endpoint kinds.
"""

import itertools
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
from repro.bench.experiments import (
    HIER_NODES_PER_LEAF,
    HIER_OVERSUBSCRIPTION,
    _mesoscale_config,
)
from repro.bench.workloads import run_hierarchical, run_repartition
from repro.core import ReceiveOperator, ShuffleOperator
from repro.core.shuffle import striped_partitioner
from repro.engine import CollectSink, QueryFragment, run_fragments
from repro.engine.scan import ScanOperator
from repro.fabric import LEAF_SPINE, Fabric, Packet
from repro.sim import Simulator

DTYPE = np.dtype([("a", np.int64), ("b", np.int64)])

DESIGN_NAMES = ["MEMQ/SR", "MESQ/SR", "MEMQ/RD", "MEMQ/WR", "MESQ/SR+MC"]

#: interpreter self-counters that measure the host cost of a run, not its
#: simulated result; exempt wherever a run is compared with its golden
#: digest.
SIM_SELF_COUNTERS = {
    "sim.events_dispatched",
    "sim.process_wakeups",
    "sim.processes_started",
    "sim.max_queue_depth",
}


def _comparable(snapshot):
    """The snapshot minus the exempt interpreter self-counters."""
    fabric = {k: v for k, v in snapshot["fabric"].items()
              if k not in SIM_SELF_COUNTERS}
    return dict(snapshot, fabric=fabric)


def run_once(design, nodes=2, threads=2, rows_per_node=1500, report=False):
    """One complete small shuffle; returns (metrics snapshot, span count,
    simulated end time[, report JSON])."""
    cluster = Cluster(ClusterConfig(network=EDR, num_nodes=nodes,
                                    threads_per_node=threads))
    tracer = cluster.enable_tracing()
    if report:
        cluster.enable_reporting()
    groups = TransmissionGroups.repartition(nodes)
    cfg = EndpointConfig(message_size=4096)
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
    cluster.run_process(run_fragments(cluster.sim, fragments))
    cluster.run()  # drain trailing completions
    got = sum(len(s.result()) for s in sinks if s.result() is not None)
    assert got == nodes * rows_per_node
    if report:
        report_json = json.dumps(cluster.run_report(), sort_keys=True)
        return (cluster.metrics_snapshot(), len(tracer.events),
                cluster.sim.now, report_json)
    return cluster.metrics_snapshot(), len(tracer.events), cluster.sim.now


@pytest.mark.parametrize("design", DESIGN_NAMES)
def test_identical_runs_produce_identical_telemetry(design):
    first = run_once(design)
    second = run_once(design)
    assert first[2] == second[2], "simulated end times diverge"
    assert first[1] == second[1], "trace span counts diverge"
    assert first[0] == second[0], "metrics snapshots diverge"


@pytest.mark.parametrize("design", DESIGN_NAMES)
def test_identical_runs_produce_byte_identical_reports(design):
    """RunReports contain only simulated-time quantities, so two identical
    runs must serialize to the exact same bytes (the property the
    ``repro.obs diff`` gate and committed CI baselines rely on)."""
    first = run_once(design, report=True)
    second = run_once(design, report=True)
    assert first[2] == second[2], "simulated end times diverge"
    assert first[3] == second[3], "run reports diverge"


def _hierarchical_point(first_id=1):
    """The two-phase row of ``abl-adaptive`` at 8 nodes; returns the
    simulated transfer time."""
    cluster = Cluster(ClusterConfig(network=EDR, num_nodes=8).with_topology(
        LEAF_SPINE(HIER_OVERSUBSCRIPTION, HIER_NODES_PER_LEAF)))
    cluster.fabric.endpoint_ids = itertools.count(first_id)
    result = run_hierarchical(
        cluster, "MESQ/SR", bytes_per_node=2 << 20,
        config=_mesoscale_config(4096))
    cluster.dispose()
    return result.elapsed_ns


def test_results_do_not_depend_on_process_history():
    """Endpoint ids are per cluster: a stage built earlier on another
    cluster (98 ids here) cannot move a later run's last digits."""
    fresh = _hierarchical_point()
    other = Cluster(ClusterConfig(network=EDR, num_nodes=7,
                                  threads_per_node=7))
    stage = other.shuffle_stage("MEMQ/SR", TransmissionGroups.repartition(7))
    assert sum(len(eps) for eps in (*stage.send_endpoints.values(),
                                    *stage.recv_endpoints.values())) == 98
    assert _hierarchical_point() == fresh


@pytest.mark.parametrize("first_id", [2, 17, 100, 1000, 4097])
def test_results_do_not_depend_on_endpoint_id_values(first_id):
    """The root cause behind the test above: the SR/UD credit keepalive
    once iterated a *set* of endpoint ids, so credit datagrams left in
    integer-hash order and the id values leaked into the timing."""
    assert _hierarchical_point(first_id) == _hierarchical_point()


#: host cost per message, pinned exactly (8 nodes, EDR, 8 MiB per node,
#: stage setup included): (sim.events_dispatched, sim.process_wakeups,
#: ep.messages_sent).  Heap entries / wakeups per message are SEMQ/SR
#: 20.2 / 9.5, MESQ/SR 13.4 / 7.5, MEMQ/RD 42.4 / 10.5, MPI 25.8 / 10.1.
#: Every entry is a time advance or a blocked thread's wakeup; a
#: same-instant hop that comes back as its own queue entry, or a CPU
#: wakeup that appears or vanishes, moves these counts while every
#: simulated result may hold.
EVENTS_PER_MESSAGE = {
    "SEMQ/SR": (20646, 9689, 1024),
    "MESQ/SR": (220274, 122898, 16384),
    "MEMQ/RD": (43400, 10713, 1024),
    "MPI": (26407, 10309, 1024),
}


@pytest.mark.parametrize("design", sorted(EVENTS_PER_MESSAGE))
def test_heap_entries_per_message(design):
    cluster = Cluster(ClusterConfig(network=EDR, num_nodes=8))
    run_repartition(cluster, design, bytes_per_node=8 << 20)
    snapshot = cluster.metrics_snapshot()
    messages = sum(node.get("ep.messages_sent", 0)
                   for node in snapshot["nodes"].values())
    sim = cluster.sim
    cluster.dispose()
    assert (sim.events_dispatched, sim.process_wakeups,
            messages) == EVENTS_PER_MESSAGE[design]


def test_multicast_legs_leave_in_attach_order():
    """Group members are kept in attach order (a re-attached member goes
    last), not in the hash order of their ``(node, qpn)`` keys: without
    jitter every leg lands at one instant, in the order it left."""
    sim = Simulator()
    fabric = Fabric(sim, ClusterConfig(network=EDR, num_nodes=8).with_network(
        ud_jitter_ns=0, ud_loss_probability=0.0))
    for node, qpn in [(5, 300), (2, 17), (7, 9), (1, 120), (6, 4), (3, 55)]:
        fabric.mcast_attach(3, node, qpn)
    fabric.mcast_detach(3, 2, 17)
    fabric.mcast_attach(3, 2, 17)
    legs = []
    fabric.route_mcast(Packet(0, 0, 11, 0, "SEND", 2048, 2108), 3,
                       lambda copy: legs.append((sim.now, copy.dst_node,
                                                 copy.dst_qpn)))
    sim.run()
    assert len({when for when, _node, _qpn in legs}) == 1
    assert [leg[1:] for leg in legs] == [
        (5, 300), (7, 9), (1, 120), (6, 4), (3, 55), (2, 17)]


def test_mpi_rendezvous_does_not_depend_on_process_history():
    """Rendezvous request ids are per MPI runtime, like endpoint ids are
    per fabric: an MPI run that came earlier in the process (of another
    size, so it drew another number of ids) cannot move a later one."""
    def point(mib):
        cluster = Cluster(ClusterConfig(network=EDR, num_nodes=4,
                                        threads_per_node=2))
        result = run_repartition(cluster, "MPI", bytes_per_node=mib << 20)
        cluster.dispose()
        return result.elapsed_ns

    fresh = point(2)
    point(1)
    assert point(2) == fresh
