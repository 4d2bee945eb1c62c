"""The two invariants that let ``Simulator._drain`` pause the collector.

(1) A run creates no reference cycles: with the cyclic collector off,
    everything a run allocates and drops is freed by reference counting,
    so a collection afterwards — cluster still alive — finds nothing.
(2) ``Cluster.dispose()`` leaves none either: once the disposed cluster
    is dropped, reference counting frees all of it (the per-design cases
    live in ``tests/test_cluster_dispose.py``).

Both are counted the same way, by :func:`unreachable_after`.
"""

import gc

import pytest

from repro import Cluster, ClusterConfig, EDR, FDR
from repro.bench.experiments import _mesoscale_config
from repro.bench.workloads import (
    run_broadcast,
    run_hierarchical,
    run_repartition,
)
from repro.core.designs import DESIGNS
from repro.fabric.config import LEAF_SPINE
from repro.fabric.packet import make_train
from repro.service import FairSharePolicy, ShuffleService, TenantSpec
from repro.sim import Simulator
from repro.tpch import generate, run_query
from tests.test_golden_digests import MCAST_NETWORK, mcast_blast

RUNNERS = {"repartition": run_repartition, "broadcast": run_broadcast}


def unreachable_after(fn) -> int:
    """Call ``fn()`` with the cyclic collector off and return how many
    unreachable objects a full collection then finds, while whatever
    ``fn`` returned is still alive.  Zero means reference counting alone
    freed everything the call dropped."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        kept = fn()
        found = gc.collect()
        del kept
        return found
    finally:
        if was_enabled:
            gc.enable()


def make_cluster(nodes=4, network=EDR, **kwargs):
    return Cluster(ClusterConfig(network=network, num_nodes=nodes,
                                 threads_per_node=2, **kwargs))


def test_helper_reports_a_planted_cycle():
    """The route-walker shape gone wrong: a callback that reschedules
    itself by name is a closure cell pointing at its own function.  The
    helper must see it, or a zero below proves nothing."""
    def run():
        sim = Simulator()
        hops = [3, 2, 1]

        def step() -> None:
            if hops:
                sim.call_later(hops.pop(), step)

        sim.call_later(1, step)
        sim.run()
        return sim

    assert unreachable_after(run) > 0


@pytest.mark.parametrize("pattern", sorted(RUNNERS))
@pytest.mark.parametrize("design", list(DESIGNS))
def test_shuffle_run_creates_no_cycles(design, pattern, volume=1 << 20):
    def run():
        cluster = make_cluster()
        RUNNERS[pattern](cluster, design, bytes_per_node=volume)
        return cluster

    assert unreachable_after(run) == 0


@pytest.mark.parametrize("design", ["MESQ/SR", "MEMQ/RD", "MPI"])
def test_cycle_count_does_not_depend_on_volume(design):
    test_shuffle_run_creates_no_cycles(design, "repartition", volume=4 << 20)


def hierarchical_run():
    cluster = make_cluster(nodes=8, topology=LEAF_SPINE(2, 4))
    result = run_hierarchical(cluster, "MESQ/SR", bytes_per_node=2 << 20,
                              config=_mesoscale_config(4096))
    assert result.design.endswith("/hier(x2)"), result.design
    return cluster


def mcast_loss_jitter_run():
    cluster = Cluster(ClusterConfig(network=EDR, num_nodes=8)
                      .with_network(**MCAST_NETWORK))
    mcast_blast(cluster.sim, cluster.fabric)
    assert cluster.fabric.dropped_messages > 0
    return cluster


def mcast_leaf_spine_run():
    """Multicast from leaf 0 to the members of leaf 1: the trunk's
    flight crosses a switch port before it hands over to one leg
    flight per member."""
    cluster = Cluster(ClusterConfig(network=EDR, num_nodes=8,
                                    topology=LEAF_SPINE(2, 4))
                      .with_network(**MCAST_NETWORK))
    fabric = cluster.fabric
    members = range(4, 8)
    for node in members:
        fabric.mcast_attach(7, node, 200 + node)
    outcomes = []
    for _ in range(16):
        fabric.route_mcast(
            make_train(cluster.config.network, src_node=0, dst_node=0,
                       src_qpn=11, dst_qpn=0, kind="SEND", length=2048,
                       transport="UD"),
            7, outcomes.append)
    cluster.run()
    assert len(outcomes) == 16 * len(members)
    return cluster


def tpch_run(design):
    cluster = make_cluster()
    run_query(cluster, "Q3", generate(0.01, 4, seed=42), design=design)
    return cluster


def service_run():
    """Three tenants, two jobs each: per-job stages are built, disposed
    and dropped while the cluster lives on."""
    fast = dict(bytes_per_job=256 << 10, mean_interarrival_ns=1_000_000,
                jobs=2)
    cluster = make_cluster(network=FDR)
    report = ShuffleService(
        cluster,
        [TenantSpec(name="a", design="MESQ/SR", **fast),
         TenantSpec(name="b", design="MEMQ/SR", **fast),
         TenantSpec(name="c", design="MEMQ/RD", **fast)],
        policy=FairSharePolicy()).run()
    assert report["failed"] == []
    assert len(report["completion_order"]) == 6
    return cluster


def observed_run():
    """Tracer, link records and sanitizer all on."""
    cluster = make_cluster()
    cluster.enable_tracing()
    cluster.enable_reporting()
    cluster.enable_sanitizer()
    run_repartition(cluster, "SEMQ/SR", bytes_per_node=1 << 20)
    assert cluster.run_report()["sanitizer"]["violations"] == 0
    return cluster


SCENARIOS = {
    "hierarchical": hierarchical_run,
    "mcast-loss-jitter": mcast_loss_jitter_run,
    "mcast-leaf-spine": mcast_leaf_spine_run,
    "tpch-MESQ/SR": lambda: tpch_run("MESQ/SR"),
    "tpch-MPI": lambda: tpch_run("MPI"),
    "service": service_run,
    "observed": observed_run,
}


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_scenario_creates_no_cycles(name):
    assert unreachable_after(SCENARIOS[name]) == 0


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_scenario_cluster_is_freed_by_dispose(name):
    """Beyond the per-design cases: switch graphs, baseline stacks, the
    regions a per-job ``ShuffleStage.dispose()`` deregistered, and the
    Telemetry bundle with its sanitizer and every recorded interval."""
    def run():
        SCENARIOS[name]().dispose()

    assert unreachable_after(run) == 0
