"""Cluster.dispose() lifecycle: idempotence, use-after-dispose, and the
zero-remainder contract (a disposed cluster holds no reference cycle)."""

import pytest

from repro import Cluster, ClusterConfig, EDR, TransmissionGroups
from repro.bench.workloads import run_repartition
from repro.core.designs import DESIGNS
from repro.telemetry.session import session
from tests.test_collector_free import unreachable_after


def make_cluster(nodes=3, threads=2):
    return Cluster(ClusterConfig(network=EDR, num_nodes=nodes,
                                 threads_per_node=threads))


def test_dispose_is_idempotent():
    cluster = make_cluster()
    assert not cluster.disposed
    cluster.dispose()
    assert cluster.disposed
    cluster.dispose()  # second call is a no-op, not an error
    assert cluster.disposed


def test_dispose_after_real_run():
    cluster = make_cluster()
    stage = cluster.shuffle_stage(
        "MESQ/SR", TransmissionGroups.repartition(cluster.num_nodes))
    cluster.run_process(stage.setup(), name="setup")
    stage.dispose()
    cluster.dispose()
    cluster.dispose()
    assert cluster.disposed


@pytest.mark.parametrize("nodes", [4, 8])
@pytest.mark.parametrize("design", list(DESIGNS))
def test_disposed_cluster_is_freed_by_reference_counting(design, nodes):
    """After ``dispose()`` and dropping the cluster, a full collection
    finds nothing: no QP, buffer or endpoint waits for the collector,
    and the count does not depend on the node count."""
    def run():
        cluster = make_cluster(nodes=nodes)
        run_repartition(cluster, design, bytes_per_node=1 << 20)
        cluster.dispose()

    assert unreachable_after(run) == 0


def test_run_after_dispose_raises():
    cluster = make_cluster()
    cluster.dispose()
    with pytest.raises(RuntimeError, match="disposed"):
        cluster.run()


def test_run_process_after_dispose_raises():
    cluster = make_cluster()
    cluster.dispose()

    def nop():
        yield 1

    with pytest.raises(RuntimeError, match="disposed"):
        cluster.run_process(nop(), name="nop")


def test_disposed_cluster_still_reports_its_telemetry():
    """dispose() seals the telemetry first: an experiment may dispose its
    clusters before the session checkpoints (fabric.nodes is empty by
    then) without losing a counter."""
    with session(report=True) as sess:
        cluster = make_cluster(nodes=2)
        run_repartition(cluster, "SEMQ/SR", bytes_per_node=2 << 20)
        before = cluster.metrics_snapshot()
        report = cluster.run_report()
        cluster.dispose()
        assert cluster.metrics_snapshot() == before
        assert cluster.run_report() == report
        digest = sess.checkpoint("x")
    assert digest["qp_cache_hits"] > 0
    (record,) = sess.records
    assert record["runs"] == [before] and before["nodes"]
    assert sess.reports[0]["runs"] == [report]
