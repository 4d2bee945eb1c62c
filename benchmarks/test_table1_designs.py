"""Table 1: the design-property matrix, cross-checked against live stages."""

from conftest import run_once, show

from repro.bench.experiments import table1
from repro.cluster import Cluster
from repro.core.groups import TransmissionGroups
from repro.fabric.config import EDR, ClusterConfig


def test_table1(benchmark):
    result = run_once(benchmark, table1, nodes=16, threads=8)
    show(result)
    qps = dict(zip(result.x, result.series_by_label("QPs/op").y))
    assert qps["MEMQ/SR"] == 16 * 8
    assert qps["SEMQ/SR"] == 16
    assert qps["MESQ/SR"] == 8
    assert qps["SESQ/SR"] == 1

    # Verify the static Table-1 counts against QPs actually created by a
    # live stage (send + receive operators on one node).
    for name, per_table in qps.items():
        cluster = Cluster(ClusterConfig(network=EDR, num_nodes=16,
                                        threads_per_node=8))
        stage = cluster.shuffle_stage(
            name, TransmissionGroups.repartition(16))
        cluster.run_process(stage.setup())  # QPs are created at setup
        assert stage.qps_created(0) == 2 * per_table, name
