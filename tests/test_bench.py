"""Tests for the benchmark harness: workloads, report, experiments, CLI."""

import inspect
import json

import pytest

from repro import Cluster, ClusterConfig, EDR
from repro.bench.report import ExperimentResult, Series, render
from repro.bench.workloads import (
    ShuffleRunResult,
    run_broadcast,
    run_repartition,
)
from repro.bench.compare import breached, compare
from repro.bench.compare import main as compare_main
from repro.bench.experiments import (
    ALL_EXPERIMENTS,
    _scaleout_volume,
    table1,
)
from repro.bench.cli import main as cli_main
from repro.core.synthetic import make_template_batch

MIB = 1 << 20


def small_cluster(nodes=2, threads=2):
    return Cluster(ClusterConfig(network=EDR, num_nodes=nodes,
                                 threads_per_node=threads))


class TestWorkloads:
    def test_template_batch_shape(self):
        batch = make_template_batch(rows=128)
        assert len(batch) == 128
        assert batch.dtype.itemsize == 16  # two long integers (§5.1)

    def test_repartition_moves_all_bytes(self):
        cluster = small_cluster()
        result = run_repartition(cluster, "SEMQ/SR", bytes_per_node=2 * MIB)
        assert result.total_received_bytes == 2 * 2 * MIB
        assert result.pattern == "repartition"
        assert result.receive_throughput_gib_per_node() > 0

    def test_broadcast_multiplies_bytes(self):
        cluster = small_cluster(nodes=3)
        result = run_broadcast(cluster, "SEMQ/SR", bytes_per_node=1 * MIB)
        # each node's data reaches the other two nodes.
        assert result.total_received_bytes == 3 * 2 * 1 * MIB
        assert result.pattern == "broadcast"

    def test_result_metrics(self):
        result = ShuffleRunResult(
            design="X", pattern="repartition", network="EDR", num_nodes=2,
            threads=2, bytes_per_node=1, elapsed_ns=1_000_000_000,
            setup_ns=0, total_received_bytes=2 << 30,
            total_received_rows=10, registered_bytes_per_node=0,
            qps_per_node=0, messages_sent=0, recv_data_wait_ns=0,
            send_credit_wait_ns=0,
        )
        assert result.receive_throughput_gib_per_node() == 1.0
        assert result.response_time_ms() == 1000.0
        assert result.receiver_busy_fraction() == 1.0

    def test_busy_fraction_counts_waits(self):
        result = ShuffleRunResult(
            design="X", pattern="repartition", network="EDR", num_nodes=1,
            threads=2, bytes_per_node=1, elapsed_ns=100,
            setup_ns=0, total_received_bytes=0, total_received_rows=0,
            registered_bytes_per_node=0, qps_per_node=0, messages_sent=0,
            recv_data_wait_ns=100, send_credit_wait_ns=0,
        )
        assert result.receiver_busy_fraction() == 0.5

    def test_compute_lowers_throughput(self):
        cluster = small_cluster()
        fast = run_repartition(cluster, "SEMQ/SR", bytes_per_node=2 * MIB)
        cluster = small_cluster()
        slow = run_repartition(cluster, "SEMQ/SR", bytes_per_node=2 * MIB,
                               compute_ns_per_batch=50_000)
        assert (slow.receive_throughput_gib_per_node() <
                fast.receive_throughput_gib_per_node())


class TestReport:
    def make_result(self):
        return ExperimentResult(
            experiment="figX", title="Demo", x_label="n", x=[1, 2],
            y_label="GiB/s",
            series=[Series("a", [1.5, 2.5]), Series("b", [3.0, 4.0])],
            notes="hello",
        )

    def test_render_contains_everything(self):
        text = render(self.make_result())
        assert "figX" in text and "Demo" in text
        assert "1.50" in text and "4.00" in text
        assert "note: hello" in text

    def test_series_lookup(self):
        result = self.make_result()
        assert result.series_by_label("a").y == [1.5, 2.5]
        assert result.value("b", 2) == 4.0
        with pytest.raises(KeyError):
            result.series_by_label("nope")

    def test_render_tolerates_missing_points(self):
        result = ExperimentResult(
            experiment="f", title="t", x_label="x", x=[1, 2],
            y_label="y", series=[Series("s", [1.0])])
        assert "-" in render(result)


class TestExperiments:
    def test_table1_values(self):
        result = table1(nodes=16, threads=8)
        assert result.value("QPs/op", "MEMQ/SR") == 128
        assert result.value("QPs/op", "SESQ/SR") == 1

    def test_cli_runs_table1(self, capsys, tmp_path):
        out = tmp_path / "r.json"
        rc = cli_main(["table1", "--json", str(out)])
        assert rc == 0
        captured = capsys.readouterr()
        assert "Design alternatives" in captured.out
        data = json.loads(out.read_text())
        assert data["schema"]["name"] == "repro-bench-results"
        assert data["schema"]["version"] >= 2
        assert data["scale"] == 1.0
        exp = data["experiments"][0]
        assert exp["name"] == "table1"
        assert exp["wall_clock_s"] >= 0
        assert exp["results"][0]["experiment"] == "table1"
        # table1 builds no cluster, so there is nothing to digest.
        assert exp["metrics_digest"] is None

    def test_cli_metrics_and_trace(self, tmp_path):
        metrics = tmp_path / "m.json"
        trace = tmp_path / "t.json"
        rc = cli_main(["fig12", "--metrics", str(metrics),
                       "--trace", str(trace)])
        assert rc == 0
        mdoc = json.loads(metrics.read_text())
        assert mdoc["schema"]["name"] == "repro-telemetry-metrics"
        runs = mdoc["experiments"][0]["runs"]
        assert runs and all("nic.qp_cache.hits" in node
                            for snap in runs
                            for node in snap["nodes"].values())
        tdoc = json.loads(trace.read_text())
        assert "traceEvents" in tdoc

    def test_cli_rejects_unknown(self):
        with pytest.raises(SystemExit):
            cli_main(["figZZ"])

    def test_cli_no_args_shows_help(self, capsys):
        assert cli_main([]) == 2

    def test_cli_nodes_override(self, capsys, tmp_path):
        out = tmp_path / "r.json"
        rc = cli_main(["fig12", "--nodes", "4", "--json", str(out)])
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["schema"]["version"] >= 4
        assert data["nodes"] == 4
        # The node-count sweep collapses to the one requested size.
        assert data["experiments"][0]["results"][0]["x"] == [4]

    def test_cli_nodes_rejects_degenerate_cluster(self):
        with pytest.raises(SystemExit):
            cli_main(["fig12", "--nodes", "1"])

    def test_cli_nodes_rejects_single_leaf_two_phase(self, capsys):
        """abl-hierarchical schedules inter-leaf traffic: one four-node
        leaf used to die with ZeroDivisionError mid-run."""
        with pytest.raises(SystemExit):
            cli_main(["abl-adaptive", "--nodes", "4"])
        assert ("abl-hierarchical needs more than one leaf: --nodes > 4"
                in capsys.readouterr().err)

    def test_cli_digests_runs_whose_clusters_were_disposed(self, capsys):
        """svc-tenants disposes each cluster as soon as its service run
        ends; the telemetry line used to read "qp-cache miss 0.0% (0/0)"."""
        assert cli_main(["svc-tenants", "--scale", "0.01", "--nodes", "2",
                         "--tenants", "2"]) == 0
        out = capsys.readouterr().out
        assert "telemetry[9 runs]" in out
        assert "(0/0)" not in out

    def test_every_entry_has_one_call_shape(self):
        for name, entry in ALL_EXPERIMENTS.items():
            assert list(inspect.signature(entry).parameters) == ["opts"], name

    def test_cli_lists_the_absorbed_experiments(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["--help"])
        listed = "".join(capsys.readouterr().out.split())
        for name in ("abl-buffer-depth", "abl-qp-cache", "ext-multicast",
                     "ext-write"):
            assert name in ALL_EXPERIMENTS and name in listed

    def test_nodes_rules(self):
        """The three ways ``--nodes`` applies, as each entry declares."""
        fixed = ALL_EXPERIMENTS["fig11"].nodes
        assert fixed(None) == 16 and fixed(4) == 4
        collapse = ALL_EXPERIMENTS["fig12"].nodes
        assert collapse(None) == (2, 4, 6, 8, 10, 12, 14, 16)
        assert collapse(4) == (4,)
        truncate = ALL_EXPERIMENTS["fig10-scaleout"].nodes
        assert truncate(None) == (64, 128, 256, 512, 1024)
        assert truncate(128) == (64, 128)
        assert truncate(1024) == (64, 128, 256, 512, 1024)
        # Off-grid sizes run alone rather than silently rounding.
        assert truncate(100) == (100,)

    def test_scaleout_volume_decays_but_floors(self):
        assert _scaleout_volume(64, 1.0) == 32 * MIB
        assert _scaleout_volume(256, 1.0) == 2 * MIB
        assert _scaleout_volume(1024, 1.0) == 256 << 10  # the floor
        assert _scaleout_volume(64, 0.25) == 8 * MIB
        assert _scaleout_volume(128, 1.0) == 8 * MIB


def _bench_doc(**values):
    return {"benchmarks": {
        name: {"value": value,
               "higher_is_better": name != "wall_clock_s",
               "unit": "x/s"}
        for name, value in values.items()
    }}


class TestCompare:
    def test_within_threshold_passes(self):
        base = _bench_doc(kernel_events_per_sec=100.0)
        fresh = _bench_doc(kernel_events_per_sec=90.0)
        assert compare(base, fresh, threshold=0.25) == []

    def test_regression_is_direction_aware(self):
        base = _bench_doc(kernel_events_per_sec=100.0, wall_clock_s=10.0)
        fresh = _bench_doc(kernel_events_per_sec=50.0, wall_clock_s=20.0)
        failures = compare(base, fresh, threshold=0.25)
        assert breached(failures) == ["kernel_events_per_sec",
                                      "wall_clock_s"]
        assert "dropped" in failures[0] and "rose" in failures[1]

    def test_breached_names_missing_benchmark(self):
        base = _bench_doc(fabric_train_events_per_sec=100.0)
        failures = compare(base, _bench_doc())
        assert breached(failures) == ["fabric_train_events_per_sec"]

    def test_main_names_breaching_benchmarks(self, capsys, tmp_path):
        base_path = tmp_path / "base.json"
        fresh_path = tmp_path / "fresh.json"
        base_path.write_text(json.dumps(
            _bench_doc(kernel_events_per_sec=100.0, steady_metric=50.0)))
        fresh_path.write_text(json.dumps(
            _bench_doc(kernel_events_per_sec=10.0, steady_metric=50.0,
                       brand_new_metric=1.0)))
        rc = compare_main([str(base_path), str(fresh_path)])
        captured = capsys.readouterr()
        assert rc == 1
        assert "breached by kernel_events_per_sec" in captured.err
        assert "steady_metric" not in captured.err.split("breached by")[1]
        # Fresh-only benchmarks are reported, not gated.
        assert "n/a (new)" in captured.out

    def test_main_passes_clean_run(self, capsys, tmp_path):
        base_path = tmp_path / "base.json"
        fresh_path = tmp_path / "fresh.json"
        base_path.write_text(json.dumps(_bench_doc(m=100.0)))
        fresh_path.write_text(json.dumps(_bench_doc(m=101.0)))
        assert compare_main([str(base_path), str(fresh_path)]) == 0
        assert "perf gate passed" in capsys.readouterr().out
