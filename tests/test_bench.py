"""Tests for the benchmark harness: workloads, report, experiments, CLI."""

import dataclasses
import functools
import inspect
import json

import pytest

from repro import Cluster, ClusterConfig, EDR
from repro.bench.kernel import (
    bench_dispatch_events,
    bench_fabric_packets,
    bench_process_wakeups,
    bench_train_events,
)
from repro.bench.report import ExperimentResult, Series, render
from repro.bench.workloads import (
    ShuffleRunResult,
    run_broadcast,
    run_repartition,
)
from repro.bench.experiments import (
    ALL_EXPERIMENTS,
    Options,
    Point,
    _scaleout_volume,
    table1,
)
from repro.bench.cli import main as cli_main
from repro.core.synthetic import make_template_batch

MIB = 1 << 20

#: one bad value per checked NetworkConfig field.  On a 2-node 1 MiB
#: point a loss probability of 1.5 never finished MESQ/SR, and a
#: negative jitter, latency or copy cost, a zero MTU, a negative header
#: or a zero queue depth each failed only mid-run or at setup.
BAD_NETWORK = [
    ("ud_loss_probability", 1.5), ("ud_loss_probability", -0.5),
    ("ipoib_efficiency", 0.0), ("ipoib_efficiency", 1.5),
    ("mtu", 0), ("mtu", 63),
] + [(field, -1) for field in (
    "switch_latency_ns", "rc_header_bytes", "ud_header_bytes",
    "rc_ack_bytes", "nic_wr_ns", "qp_cache_miss_ns", "rc_qp_connect_ns",
    "ud_qp_setup_ns", "ah_create_ns", "mr_register_base_ns",
    "mr_register_ns_per_page", "cpu_scale", "hash_ns_per_tuple",
    "copy_ns_per_byte", "post_wr_ns", "poll_cq_ns", "endpoint_send_ns",
    "tcp_ns_per_byte", "tcp_syscall_ns", "mpi_eager_threshold",
    "mpi_overhead_ns", "mpi_copy_ns_per_byte", "ud_jitter_ns",
)] + [(field, 0) for field in (
    "qp_cache_entries", "max_qp_depth", "cores_per_node")]


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

    # The UD designs stay out: their drain watches are started per
    # straggling source, so the count follows the jitter draws.
    @pytest.mark.parametrize("design", [
        "MEMQ/RD", "MEMQ/SR", "SEMQ/RD", "SEMQ/SR", "MEMQ/WR", "SEMQ/WR",
        "MPI", "IPoIB"])
    def test_messages_start_no_process(self, design):
        """Threads start processes, messages do not: every READ, ring
        WRITE and credit WRITE is a callback chain on the QP, and so is
        every MPI runtime message and TCP segment of the baselines."""
        def processes(bytes_per_node):
            cluster = small_cluster()
            run_repartition(cluster, design, bytes_per_node=bytes_per_node)
            cluster.run()  # trailing completions
            return cluster.sim.processes_started

        assert processes(1 * MIB) == processes(4 * MIB)

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
        result = table1(Options(), 16)
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
        assert exp["gc_passes"] >= 0
        assert f"{exp['gc_passes']} gc passes]" in captured.err
        assert exp["peak_rss_mib"] > 0
        assert "peak RSS " in captured.err
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

    def test_cli_rejects_non_positive_scale_before_running(self, capsys):
        """``--scale 0`` used to print table1, then die in the first
        shuffle figure; a negative scale was silently floored there."""
        for scale in ("0", "-0.5"):
            with pytest.raises(SystemExit) as exc:
                cli_main(["table1", "fig14a", "--scale", scale])
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert "scale must be a finite real > 0" in captured.err
            assert captured.out == ""

    @pytest.mark.parametrize("bad, message", [
        (dict(tenants=1), "tenants must be an int >= 2"),
        (dict(scale=0.0), "scale must be a finite real > 0"),
        (dict(policy="zzz"), "unknown policy 'zzz'"),
    ], ids=["tenants", "scale", "policy"])
    def test_options_reject_bad_values_at_construction(self, bad, message):
        """svc-tenants with one tenant used to simulate for seconds and
        then die on an empty aggressor list, and an unknown policy
        constructed."""
        with pytest.raises(ValueError, match=f"^{message}"):
            Options(**bad)

    @pytest.mark.parametrize("build, field", [
        (lambda: Point("MESQ/SR", MIB, pattern="bogus"), "pattern"),
        (lambda: Point("MESQ/SR"), "volume"),
        (lambda: Point("MESQ/SR", -MIB), "volume"),
        (lambda: Point("MESQ/SR", MIB, pattern="hierarchical",
                       num_endpoints=2), "num_endpoints"),
        (lambda: dataclasses.replace(EDR, link_bytes_per_ns=0.0),
         "link_bytes_per_ns"),
    ] + [
        (functools.partial(dataclasses.replace, EDR, **{field: bad}), field)
        for field, bad in BAD_NETWORK
    ], ids=["pattern", "zero-volume", "negative-volume",
            "hierarchical-endpoints", "link-rate"] + [
        f"{field}={bad}" for field, bad in BAD_NETWORK])
    def test_bad_point_fails_at_construction(self, build, field):
        """An unknown pattern used to run a broadcast, a zero volume to
        report GiB/s for no bytes, and a zero link rate to fail mid-run
        with an error that named no field; so did each bad network
        value (:data:`BAD_NETWORK`), or the run never finished."""
        with pytest.raises(ValueError, match=f"^{field} must be"):
            build()

    def test_point_volume_exceptions(self):
        """fig12 builds connections only; a policy sizes its own run."""
        assert Point("MESQ/SR", setup_only=True).volume == 0
        assert Point("MESQ/SR", lambda cluster: MIB).volume(None) == MIB

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
        """``entry(opts)``, and the figure function behind it is called
        as ``figure(opts, nodes)`` with no parameter the registry does
        not pass."""
        for name, entry in ALL_EXPERIMENTS.items():
            assert list(inspect.signature(entry).parameters) == ["opts"], name
            figure = list(inspect.signature(entry.run).parameters)
            assert figure in (["opts", "nodes"], ["opts", "node_counts"]), name

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


class TestKernelRungs:
    """``bench.kernel.bench_*`` are the ladder's bottom rungs
    (``benchmarks/ladder/rungs.py``): it reads ``value`` and, for the
    train rung, the event counts in ``detail``."""

    def test_rate_rungs_report_a_positive_value(self):
        for result in (bench_dispatch_events(2_000),
                       bench_process_wakeups(2_000),
                       bench_fabric_packets(200)):
            assert result["value"] > 0
            assert result["higher_is_better"]

    def test_train_path_saves_twenty_fold_events(self):
        # A 1 MiB RC message is a 256-packet train at the 4 KiB MTU.
        detail = bench_train_events(num_messages=8)["detail"]
        assert detail["n_packets"] == 256
        assert detail["oracle_events"] / detail["train_events"] >= 20.0
        # The ladder's smallest run: three events per message (egress,
        # switch hop, ingress), and the events a per-packet model that
        # ticks every MTU boundary dispatched.  An extra event per hop
        # fails here.
        detail = bench_train_events(32)["detail"]
        assert detail["train_events"] == 96
        assert detail["oracle_events"] == 16416
