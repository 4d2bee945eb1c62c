"""Critical-path analyzer, RunReports and the run-diff gate (repro.obs).

Three layers of coverage:

* the attribution sweep — exact conservation over every design family
  (fig8 / fig11 / table1 workloads at scale 0.1), plus the three
  validation mechanisms the analyzer must reproduce: QP-cache thrashing
  dominates fig11's MQ degradation, trunk queueing dominates 4:1
  oversubscription, and the fig8 low-credit regime grows credit-stall
  time;
* the recording substrate — enabling it must not move simulated time by
  a single nanosecond, and a dry budget degrades gracefully;
* the tooling — percentile helpers, report documents, markdown
  rendering, and the ``python -m repro.obs diff`` exact baseline check.
"""

import copy
import json
import random

import pytest

from repro import Cluster, ClusterConfig, EDR, FDR, LEAF_SPINE, EndpointConfig
from repro.bench.workloads import run_repartition
from repro.obs import (
    CATEGORIES,
    REPORT_SCHEMA,
    aggregate_reports,
    attribute,
    build_document,
    critical_path,
    render_markdown,
)
from repro.obs.diff import diff
from repro.obs.__main__ import main as obs_main
from repro.telemetry import FlowRecorder, TraceBudget, latency_summary, percentile
from repro.telemetry.session import session


def _run(network, design, nodes, scale, **kwargs):
    """One repartition under ``session(report=True)`` at the volume the
    experiment drivers use for ``scale``; returns ``(cluster, result)``."""
    volume = int((72 if "MQ/" in design else 24) * (1 << 20) * scale)
    with session(report=True):
        cluster = Cluster(ClusterConfig(network=network, num_nodes=nodes))
        result = run_repartition(cluster, design, bytes_per_node=volume,
                                 **kwargs)
    return cluster, result


def shuffle_attribution(cluster, result):
    """Attribution over the shuffle window [t1 - elapsed, t1]."""
    t1 = cluster.sim.now
    return attribute(cluster.telemetry.links, t1 - result.elapsed_ns, t1)


def assert_conserved(attribution):
    assert attribution["conserved"]
    assert (sum(attribution["categories"].values())
            == attribution["total_ns"]
            == attribution["t1"] - attribution["t0"])


# -- percentile helpers (repro.telemetry.metrics) --------------------------


class TestPercentileHelpers:
    def test_exact_percentile_interpolates(self):
        values = [10, 20, 30, 40]
        assert percentile(values, 0.0) == 10
        assert percentile(values, 1.0) == 40
        assert percentile(values, 0.5) == 25.0
        assert percentile([7], 0.99) == 7.0

    def test_percentile_rejects_bad_input(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)
        with pytest.raises(ValueError):
            percentile([1, 2], 1.5)

    def test_percentile_order_independent(self):
        assert percentile([3, 1, 2], 0.5) == percentile([1, 2, 3], 0.5)

    def test_latency_summary_small_population_is_exact(self):
        values = list(range(1, 101))
        summary = latency_summary(values)
        assert summary["count"] == 100
        assert summary["min"] == 1 and summary["max"] == 100
        assert summary["p50"] == percentile(values, 0.5)
        assert summary["p99"] == percentile(values, 0.99)

    def test_latency_summary_large_population_is_exact(self):
        rng = random.Random(7)
        values = [rng.lognormvariate(10.0, 1.5) for _ in range(50_000)]
        summary = latency_summary(values)
        assert summary["count"] == 50_000
        for key, q in (("p50", 0.5), ("p90", 0.9), ("p99", 0.99)):
            assert summary[key] == percentile(values, q)

    def test_latency_summary_empty(self):
        assert latency_summary([]) == {"count": 0}


# -- attribution: conservation across all design families ------------------


TABLE1_DESIGNS = ["MEMQ/SR", "MEMQ/RD", "MESQ/SR",
                  "SEMQ/SR", "SEMQ/RD", "SESQ/SR"]


class TestConservation:
    @pytest.mark.parametrize("design", TABLE1_DESIGNS)
    def test_table1_designs_conserve_at_scale_01(self, design):
        cluster, result = _run(EDR, design, 4, 0.1)
        assert_conserved(shuffle_attribution(cluster, result))

    def test_fig8_config_conserves_at_scale_01(self):
        cfg = EndpointConfig(buffers_per_connection=16, credit_frequency=16,
                             ud_window_factor=1)
        cluster, result = _run(EDR, "MESQ/SR", 8, 0.1, config=cfg)
        assert_conserved(shuffle_attribution(cluster, result))

    def test_fig11_config_conserves_at_scale_01(self):
        cluster, result = _run(FDR, "MEMQ/SR", 8, 0.1, num_endpoints=4)
        assert_conserved(shuffle_attribution(cluster, result))

    def test_full_window_conserves_including_setup(self):
        cluster, result = _run(EDR, "MESQ/SR", 4, 0.1)
        full = attribute(cluster.telemetry.links, 0, cluster.sim.now)
        assert_conserved(full)
        # The window before the first WR post is setup time.
        assert full["categories"]["setup"] > 0

    def test_empty_recorder_attributes_everything(self):
        class _Sim:
            now = 0

        attribution = attribute(FlowRecorder(_Sim()), 0, 1000)
        assert_conserved(attribution)
        assert attribution["total_ns"] == 1000


# -- attribution: the three validation mechanisms --------------------------


class TestValidationMechanisms:
    def test_fig11_mq_thrash_is_qp_cache_miss_dominated(self):
        """fig11's MQ degradation on FDR: 16 nodes x 8 endpoints create
        enough QP state to thrash the 144-entry FDR context cache; the
        analyzer must attribute the slowdown to qp_cache_miss."""
        cluster, result = _run(FDR, "MEMQ/SR", 16, 0.05, num_endpoints=8)
        attribution = shuffle_attribution(cluster, result)
        assert_conserved(attribution)
        assert attribution["top"] == "qp_cache_miss"
        assert attribution["shares"]["qp_cache_miss"] > 0.5

    def test_oversubscribed_trunks_are_trunk_queueing_dominated(self):
        """abl-oversub at 4:1: the shared leaf-spine trunks serialize the
        cross-leaf traffic; trunk_queueing must dominate, and its share
        must exceed the balanced 1:1 fabric's."""
        shares = {}
        for factor in (1, 4):
            spec = LEAF_SPINE(oversubscription=factor, nodes_per_leaf=4)
            with session(report=True):
                cluster = Cluster(ClusterConfig(network=EDR, num_nodes=8,
                                                topology=spec))
                result = run_repartition(cluster, "MESQ/SR",
                                         bytes_per_node=2 << 20)
            attribution = shuffle_attribution(cluster, result)
            assert_conserved(attribution)
            shares[factor] = attribution["shares"]["trunk_queueing"]
            if factor == 4:
                assert attribution["top"] == "trunk_queueing"
        assert shares[4] > shares[1]

    @staticmethod
    def _credit_run(freq, compute_ns=0.0):
        cfg = EndpointConfig(buffers_per_connection=4, credit_frequency=freq,
                             ud_window_factor=1)
        with session(report=True):
            cluster = Cluster(ClusterConfig(network=EDR, num_nodes=2,
                                            threads_per_node=2))
            result = run_repartition(cluster, "MESQ/SR",
                                     bytes_per_node=8 << 20, config=cfg,
                                     compute_ns_per_batch=compute_ns)
        return shuffle_attribution(cluster, result)

    def test_fig8_low_credit_regime_grows_credit_stall(self):
        """fig8's flow-control effect: returning credit only every 4th
        Receive (with a 4-buffer window) forces the sender to wait a full
        credit round-trip per burst."""
        eager = self._credit_run(freq=1)
        lazy = self._credit_run(freq=4)
        assert_conserved(eager)
        assert_conserved(lazy)
        assert (lazy["categories"]["credit_stall"]
                > 10 * max(1, eager["categories"]["credit_stall"]))

    def test_starved_sender_is_credit_stall_dominated(self):
        attribution = self._credit_run(freq=4, compute_ns=20_000)
        assert_conserved(attribution)
        assert attribution["top"] == "credit_stall"


# -- recording substrate ---------------------------------------------------


class TestRecordingIsInvisible:
    @pytest.mark.parametrize(
        "design", ["MESQ/SR", "MEMQ/RD", "MEMQ/WR", "MPI", "IPoIB"])
    def test_link_recording_does_not_move_simulated_time(self, design):
        def run(report):
            cluster = Cluster(ClusterConfig(network=EDR, num_nodes=4))
            if report:
                cluster.enable_tracing()
                cluster.enable_reporting()
            result = run_repartition(cluster, design,
                                     bytes_per_node=2 << 20)
            return (cluster.sim.now, result.elapsed_ns,
                    result.total_received_bytes,
                    cluster.sim.events_dispatched,
                    cluster.fabric.delivered_messages)

        assert run(False) == run(True)

    def test_budget_exhaustion_degrades_gracefully(self):
        cluster = Cluster(ClusterConfig(network=EDR, num_nodes=4))
        links = cluster.telemetry.enable_links(budget=TraceBudget(200))
        result = run_repartition(cluster, "MESQ/SR", bytes_per_node=2 << 20)
        assert links.truncated
        assert links.dropped_records > 0
        assert len(links.flows) + len(links.pipes) + len(links.stalls) <= 200
        # The attribution explains less, but still conserves exactly,
        # and the report still builds and serializes.
        assert_conserved(shuffle_attribution(cluster, result))
        report = cluster.run_report()
        assert report["records"]["truncated"]
        json.dumps(report)

    def test_flow_dag_reaches_back_through_credit_triggers(self):
        cluster = Cluster(ClusterConfig(network=EDR, num_nodes=2,
                                        threads_per_node=2))
        cluster.enable_reporting()
        cfg = EndpointConfig(buffers_per_connection=4, credit_frequency=4,
                             ud_window_factor=1)
        run_repartition(cluster, "MESQ/SR", bytes_per_node=8 << 20,
                        config=cfg)
        flows = list(cluster.telemetry.links.flows)
        kinds = {kind for kind, *_ in flows}
        assert "data" in kinds and "credit" in kinds
        # Credit flows carry a trigger edge back to the data flow whose
        # buffer release produced them (flow id i is row i - 1).
        triggers = [trigger for kind, *_, trigger in flows
                    if kind == "credit" and trigger]
        assert triggers
        for trigger in triggers:
            assert flows[trigger - 1][0] == "data"

    def test_critical_path_ends_at_last_delivery(self):
        cluster = Cluster(ClusterConfig(network=EDR, num_nodes=2))
        cluster.enable_reporting()
        run_repartition(cluster, "MESQ/SR", bytes_per_node=2 << 20)
        links = cluster.telemetry.links
        chain = critical_path(links)
        assert chain
        # delivered_ns is field 5, -1 for a flow never delivered.
        last_delivery = max(flow[5] for flow in links.flows)
        assert chain[-1]["delivered_ns"] == last_delivery
        # Oldest-first: post times never move backwards along the chain.
        posts = [link["posted_ns"] for link in chain]
        assert posts == sorted(posts)


class TestBaselinesRecordLikeTheDesigns:
    """MPI and IPoIB post flows, charge pipes and record stalls through
    the calls the RDMA endpoints use."""

    @pytest.mark.parametrize("design", ["MPI", "IPoIB"])
    def test_flows_latencies_and_setup_until_the_first_post(self, design):
        cluster = Cluster(ClusterConfig(network=EDR, num_nodes=4))
        cluster.enable_reporting()
        run_repartition(cluster, design, bytes_per_node=1 << 20)
        report = cluster.run_report()
        attribution = report["attribution"]
        first_post = next(iter(cluster.telemetry.links.flows))[4]
        assert report["records"]["flows"] > 0
        assert report["latency_ns"]["count"] > 0
        assert attribution["categories"]["setup"] == first_post
        assert_conserved(attribution)
        if design == "IPoIB":  # the kernel stack is its packet processor
            assert attribution["categories"]["nic_processing"] > 0

    def test_only_registered_buffers_are_remembered_for_credit(self):
        """IPoIB delivers its ``Frame``: no release reads which flow it
        carried, and a dead frame's id is reused, so the recorder keeps
        none; a credited design remembers its registered buffers."""
        cluster = Cluster(ClusterConfig(network=EDR, num_nodes=4))
        cluster.enable_reporting()
        run_repartition(cluster, "IPoIB", bytes_per_node=4 << 20)
        links = cluster.telemetry.links
        assert any(flow[5] >= 0 for flow in links.flows)
        assert len(links._buffer_flow) == 0
        cluster = Cluster(ClusterConfig(network=EDR, num_nodes=4))
        cluster.enable_reporting()
        run_repartition(cluster, "MESQ/SR", bytes_per_node=1 << 20)
        assert len(cluster.telemetry.links._buffer_flow) > 0


# -- reports ---------------------------------------------------------------


class TestRunReports:
    @pytest.fixture(scope="class")
    def report_and_cluster(self):
        cluster = Cluster(ClusterConfig(network=EDR, num_nodes=4))
        cluster.enable_reporting()
        run_repartition(cluster, "MESQ/SR", bytes_per_node=2 << 20)
        return cluster.run_report(), cluster

    def test_report_has_latency_percentiles(self, report_and_cluster):
        report, _ = report_and_cluster
        latency = report["latency_ns"]
        assert latency["count"] > 0
        assert latency["min"] <= latency["p50"] <= latency["p90"] \
            <= latency["p99"] <= latency["max"]

    def test_report_is_json_serializable(self, report_and_cluster):
        report, _ = report_and_cluster
        json.dumps(report)

    def test_report_requires_link_recording(self):
        cluster = Cluster(ClusterConfig(network=EDR, num_nodes=2))
        with pytest.raises(ValueError, match="enable_reporting"):
            cluster.run_report()

    def test_session_document_carries_schema_and_aggregate(self):
        with session(report=True) as sess:
            cluster = Cluster(ClusterConfig(network=EDR, num_nodes=2))
            run_repartition(cluster, "MESQ/SR", bytes_per_node=2 << 20)
            sess.checkpoint("smoke")
            document = sess.report_document()
        assert document["schema"] == REPORT_SCHEMA
        (entry,) = document["experiments"]
        assert entry["name"] == "smoke"
        assert entry["aggregate"]["runs"] == 1
        assert entry["aggregate"]["attribution"]["conserved"]

    def test_aggregate_sums_categories_and_weights_percentiles(self):
        run_a = {
            "attribution": {"total_ns": 100,
                            "categories": {c: 0 for c in CATEGORIES},
                            "conserved": True},
            "latency_ns": {"count": 1, "mean": 10.0, "p50": 10.0,
                           "p90": 10.0, "p99": 10.0},
            "sanitizer": {"violations": 0},
            "records": {"truncated": False},
        }
        run_a["attribution"]["categories"]["wire_serialization"] = 100
        run_b = copy.deepcopy(run_a)
        run_b["latency_ns"] = {"count": 3, "mean": 30.0, "p50": 30.0,
                               "p90": 30.0, "p99": 30.0}
        agg = aggregate_reports([run_a, run_b])
        assert agg["attribution"]["total_ns"] == 200
        assert agg["attribution"]["top"] == "wire_serialization"
        assert agg["latency_ns"]["count"] == 4
        assert agg["latency_ns"]["p99"] == pytest.approx(25.0)

    def test_markdown_rendering(self, report_and_cluster):
        report, _ = report_and_cluster
        document = build_document([{
            "name": "fig8", "runs": [report],
            "aggregate": aggregate_reports([report]),
        }])
        text = render_markdown(document)
        assert "## fig8" in text
        assert "| category |" in text
        assert "Message latency" in text


# -- the diff gate ---------------------------------------------------------


def _document(p99=1000.0, wire=0.8, credit=0.1):
    categories = {c: 0 for c in CATEGORIES}
    categories["wire_serialization"] = int(wire * 1000)
    categories["credit_stall"] = int(credit * 1000)
    categories["sender_compute"] = 1000 - sum(categories.values())
    shares = {c: ns / 1000 for c, ns in categories.items()}
    return {
        "schema": dict(REPORT_SCHEMA),
        "experiments": [{
            "name": "fig8",
            "runs": [],
            "aggregate": {
                "runs": 1,
                "attribution": {"total_ns": 1000, "categories": categories,
                                "shares": shares,
                                "top": "wire_serialization",
                                "conserved": True},
                "latency_ns": {"count": 10, "mean": p99 / 2,
                               "p50": p99 / 2, "p90": p99 * 0.9,
                               "p99": p99},
            },
        }],
    }


def _shifted():
    """1.5 pp of wire time moved into setup, percentiles up 20 %: small,
    and still a model change."""
    shifted = _document(p99=1200.0)
    attribution = shifted["experiments"][0]["aggregate"]["attribution"]
    attribution["categories"]["wire_serialization"] -= 15
    attribution["categories"]["setup"] += 15
    for name in ("wire_serialization", "setup"):
        attribution["shares"][name] = attribution["categories"][name] / 1000
    return shifted


class TestDiffGate:
    def test_identical_reports_pass(self):
        assert diff(_document(), _document()) == []

    def test_percentile_regression_fails(self):
        failures = diff(_document(p99=1000.0), _document(p99=1400.0))
        assert "  latency p50 +40.0%, p90 +40.0%, p99 +40.0%" in failures

    def test_attribution_shift_fails(self):
        failures = diff(_document(wire=0.8, credit=0.1),
                        _document(wire=0.6, credit=0.3))
        assert "  credit_stall share +20.0pp (10.0% -> 30.0%)" in failures

    def test_schema_mismatch_fails(self):
        bad = _document()
        bad["schema"]["version"] = 99
        assert diff(_document(), bad)

    def test_empty_baseline_fails(self):
        empty = {"schema": dict(REPORT_SCHEMA), "experiments": []}
        assert diff(empty, _document()) == [
            "baseline document has no experiments"]

    def test_small_shift_fails_with_key_percentiles_and_shares(self):
        assert diff(_document(), _shifted()) == [
            "fig8: aggregate.attribution.categories.wire_serialization "
            "differs from the baseline",
            "  latency p50 +20.0%, p90 +20.0%, p99 +20.0%",
            "  wire_serialization share -1.5pp (80.0% -> 78.5%)",
            "  setup share +1.5pp (0.0% -> 1.5%)"]

    def test_exact_gate_passes_equal_aggregates_only(self):
        fresh = _document()
        fresh["experiments"][0]["runs"] = [{"ignored": True}]
        assert diff(_document(), fresh) == []
        fresh["experiments"][0]["aggregate"]["latency_ns"]["extra"] = 1
        assert diff(_document(), fresh) == [
            "fig8: aggregate.latency_ns.extra differs from the baseline",
            "  latency p50 +0.0%, p90 +0.0%, p99 +0.0%"]
        fresh["experiments"][0]["name"] = "fig9"
        assert diff(_document(), fresh) == [
            "fig8: missing from fresh report"]

    def write(self, tmp_path, name, document):
        path = tmp_path / name
        path.write_text(json.dumps(document))
        return str(path)

    def test_cli_passes_identical_reports(self, tmp_path, capsys):
        base = self.write(tmp_path, "base.json", _document())
        fresh = self.write(tmp_path, "fresh.json", _document())
        assert obs_main(["diff", base, fresh]) == 0
        out = capsys.readouterr().out
        assert "fig8: top=wire_serialization p99=1,000ns runs=1" in out
        assert "equals the baseline" in out

    def test_cli_exits_nonzero_on_injected_regression(self, tmp_path,
                                                      capsys):
        base = self.write(tmp_path, "base.json", _document())
        fresh = self.write(tmp_path, "fresh.json", _shifted())
        assert obs_main(["diff", base, fresh]) == 1
        err = capsys.readouterr().err
        assert "aggregate.attribution.categories.wire_serialization" in err
        assert "p99 +20.0%" in err
        assert "setup share +1.5pp" in err

    def test_cli_has_no_warn_only(self, tmp_path, capsys):
        base = self.write(tmp_path, "base.json", _document())
        fresh = self.write(tmp_path, "fresh.json", _shifted())
        with pytest.raises(SystemExit) as exit_info:
            obs_main(["diff", base, fresh, "--warn-only"])
        assert exit_info.value.code == 2

    def test_module_entry_point_dispatches_diff(self, tmp_path):
        base = self.write(tmp_path, "base.json", _document())
        fresh = self.write(tmp_path, "fresh.json", _document())
        assert obs_main(["diff", base, fresh]) == 0

    def test_module_entry_point_renders_markdown(self, tmp_path, capsys):
        report = self.write(tmp_path, "report.json", _document())
        assert obs_main(["render", report]) == 0
        assert "## fig8" in capsys.readouterr().out

    @pytest.mark.parametrize("command, text", [
        ("diff", None), ("render", "not json"), ("render", "{}"),
    ], ids=["diff-missing", "render-not-json", "render-not-a-report"])
    def test_cli_exits_2_naming_a_file_that_is_not_a_report(
            self, tmp_path, capsys, command, text):
        """Exit 1 says the reports differ; a file that is missing, not
        JSON or not a report is a usage error instead."""
        path = tmp_path / "bad.json"
        if text is not None:
            path.write_text(text)
        args = [command, str(path)]
        if command == "diff":
            args.append(self.write(tmp_path, "fresh.json", _document()))
        with pytest.raises(SystemExit) as exit_info:
            obs_main(args)
        assert exit_info.value.code == 2
        assert str(path) in capsys.readouterr().err


# -- repro-bench integration -----------------------------------------------


class TestBenchReportFlag:
    def test_cli_writes_report_document(self, tmp_path, capsys):
        from repro.bench.cli import main as cli_main
        out = tmp_path / "report.json"
        rc = cli_main(["fig12", "--report", str(out)])
        assert rc == 0
        document = json.loads(out.read_text())
        assert document["schema"] == REPORT_SCHEMA
        assert document["experiments"][0]["name"] == "fig12"
        for entry in document["experiments"]:
            for run in entry["runs"]:
                assert run["attribution"]["conserved"]
