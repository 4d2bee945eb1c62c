"""Tests for repro.telemetry: callbacks, tracer, harvesting,
sessions."""

import io
import json

import pytest

from repro import Cluster, ClusterConfig, EDR
from repro.bench.workloads import run_repartition
from repro.telemetry import (
    Telemetry,
    TraceBudget,
    Tracer,
    current_session,
    digest_snapshots,
    format_digest,
    nic_cache_stats,
    session,
    set_enabled,
)
from repro.sim import Simulator
from repro.telemetry.trace import write_trace

MIB = 1 << 20


def written(tracer):
    """The trace document ``tracer.export`` writes, parsed."""
    fh = io.StringIO()
    write_trace(fh, [tracer], tracer.budget.dropped)
    return json.loads(fh.getvalue())


def exported_session(sess, tmp_path):
    """The trace document ``sess.export_trace`` writes, parsed."""
    path = tmp_path / "session.json"
    sess.export_trace(str(path))
    return json.loads(path.read_text())


class TestSnapshotCallbacks:
    def test_snapshot_and_callbacks(self):
        tel = Telemetry(Simulator(), 2)
        tel.callbacks["cb"] = lambda: 42
        tel.callbacks["nested"] = lambda: {"a": [1, 2]}
        snap = tel.snapshot()
        assert snap["fabric"]["cb"] == 42
        assert snap["fabric"]["nested"] == {"a": [1, 2]}
        json.dumps(snap)  # must be JSON-serializable

    def test_disabled_telemetry_polls_no_callback(self):
        set_enabled(False)
        try:
            tel = Telemetry(Simulator(), 2)
        finally:
            set_enabled(True)
        tel.callbacks["cb"] = lambda: pytest.fail("polled while disabled")
        snap = tel.snapshot()
        assert "cb" not in snap["fabric"]
        assert "sim.now_ns" in snap["fabric"]  # plain harvest still runs


class TestTracer:
    def test_events_and_export_structure(self, tmp_path):
        sim = Simulator()
        tracer = Tracer(sim)
        tracer.complete(0, "qp1", "send", 100, 50, "verbs",
                        args={"bytes": 10})
        tracer.complete(1, "egress", "tx", 10, 10, "fabric", 64)
        tracer.instant(0, "qp1", "drop")
        doc = written(tracer)
        events = doc["traceEvents"]
        assert {e["ph"] for e in events} == {"M", "X", "i"}
        names = {e["args"]["name"] for e in events if e["ph"] == "M"
                 and e["name"] == "process_name"}
        assert names == {"node0", "node1"}
        path = tmp_path / "t.json"
        tracer.export(str(path))
        assert json.loads(path.read_text()) == doc

    def test_budget_caps_events_one_slot_each(self):
        sim = Simulator()
        tracer = Tracer(sim, budget=TraceBudget(3))
        tracer.complete(0, "a", "s", 0, 1)
        tracer.instant(0, "a", "i", 1)
        tracer.complete(0, "a", "x", 2, 1)  # takes the last slot
        tracer.complete(0, "a", "x", 3, 1)  # dropped
        tracer.instant(0, "a", "i", 4)      # dropped
        assert [e["ph"] for e in tracer.events] == ["X", "i", "X"]
        assert tracer.budget.dropped == 2

    def test_pid_base_offsets_processes(self):
        sim = Simulator()
        tracer = Tracer(sim, pid_base=3000, label="run3")
        tracer.complete(2, "t", "n", 0, 1)
        event, = tracer.events
        assert event["pid"] == 3002
        meta = written(tracer)["traceEvents"][0]
        assert meta["args"]["name"] == "run3/node2"


def _small_shuffle(qp_cache_entries=None, trace=False):
    config = ClusterConfig(network=EDR, num_nodes=3)
    if qp_cache_entries is not None:
        config = config.with_network(qp_cache_entries=qp_cache_entries)
    cluster = Cluster(config)
    if trace:
        cluster.enable_tracing()
    result = run_repartition(cluster, "MEMQ/SR", bytes_per_node=2 * MIB)
    return cluster, result


class TestIntegration:
    def test_shuffle_trace_is_structurally_valid(self):
        # One cache entry forces misses on every QP switch, so the NIC
        # counters must light up.
        cluster, _ = _small_shuffle(qp_cache_entries=1, trace=True)
        doc = written(cluster.telemetry.tracer)
        data = [e for e in doc["traceEvents"] if e["ph"] != "M"]
        assert data
        # Timestamps non-decreasing after export sorting.
        ts = [e["ts"] for e in data]
        assert ts == sorted(ts)
        # Every event is a span or an instant; a pipe's spans (one
        # fabric track each) never overlap, compared in integer ns.
        assert {e["ph"] for e in data} <= {"X", "i"}
        busy_until = {}
        for e in data:
            if e["ph"] == "X":
                assert e["dur"] >= 0
            if e.get("cat") == "fabric":
                key = (e["pid"], e["tid"])
                start = round(e["ts"] * 1000)
                assert start >= busy_until.get(key, 0), key
                busy_until[key] = start + round(e["dur"] * 1000)
        assert busy_until
        # pids map onto simulated nodes.
        assert {e["pid"] for e in data} <= set(range(cluster.num_nodes))
        # Spans from at least three layers of the stack.
        cats = {e.get("cat") for e in data}
        assert {"fabric", "verbs", "endpoint"} <= cats

    def test_enable_tracing_is_idempotent(self):
        cluster, _ = _small_shuffle(trace=True)
        tracer = cluster.telemetry.tracer
        recorded = len(tracer.events)
        assert recorded
        assert cluster.enable_tracing() is tracer
        assert cluster.telemetry.tracer is tracer
        assert len(tracer.events) == recorded

    def test_cold_cache_counters_nonzero(self):
        cluster, _ = _small_shuffle(qp_cache_entries=1)
        snap = cluster.metrics_snapshot()
        for node in snap["nodes"].values():
            assert node["nic.qp_cache.misses"] > 0
        stats = nic_cache_stats(cluster)
        assert stats["misses"] > 0
        assert stats["pcie_stall_ns"] > 0
        assert 0.0 < stats["miss_rate"] <= 1.0

    def test_snapshot_covers_every_layer(self):
        cluster, _ = _small_shuffle()
        snap = cluster.metrics_snapshot()
        assert snap["fabric"]["sim.events_dispatched"] > 0
        assert snap["fabric"]["sim.process_wakeups"] > 0
        assert snap["fabric"]["fabric.delivered_messages"] > 0
        assert snap["fabric"]["fabric.link_bytes"]
        node = snap["nodes"]["0"]
        assert node["nic.tx_messages"] > 0
        assert node["verbs.sends_posted"] > 0
        assert node["verbs.cqes_pushed"] > 0
        assert node["ep.messages_sent"] > 0
        assert node["ep.bytes_by_dest"]
        assert node["ep.dest_skew"] >= 1.0
        json.dumps(snap)

    def test_telemetry_does_not_perturb_simulation(self):
        _, base = _small_shuffle()
        _, traced = _small_shuffle(trace=True)
        try:
            set_enabled(False)
            _, disabled = _small_shuffle()
        finally:
            set_enabled(True)
        assert base.elapsed_ns == traced.elapsed_ns == disabled.elapsed_ns


class TestSession:
    def test_clusters_attach_and_checkpoint(self, tmp_path):
        assert current_session() is None
        with session(trace=True) as sess:
            assert current_session() is sess
            _small_shuffle()
            _small_shuffle()
            digest = sess.checkpoint("expA")
            assert digest["runs"] == 2
            assert digest["delivered_messages"] > 0
            assert "qp-cache miss" in format_digest(digest)
        assert current_session() is None
        doc = sess.metrics_document()
        assert doc["schema"]["name"] == "repro-telemetry-metrics"
        assert [e["experiment"] for e in doc["experiments"]] == ["expA"]
        trace_doc = exported_session(sess, tmp_path)
        data = [e for e in trace_doc["traceEvents"] if e["ph"] != "M"]
        # The two runs occupy disjoint pid namespaces.
        pids = {e["pid"] for e in data}
        assert any(p < 1000 for p in pids) and any(p >= 1000 for p in pids)

    def test_enable_tracing_under_trace_session_keeps_its_tracer(
            self, tmp_path):
        # The session enabled tracing when the cluster attached; a later
        # cluster.enable_tracing() must hand back that tracer, not
        # replace it behind the session's back.
        with session(trace=True) as sess:
            cluster = Cluster(ClusterConfig(network=EDR, num_nodes=2))
            cluster.enable_tracing()
            run_repartition(cluster, "SEMQ/SR", bytes_per_node=2 * MIB)
        data = [e for e in exported_session(sess, tmp_path)["traceEvents"]
                if e["ph"] != "M"]
        assert data
        assert len(data) == len(cluster.telemetry.tracer.events)

    def test_one_run_session_document_equals_the_tracers(self, tmp_path):
        # The session and the tracer export through one writer: for a
        # single run only otherData may differ.
        with session(trace=True) as sess:
            cluster = Cluster(ClusterConfig(network=EDR, num_nodes=2))
            run_repartition(cluster, "SEMQ/SR", bytes_per_node=2 * MIB)
        merged = exported_session(sess, tmp_path)
        own = written(cluster.telemetry.tracer)
        assert len(merged["traceEvents"]) > 100
        assert merged["traceEvents"] == own["traceEvents"]
        assert merged["displayTimeUnit"] == own["displayTimeUnit"]
        assert merged["otherData"] == dict(own["otherData"], runs=1)

    def test_digest_of_nothing(self):
        digest = digest_snapshots([])
        assert digest["runs"] == 0
        assert digest["qp_cache_miss_rate"] == 0.0
