"""Runtime sanitizer: clean-tree conformance and zero-overhead contract.

Three guarantees, per design:

* every built-in endpoint design runs sanitizer-clean (the protocol
  invariants of §4.2/§4.4 actually hold);
* the sanitizer never perturbs the simulation — simulated end time and
  metrics snapshots are bit-identical with it on or off;
* violations flow into the telemetry session (``repro-bench --sanitize``)
  and, when tracing, onto a per-node trace track.
"""

import collections
import sys

import pytest

from repro import Cluster, ClusterConfig, EDR
from repro.analysis import ProtocolViolationError, sanitizer as sanitizer_module
from repro.bench import cli as bench_cli
from repro.bench.experiments import FIXED, Entry
from repro.bench.workloads import run_repartition
from repro.telemetry.session import session
from repro.memory import BufferPool
from repro.verbs import Opcode, QPType, SendWR, VerbsError

from tests.test_determinism import DESIGN_NAMES
from tests.test_endpoints import make_cluster, run_stage_query


def run_once(design, sanitize, rows_per_node=1500):
    cluster = make_cluster()
    san = cluster.enable_sanitizer() if sanitize else None
    _, sinks, _ = run_stage_query(cluster, design,
                                  rows_per_node=rows_per_node)
    cluster.run()  # drain trailing completions
    got = sum(len(s.result()) for s in sinks if s.result() is not None)
    assert got == cluster.num_nodes * rows_per_node
    return cluster.metrics_snapshot(), cluster.sim.now, san


def first_context(cluster):
    return next(iter(cluster.fabric.verbs_contexts.values()))


@pytest.mark.parametrize("design", DESIGN_NAMES)
def test_designs_are_clean_and_sanitizer_is_invisible(design):
    """Conformance + invariance in one pass: the design runs clean, and
    the sanitized run is bit-identical to the unsanitized one."""
    plain_snapshot, plain_now, _ = run_once(design, sanitize=False)
    snapshot, now, san = run_once(design, sanitize=True)
    assert san.violations == []
    san.assert_clean()  # must not raise
    assert san.report() == "sanitizer: clean (0 violations)"
    assert now == plain_now, "sanitizer perturbed simulated time"
    assert snapshot == plain_snapshot, "sanitizer perturbed metrics"


def test_a_completion_consumed_in_its_push_is_decoded_once(monkeypatch):
    """A subscribed CQ consumes each completion inside the push that
    deposits it, so the sanitizer sees it in one call, which decodes its
    ``wr_id`` at most once (a bare buffer needs no decoding); the push
    and the consume hooks used to decode it one time each."""
    decode = sanitizer_module._wr_id_buffers
    deliver = sanitizer_module.Sanitizer.on_cq_delivered
    callers = collections.Counter()
    decodes_per_push = collections.Counter()

    def counting(ref):
        callers[sys._getframe(1).f_code.co_name] += 1
        return decode(ref)

    def counting_delivery(san, cq, wc):
        before = callers["on_cq_delivered"]
        deliver(san, cq, wc)
        decodes_per_push[callers["on_cq_delivered"] - before] += 1

    monkeypatch.setattr(sanitizer_module, "_wr_id_buffers", counting)
    monkeypatch.setattr(sanitizer_module.Sanitizer, "on_cq_delivered",
                        counting_delivery)
    pushed = 0
    for design in ("SEMQ/SR", "MESQ/SR"):
        cluster = Cluster(ClusterConfig(network=EDR, num_nodes=4))
        san = cluster.enable_sanitizer()
        run_repartition(cluster, design, bytes_per_node=1 << 20)
        assert not san.violations
        pushed += sum(node["verbs.cqes_pushed"] for node in
                      cluster.metrics_snapshot()["nodes"].values())
    assert sum(decodes_per_push.values()) == pushed > 0
    # Both kinds of ``wr_id`` occur: a bare buffer and a tag tuple.
    assert decodes_per_push[0] > 0 and decodes_per_push[1] > 0
    assert set(decodes_per_push) == {0, 1}
    assert callers["on_cq_push"] == callers["on_cq_consumed"] == 0


class TestWiring:
    def test_off_by_default_and_stored_once(self):
        cluster = make_cluster()
        assert cluster.sanitizer is None
        assert cluster.telemetry.sanitizer is None
        ctx = first_context(cluster)
        # Everything holds the cluster's one bundle, and nothing but the
        # bundle has a sanitizer (or links) attribute of its own.
        holders = (cluster.fabric, cluster.nodes[0].nic, ctx, ctx.memory,
                   ctx.create_cq(), ctx.reg_mr(64))
        for obj in holders:
            assert obj.telemetry is cluster.telemetry
            assert not hasattr(obj, "sanitizer")
            assert not hasattr(obj, "links")

    def test_enable_is_idempotent_and_reaches_existing_objects(self):
        cluster = make_cluster()
        ctx = first_context(cluster)
        cq = ctx.create_cq()
        mr = ctx.reg_mr(64)  # created before enable_sanitizer()
        san = cluster.enable_sanitizer()
        assert cluster.enable_sanitizer() is san
        assert cluster.sanitizer is san
        assert ctx.telemetry.sanitizer is san
        assert cq.telemetry.sanitizer is san
        assert mr.telemetry.sanitizer is san
        # ... and objects created afterwards see it too.
        assert ctx.create_cq().telemetry.sanitizer is san
        assert ctx.reg_mr(64).telemetry.sanitizer is san

    @pytest.mark.parametrize("enable_first", [True, False])
    def test_planted_bug_is_seen_whenever_enabled(self, enable_first):
        """A post_send on an unconnected RC QP is reported whether the
        sanitizer came before or after the QP's CQ and memory region."""
        cluster = make_cluster()
        ctx = first_context(cluster)
        if enable_first:
            cluster.enable_sanitizer()
        cq = ctx.create_cq()
        qp = ctx.create_qp(QPType.RC, cq, cq)
        pool = BufferPool(ctx, 1, 64)
        san = cluster.enable_sanitizer()
        with pytest.raises(VerbsError):
            qp.post_send(SendWR(wr_id="x", opcode=Opcode.SEND,
                                buffer=pool.buffer(0), length=64))
        assert [v.rule for v in san.violations] == ["qp-state"]

    @pytest.mark.parametrize("slots", [None, range(3, 7)])
    def test_a_run_tracks_what_the_per_slot_loop_tracks(self, slots):
        """Posting a pool's slots as one run leaves the sanitizer's
        in-flight table exactly as posting them one by one does."""
        def inflight(as_run):
            cluster = make_cluster()
            san = cluster.enable_sanitizer()
            ctx = first_context(cluster)
            cq = ctx.create_cq()
            qp = ctx.create_qp(QPType.UD, cq, cq)
            pool = BufferPool(ctx, 8, 64)
            if as_run:
                qp.post_recv_run(pool, 64, slots)
            else:
                for i in slots or range(len(pool)):
                    qp.post_recv_buffer(pool.buffer(i), 64)
            return san._by_node

        run = inflight(as_run=True)
        assert run == inflight(as_run=False)
        assert sum(map(len, run.values())) == len(slots or range(8))

    def test_strict_mode_raises_at_first_violation(self):
        cluster = make_cluster()
        cluster.enable_sanitizer(strict=True)
        ctx = first_context(cluster)
        mr = ctx.reg_mr(64)
        ctx.dereg_mr(mr)
        with pytest.raises(ProtocolViolationError, match="mr-lifetime"):
            mr.read_u64(mr.addr)

    def test_violations_mirror_onto_trace(self):
        cluster = make_cluster()
        tracer = cluster.enable_tracing()
        cluster.enable_sanitizer()
        ctx = first_context(cluster)
        mr = ctx.reg_mr(64)
        ctx.dereg_mr(mr)
        with pytest.raises(VerbsError):
            mr.read_u64(mr.addr)
        instants = [e for e in tracer.events
                    if e.get("cat") == "sanitizer"]
        assert len(instants) == 1
        assert instants[0]["name"] == "mr-lifetime"

    def test_violation_str_carries_simulated_timestamp(self):
        cluster = make_cluster()
        san = cluster.enable_sanitizer()
        san.record("qp-state", "planted", node_id=1)
        text = str(san.violations[0])
        assert text.startswith("[qp-state] t=0ns node=1: planted")


class TestSessionIntegration:
    def test_session_auto_enables_and_drains_violations(self):
        with session(sanitize=True) as sess:
            cluster = Cluster(ClusterConfig(network=EDR, num_nodes=2))
            assert cluster.sanitizer is not None
            ctx = first_context(cluster)
            mr = ctx.reg_mr(64)
            ctx.dereg_mr(mr)
            with pytest.raises(VerbsError):
                mr.read_u64(mr.addr)
            assert sess.violation_count == 1
            sess.checkpoint("phase-one")
            # The run is sealed: its sanitizer is drained into the log
            # (no double counting), while the cluster keeps its own copy.
            assert cluster.sanitizer not in sess.sanitizers
            assert sess.violation_count == 1
            assert len(cluster.sanitizer.violations) == 1
            report = sess.sanitizer_report()
            assert "mr-lifetime" in report
            # A second cluster in the same session is sanitized too.
            second = Cluster(ClusterConfig(network=EDR, num_nodes=2))
            assert second.sanitizer is not None
            assert second.sanitizer is not cluster.sanitizer

    def test_session_without_sanitize_stays_off(self):
        with session() as _:
            cluster = Cluster(ClusterConfig(network=EDR, num_nodes=2))
            assert cluster.sanitizer is None


class TestBenchCLI:
    def test_sanitize_flag_reaches_the_cluster_and_reports(self, monkeypatch,
                                                           capsys):
        seen = {}

        def tiny(opts, nodes):
            cluster = Cluster(ClusterConfig(network=EDR, num_nodes=2))
            seen["sanitizer"] = cluster.sanitizer
            return []

        monkeypatch.setattr(bench_cli, "ALL_EXPERIMENTS", {"tiny": Entry(tiny, FIXED, 2)})
        assert bench_cli.main(["tiny", "--sanitize"]) == 0
        assert seen["sanitizer"] is not None
        assert "sanitizer" in capsys.readouterr().err

    def test_violation_forces_nonzero_exit(self, monkeypatch, capsys):
        def bad(opts, nodes):
            cluster = Cluster(ClusterConfig(network=EDR, num_nodes=2))
            cluster.sanitizer.record("qp-state", "planted", node_id=0)
            return []

        monkeypatch.setattr(bench_cli, "ALL_EXPERIMENTS", {"bad": Entry(bad, FIXED, 2)})
        assert bench_cli.main(["bad", "--sanitize"]) == 1
        assert "qp-state" in capsys.readouterr().err

    def test_without_flag_cluster_is_unsanitized(self, monkeypatch):
        seen = {}

        def tiny(opts, nodes):
            cluster = Cluster(ClusterConfig(network=EDR, num_nodes=2))
            seen["sanitizer"] = cluster.sanitizer
            return []

        monkeypatch.setattr(bench_cli, "ALL_EXPERIMENTS", {"tiny": Entry(tiny, FIXED, 2)})
        assert bench_cli.main(["tiny"]) == 0
        assert seen["sanitizer"] is None
