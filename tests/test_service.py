"""Tests for the multi-tenant shuffle service: quotas, admission
policies, clamping, telemetry, and scheduler determinism."""

import json

import pytest

from repro import Cluster, ClusterConfig, FDR, TransmissionGroups
from repro.core.designs import DESIGNS
from repro.core.endpoint import EndpointConfig
from repro.core.policy import StagePlan
from repro.service import (
    FairSharePolicy,
    FifoPolicy,
    QuotaExceededError,
    QuotaManager,
    ServiceConfig,
    ShuffleService,
    TenantSpec,
    estimate_footprint,
)
from repro.telemetry import set_enabled
from repro.verbs import QPType


def make_cluster(nodes=4, threads=2, qp_cache_entries=None, network=FDR):
    config = ClusterConfig(network=network, num_nodes=nodes,
                           threads_per_node=threads)
    if qp_cache_entries is not None:
        config = config.with_network(qp_cache_entries=qp_cache_entries)
    return Cluster(config)


def run_service(cluster, tenants, policy=None, quotas=None, **cfg):
    service = ShuffleService(
        cluster, tenants, policy=policy, quotas=quotas,
        config=ServiceConfig(**cfg) if cfg else None)
    report = service.run()
    return service, report


FAST = dict(bytes_per_job=256 << 10, mean_interarrival_ns=1_000_000, jobs=2)


class TestQuotaHooks:
    """The verbs-layer backstop: hard caps raise at creation time."""

    def test_qp_cap_enforced_at_verbs_layer(self):
        cluster = make_cluster(nodes=2)
        quotas = QuotaManager()
        quotas.set_quota("t", max_qps=1)
        cluster.enable_quotas(quotas)
        ctx = cluster.contexts[0]
        cq = ctx.create_cq()
        ctx.create_qp(QPType.RC, cq, cq, tenant="t")
        with pytest.raises(QuotaExceededError, match="QP cap"):
            ctx.create_qp(QPType.RC, cq, cq, tenant="t")
        usage = quotas.usage("t")
        assert usage.qps == 1
        assert usage.qp_denials == 1
        # The refused QP must not leak into the context.
        assert len(ctx._qps) == 1

    def test_untagged_resources_are_never_charged(self):
        cluster = make_cluster(nodes=2)
        quotas = QuotaManager()
        quotas.set_quota("t", max_qps=0)
        cluster.enable_quotas(quotas)
        ctx = cluster.contexts[0]
        cq = ctx.create_cq()
        ctx.create_qp(QPType.RC, cq, cq)
        ctx.reg_mr(1 << 20)
        assert quotas.usage("t").qps == 0
        assert quotas.usage("t").registered_bytes == 0

    def test_destroy_and_dereg_release_usage(self):
        cluster = make_cluster(nodes=2)
        quotas = QuotaManager()
        cluster.enable_quotas(quotas)
        ctx = cluster.contexts[0]
        cq = ctx.create_cq()
        qp = ctx.create_qp(QPType.RC, cq, cq, tenant="t")
        mr = ctx.reg_mr(4096, tenant="t")
        assert quotas.usage("t").qps == 1
        assert quotas.usage("t").registered_bytes == 4096
        ctx.destroy_qp(qp)
        ctx.dereg_mr(mr)
        assert quotas.usage("t").qps == 0
        assert quotas.usage("t").registered_bytes == 0
        assert quotas.usage("t").peak_qps == 1


class TestFootprintConformance:
    """estimate_footprint must over-approximate every design's real
    usage, or admission could admit a job the hard cap then kills."""

    @pytest.mark.parametrize("design", sorted(DESIGNS))
    def test_estimate_covers_actual_peak(self, design):
        nodes, threads = 3, 2
        cluster = make_cluster(nodes=nodes, threads=threads)
        quotas = QuotaManager()
        cluster.enable_quotas(quotas)
        config = EndpointConfig(tenant="t")
        stage = cluster.shuffle_stage(
            design, TransmissionGroups.repartition(nodes), config=config)
        cluster.run_process(stage.setup(), name="setup")
        usage = quotas.usage("t")
        estimate = estimate_footprint(design, nodes, threads)
        assert usage.peak_qps <= estimate.qps, design
        # Teardown returns the tenant's account to exactly zero.
        stage.dispose()
        assert usage.qps == 0
        assert usage.registered_bytes == 0


class TestServiceRuns:
    def test_two_tenant_run_completes_all_jobs(self):
        cluster = make_cluster()
        tenants = [TenantSpec(name="a", design="MESQ/SR", **FAST),
                   TenantSpec(name="b", design="MEMQ/SR", **FAST)]
        service, report = run_service(cluster, tenants,
                                      policy=FairSharePolicy())
        assert report["policy"] == "fair"
        assert report["failed"] == []
        assert len(report["completion_order"]) == 4
        for name in ("a", "b"):
            rollup = report["tenants"][name]
            assert rollup["jobs_completed"] == 2
            assert rollup["bytes_received"] > 0
            assert rollup["latency_ns"]["count"] == 2
            assert rollup["latency_ns"]["p99"] >= rollup["latency_ns"]["p50"]

    def test_quota_clamps_mq_tenant_to_single_endpoint(self):
        nodes, threads = 4, 2
        cluster = make_cluster(nodes=nodes, threads=threads)
        quotas = QuotaManager()
        cap = estimate_footprint("MEMQ/SR", nodes, threads,
                                 num_endpoints=1).qps
        quotas.set_quota("mq", max_qps=cap)
        tenants = [TenantSpec(name="mq", design="MEMQ/SR", **FAST)]
        service, report = run_service(cluster, tenants, quotas=quotas)
        assert report["failed"] == []
        assert report["tenants"]["mq"]["jobs_completed"] == 2
        for job in service.completed:
            assert job.meta.get("clamped_endpoints") == 1
        assert quotas.usage("mq").peak_qps <= cap

    def test_unrunnable_tenant_fails_loudly_instead_of_hanging(self):
        cluster = make_cluster()
        quotas = QuotaManager()
        quotas.set_quota("starved", max_qps=1)
        tenants = [TenantSpec(name="starved", design="MESQ/SR", **FAST)]
        service, report = run_service(cluster, tenants, quotas=quotas)
        assert report["tenants"]["starved"]["jobs_completed"] == 0
        assert report["tenants"]["starved"]["jobs_failed"] == 2
        assert sorted(report["failed"]) == ["starved/0", "starved/1"]

    def test_duplicate_tenant_names_rejected(self):
        cluster = make_cluster()
        with pytest.raises(ValueError, match="duplicate tenant"):
            ShuffleService(cluster, [TenantSpec(name="a"),
                                     TenantSpec(name="a")])

    @pytest.mark.parametrize("build, field", [
        (lambda: TenantSpec("t", mean_interarrival_ns=0),
         "mean_interarrival_ns"),
        (lambda: TenantSpec("t", bytes_per_job=-5), "bytes_per_job"),
        (lambda: TenantSpec("t", jobs=-1), "jobs"),
        (lambda: TenantSpec("t", design=StagePlan("MEMQ/SR",
                                                  num_endpoints=0)),
         "num_endpoints"),
        (lambda: ServiceConfig(max_concurrent=0), "max_concurrent"),
    ], ids=["interarrival", "bytes", "jobs", "num_endpoints",
            "max_concurrent"])
    def test_bad_inputs_rejected_at_construction(self, build, field):
        """Out-of-range inputs fail where they are given, naming the
        field — not mid-run, silently or behind a later clamp."""
        with pytest.raises(ValueError, match=field):
            build()

    def test_tenant_metrics_in_telemetry_snapshot(self):
        cluster = make_cluster()
        quotas = QuotaManager()
        tenants = [TenantSpec(name="a", **FAST)]
        service, report = run_service(cluster, tenants, quotas=quotas)
        snapshot = cluster.telemetry.snapshot()
        svc = snapshot["fabric"]["service_tenants"]
        assert svc["completed"] == {"a": 2}
        assert svc["pending"] == {}
        assert svc["running"] == 0
        assert svc["usage"]["a"]["qps"] == 0
        assert svc["usage"]["a"]["peak_qps"] > 0
        # One policy decision per admitted job.
        assert snapshot["fabric"]["service.policy_decisions"] == 2

    def test_disabled_telemetry_snapshot_omits_service_callbacks(self):
        set_enabled(False)
        try:
            cluster = make_cluster()
        finally:
            set_enabled(True)
        service, report = run_service(cluster, [TenantSpec(name="a", **FAST)])
        assert len(report["completion_order"]) == 2
        assert service.policy_decisions == 2
        fabric = cluster.telemetry.snapshot()["fabric"]
        assert "service_tenants" not in fabric
        assert "service.policy_decisions" not in fabric


class TestPolicies:
    """FIFO serves in arrival order; fair-share serves the least-served
    tenant first even while another tenant floods the queue."""

    def _flood_and_latecomer(self, policy):
        cluster = make_cluster()
        tenants = [
            TenantSpec(name="flood", design="MESQ/SR",
                       bytes_per_job=256 << 10,
                       mean_interarrival_ns=1_000, jobs=6),
            TenantSpec(name="late", design="MESQ/SR",
                       bytes_per_job=256 << 10,
                       mean_interarrival_ns=8_000_000, jobs=2),
        ]
        service, report = run_service(cluster, tenants, policy=policy,
                                      max_concurrent=1, seed=1)
        assert report["failed"] == []
        return report["completion_order"]

    def test_fair_share_serves_latecomer_before_flood_drains(self):
        fifo = self._flood_and_latecomer(FifoPolicy())
        fair = self._flood_and_latecomer(FairSharePolicy())
        assert fifo != fair
        assert fair.index("late/0") < fifo.index("late/0")

    def test_fifo_respects_arrival_order(self):
        order = self._flood_and_latecomer(FifoPolicy())
        flood = [name for name in order if name.startswith("flood")]
        assert flood == [f"flood/{i}" for i in range(6)]


class TestDeterminism:
    """Identical seeds must reproduce identical completion order and
    per-tenant metrics, for every admission policy."""

    def _run_once(self, policy_cls):
        cluster = make_cluster(qp_cache_entries=64)
        quotas = QuotaManager()
        cap = estimate_footprint("MEMQ/SR", 4, 2, num_endpoints=1).qps
        quotas.set_quota("b", max_qps=cap)
        tenants = [TenantSpec(name="a", design="MESQ/SR", **FAST),
                   TenantSpec(name="b", design="MEMQ/SR", **FAST)]
        service, report = run_service(
            cluster, tenants, policy=policy_cls(),
            quotas=quotas, max_concurrent=2, seed=7)
        return report

    @pytest.mark.parametrize("policy_cls", [FairSharePolicy, FifoPolicy],
                             ids=["fair", "fifo"])
    def test_repeated_runs_are_identical(self, policy_cls):
        first = self._run_once(policy_cls)
        second = self._run_once(policy_cls)
        assert first["completion_order"] == second["completion_order"]
        assert json.dumps(first["tenants"], sort_keys=True) == \
            json.dumps(second["tenants"], sort_keys=True)
