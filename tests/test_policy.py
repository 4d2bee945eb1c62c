"""Tests for the shuffle-policy layer (repro.core.policy).

Covers the policy-layer guarantees: plans are deterministic functions
of their context, a design name plans bit-identically to the bare
design, design/kind validation is eager with actionable errors, the
adaptive rule table fires as documented, the two-phase runner
round-trips every byte, and the quota clamp lives behind
``resolve_plan``.
"""

import dataclasses

import pytest

from repro import Cluster, ClusterConfig, EDR, LEAF_SPINE, TransmissionGroups
from repro.bench.workloads import run_hierarchical, run_repartition
from repro.core.designs import DESIGNS, UnknownDesignError, resolve_design
from repro.core.endpoint import EndpointConfig
from repro.core.policy import (
    AdaptivePolicy,
    StageContext,
    StagePlan,
    parse_policy,
    plan_footprint,
    resolve_plan,
)
from repro.service import (
    QuotaManager,
    ServiceConfig,
    ShuffleService,
    TenantSpec,
)


def make_cluster(nodes=4, threads=2, network=EDR, topology=None,
                 qp_cache_entries=None):
    config = ClusterConfig(network=network, num_nodes=nodes,
                           threads_per_node=threads)
    if topology is not None:
        config = dataclasses.replace(config, topology=topology)
    if qp_cache_entries is not None:
        config = config.with_network(qp_cache_entries=qp_cache_entries)
    return Cluster(config)


def make_context(nodes=8, threads=8, message_size=64 * 1024,
                 qp_cache_entries=1024, **kwargs):
    """A StageContext without a live cluster (rule-table unit tests)."""
    return StageContext(num_nodes=nodes, threads=threads,
                        message_size=message_size,
                        qp_cache_entries=qp_cache_entries, **kwargs)


# ---------------------------------------------------------------------------
# parsing & eager validation
# ---------------------------------------------------------------------------


class TestParsePolicy:
    def test_registered_names(self):
        """``adaptive`` is the one policy; the two-phase shuffle is a
        runner, not a design selector."""
        assert isinstance(parse_policy("adaptive"), AdaptivePolicy)
        with pytest.raises(ValueError, match="unknown policy"):
            parse_policy("hierarchical")

    def test_static_prefix_and_bare_design(self):
        assert parse_policy("static:SEMQ/SR") == "SEMQ/SR"
        assert parse_policy("MESQ/SR") == "MESQ/SR"

    def test_unknown_spec_lists_options(self):
        with pytest.raises(ValueError) as exc:
            parse_policy("bogus")
        message = str(exc.value)
        assert "adaptive" in message
        assert "static:<DESIGN>" in message
        assert "MESQ/SR" in message

    def test_cli_rejects_bad_policy_before_running(self):
        from repro.bench.cli import main
        with pytest.raises(SystemExit):
            main(["fig8", "--policy", "bogus"])

    def test_cli_rejects_hierarchical_policy(self, capsys):
        from repro.bench.cli import main
        with pytest.raises(SystemExit) as exc:
            main(["abl-adaptive", "--policy", "hierarchical"])
        assert exc.value.code == 2
        assert "unknown policy 'hierarchical'" in capsys.readouterr().err


class TestEagerValidation:
    def test_shuffle_stage_rejects_unknown_design(self):
        cluster = make_cluster(nodes=2)
        groups = TransmissionGroups.repartition(2)
        with pytest.raises(UnknownDesignError) as exc:
            cluster.shuffle_stage("NOPE/XX", groups)
        message = str(exc.value)
        # The error must name every registered design and endpoint kind.
        for design in DESIGNS:
            assert design in message
        assert "registered endpoint kinds" in message
        assert "SR_UD" in message

    def test_stage_plan_rejects_unknown_design_at_construction(self):
        with pytest.raises(UnknownDesignError):
            StagePlan(design="NOPE/XX")

    @pytest.mark.parametrize("bad", [0, -1, -2])
    def test_bad_endpoint_counts_name_the_field(self, bad):
        """A non-positive count fails at the plan, naming num_endpoints —
        not as a negative ceil-division deep in the config derivation,
        and 0 is not silently the natural count."""
        cluster = make_cluster(nodes=2)
        with pytest.raises(ValueError, match="num_endpoints"):
            StagePlan("MESQ/SR", num_endpoints=bad)
        with pytest.raises(ValueError, match="num_endpoints"):
            TenantSpec("t", design=StagePlan("MEMQ/SR", num_endpoints=bad))
        with pytest.raises(ValueError, match="num_endpoints"):
            run_repartition(cluster, "MESQ/SR", num_endpoints=bad)


# ---------------------------------------------------------------------------
# determinism (same context + seed -> identical plans and run digests)
# ---------------------------------------------------------------------------


LEAF4X2 = LEAF_SPINE(oversubscription=2, nodes_per_leaf=2)


class TestPlanDeterminism:
    def context_pair(self, **kwargs):
        a = make_cluster(**kwargs)
        b = make_cluster(**kwargs)
        return StageContext.from_cluster(a), StageContext.from_cluster(b)

    def test_contexts_from_identical_clusters_are_equal(self):
        ctx_a, ctx_b = self.context_pair(nodes=4, threads=2)
        assert ctx_a == ctx_b

    @pytest.mark.parametrize("policy_factory", [
        lambda: "SEMQ/SR",
        AdaptivePolicy,
    ])
    def test_same_context_same_plan(self, policy_factory):
        ctx_a, ctx_b = self.context_pair(nodes=4, threads=2,
                                         topology=LEAF4X2)
        assert resolve_plan(policy_factory(), ctx_a) == \
            resolve_plan(policy_factory(), ctx_b)

    @pytest.mark.parametrize("selector", [
        AdaptivePolicy,
        lambda: resolve_design("MESQ/SR"),
    ])
    def test_run_digests_are_bit_identical(self, selector):
        def digest():
            cluster = make_cluster(nodes=2, threads=2)
            result = run_repartition(cluster, selector(),
                                     bytes_per_node=1 << 20)
            return dataclasses.asdict(result)
        assert digest() == digest()

    def test_hierarchical_run_digest_is_bit_identical(self):
        def digest():
            cluster = make_cluster(nodes=4, threads=2, topology=LEAF4X2)
            result = run_hierarchical(cluster, "MESQ/SR",
                                      bytes_per_node=2 << 20)
            return dataclasses.asdict(result)
        assert digest() == digest()


class TestStaticBitIdentity:
    """A resolved Design and an override-free StagePlan must reproduce
    the design-string path bit-for-bit."""

    @pytest.mark.parametrize("design", ["MESQ/SR", "SEMQ/SR"])
    @pytest.mark.parametrize("selector", [
        lambda d: resolve_design(d),
        lambda d: StagePlan(design=d),
    ])
    def test_selector_matches_design_string(self, design, selector):
        def run(chooser):
            cluster = make_cluster(nodes=2, threads=2)
            result = run_repartition(cluster, chooser,
                                     bytes_per_node=1 << 20)
            return dataclasses.asdict(result)
        assert run(design) == run(selector(design))

    @pytest.mark.parametrize("design", ["MPI", "IPoIB"])
    def test_baselines_run_through_the_policy_path(self, design):
        """MPI and IPoIB are ordinary designs: name, Design, plan and
        ``--policy static:`` spelling all reach the same stage."""
        def run(chooser):
            cluster = make_cluster(nodes=2, threads=2)
            result = run_repartition(cluster, chooser,
                                     bytes_per_node=1 << 20)
            return dataclasses.asdict(result)
        by_name = run(design)
        assert by_name["design"] == design
        assert by_name["total_received_bytes"] >= 2 << 20
        assert run(resolve_design(design)) == by_name
        assert run(StagePlan(design)) == by_name
        assert run(parse_policy(f"static:{design}")) == by_name

    def test_unknown_design_error_always_lists_the_baselines(self):
        # A fresh interpreter that imports nothing but the design table:
        # the known-design list must not depend on what was imported.
        import os
        import subprocess
        import sys

        import repro
        code = ("from repro.core.designs import resolve_design\n"
                "try:\n    resolve_design('NOPE/XX')\n"
                "except KeyError as exc:\n    print(exc)\n")
        src = os.path.dirname(os.path.dirname(repro.__file__))
        out = subprocess.run(
            [sys.executable, "-c", code], check=True, capture_output=True,
            text=True, env={**os.environ, "PYTHONPATH": src}).stdout
        for name in ("MPI", "IPoIB", "MESQ/SR", "IPOIB", "SR_UD"):
            assert name in out


# ---------------------------------------------------------------------------
# the adaptive rule table
# ---------------------------------------------------------------------------


class TestAdaptiveRules:
    def test_datagram_sized_messages_pick_ud(self):
        plan = AdaptivePolicy().plan(make_context(message_size=4096))
        assert plan.design.name == "MESQ/SR"
        assert "datagram" in plan.reason

    def test_starved_windows_pick_ud(self):
        # 2 MiB over 8x8 flows is ~32 KiB per flow: a 1 MiB RC message
        # never fills and the window drains as serialized EOS flushes.
        ctx = make_context(message_size=1 << 20, bytes_per_node=2 << 20)
        plan = AdaptivePolicy().plan(ctx)
        assert plan.design.name == "MESQ/SR"
        assert "never" in plan.reason

    def test_qp_cache_pressure_picks_ud(self):
        # FDR's 144-entry cache: 2*16*8 = 256 QPs >> the 25% budget.
        ctx = make_context(nodes=16, qp_cache_entries=144)
        plan = AdaptivePolicy().plan(ctx)
        assert plan.design.name == "MESQ/SR"
        assert "cache" in plan.reason

    def test_cache_resident_regime_picks_rc(self):
        # EDR n=8 t=8: 128 QPs < 25% of 1024 entries -> SEMQ/SR.
        plan = AdaptivePolicy().plan(make_context())
        assert plan.design.name == "SEMQ/SR"


def spy_stages(cluster):
    """Record every stage ``cluster.shuffle_stage`` builds."""
    built = []
    build = cluster.shuffle_stage

    def recording(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    cluster.shuffle_stage = recording
    return built


class TestHierarchicalPolicy:
    """The two-phase schedule :func:`run_hierarchical` derives from the
    cluster's topology."""

    def test_flat_fallback_off_leaf_spine(self):
        cluster = make_cluster(nodes=4, threads=2)
        built = spy_stages(cluster)
        result = run_hierarchical(cluster, "MESQ/SR",
                                  bytes_per_node=1 << 20)
        assert result.design == "MESQ/SR"
        assert [stage.design.name for stage in built] == ["MESQ/SR"]

    def test_two_phase_plan_shape(self):
        cluster = make_cluster(
            nodes=8, threads=2,
            topology=LEAF_SPINE(oversubscription=4, nodes_per_leaf=4))
        built = spy_stages(cluster)
        base = EndpointConfig(message_size=4096)
        result = run_hierarchical(cluster, "MESQ/SR",
                                  bytes_per_node=1 << 20, config=base)
        intra, inter = built
        assert intra.design.name == "MESQ/SR"
        assert inter.design.name == "SEMQ/SR"
        assert inter.config.buffers_per_connection == 16
        # Inter-leaf streams run at the Fig 9 sweet spot or above.
        assert inter.config.message_size == 64 * 1024
        # 4 nodes/leaf at 4:1 -> the floor of two concurrent streams.
        assert result.design == "MESQ/SR+SEMQ/SR/hier(x2)"

    def test_concurrency_matches_trunk_rate(self):
        cluster = make_cluster(
            nodes=16, threads=1,
            topology=LEAF_SPINE(oversubscription=2, nodes_per_leaf=8))
        result = run_hierarchical(cluster, "MESQ/SR",
                                  bytes_per_node=256 << 10)
        assert result.design.endswith("/hier(x4)")


# ---------------------------------------------------------------------------
# quota clamp & footprint conformance (the logic deduped out of
# service/scheduler.py and service/quota.py)
# ---------------------------------------------------------------------------


class TestQuotaClamp:
    def natural_footprint(self, threads=2):
        return plan_footprint("MEMQ/SR", 3, threads)

    def test_uncapped_context_never_clamps(self):
        plan = resolve_plan("MEMQ/SR", make_context(nodes=3, threads=2))
        assert not plan.clamped
        assert plan.runnable
        assert plan.num_endpoints is None

    def test_tight_cap_walks_endpoints_down(self):
        single_qps = plan_footprint("MEMQ/SR", 3, 2, num_endpoints=1).qps
        natural_qps = self.natural_footprint().qps
        assert single_qps < natural_qps
        ctx = make_context(nodes=3, threads=2, max_qps=single_qps)
        plan = resolve_plan("MEMQ/SR", ctx)
        assert plan.clamped
        assert plan.runnable
        assert plan.num_endpoints == 1
        assert "clamped" in plan.reason

    def test_impossible_cap_marks_unrunnable(self):
        single_qps = plan_footprint("MEMQ/SR", 3, 2, num_endpoints=1).qps
        ctx = make_context(nodes=3, threads=2, max_qps=single_qps - 1)
        plan = resolve_plan("MEMQ/SR", ctx)
        assert not plan.runnable
        assert "unrunnable" in plan.reason

    def test_plan_footprint_covers_stage_with_overrides(self):
        # The conformance guarantee must survive a deep-window config
        # (the inter-leaf stage's), not just defaults.
        nodes, threads = 3, 2
        cluster = make_cluster(nodes=nodes, threads=threads)
        quotas = QuotaManager()
        cluster.enable_quotas(quotas)
        config = EndpointConfig(buffers_per_connection=16, tenant="t")
        stage = cluster.shuffle_stage(
            "SEMQ/SR", TransmissionGroups.repartition(nodes), config=config)
        cluster.run_process(stage.setup(), name="setup")
        qps = plan_footprint("SEMQ/SR", nodes, threads).qps
        assert quotas.usage("t").peak_qps <= qps
        stage.dispose()


# ---------------------------------------------------------------------------
# the two-phase (hierarchical) runner
# ---------------------------------------------------------------------------


class TestHierarchicalRunner:
    def test_every_byte_lands(self):
        cluster = make_cluster(nodes=4, threads=2, topology=LEAF4X2)
        volume = 2 << 20
        result = run_hierarchical(cluster, "MESQ/SR", bytes_per_node=volume)
        assert "hier" in result.design
        assert result.elapsed_ns > 0
        # Per-thread volumes floor up to the template batch, so received
        # bytes can only exceed the nominal total.
        assert result.total_received_bytes >= 4 * volume
        assert result.total_received_rows > 0
        # Both stages' resources are accounted.
        assert result.qps_per_node > 0
        assert result.registered_bytes_per_node > 0

    def test_single_leaf_falls_back_to_flat(self):
        # All four nodes share one leaf: no trunk, so the two-phase
        # runner runs the intra design flat.
        cluster = make_cluster(
            nodes=4, threads=2,
            topology=LEAF_SPINE(oversubscription=2, nodes_per_leaf=4))
        result = run_hierarchical(cluster, "MESQ/SR", bytes_per_node=1 << 20)
        assert result.design == "MESQ/SR"
        assert result.total_received_bytes >= 4 * (1 << 20)


# ---------------------------------------------------------------------------
# service integration: a tenant's design may be a policy
# ---------------------------------------------------------------------------


class TestServiceAdaptiveSwitch:
    def test_adaptive_tenant_switches_under_neighbour_thrash(self):
        """An adaptive tenant plans from its context alone: its own
        working set fits the 64-entry cache, so every job runs the RC
        design even while an MEMQ/SR aggressor thrashes the shared
        cache — recorded per job in ``job.meta['design']``."""
        cluster = make_cluster(nodes=4, threads=1, qp_cache_entries=64)
        tenants = [
            TenantSpec("adapt", design=AdaptivePolicy(),
                       bytes_per_job=256 << 10,
                       mean_interarrival_ns=1_000_000, jobs=4),
            TenantSpec("mq", design="MEMQ/SR", bytes_per_job=512 << 10,
                       mean_interarrival_ns=500_000, jobs=4),
        ]
        service = ShuffleService(cluster, tenants,
                                 config=ServiceConfig(max_concurrent=2))
        report = service.run()
        assert report["failed"] == []
        jobs = [j for j in service.completed if j.tenant.name == "adapt"]
        assert len(jobs) == 4
        # The rules pick RC (2*4*1 = 8 QPs < 16-entry budget), and the
        # neighbour's thrash does not feed back into later plans.
        assert [j.meta["design"] for j in jobs] == ["SEMQ/SR"] * 4

    def test_static_tenants_record_their_fixed_design(self):
        cluster = make_cluster(nodes=2, threads=2)
        tenants = [TenantSpec("t", design="SEMQ/SR",
                              bytes_per_job=256 << 10, jobs=2)]
        service = ShuffleService(cluster, tenants)
        service.run()
        assert [j.meta["design"] for j in service.completed] == \
            ["SEMQ/SR", "SEMQ/SR"]

