"""The shuffle service: open-loop job streams on one shared fabric.

The paper evaluates one shuffle at a time on a dedicated cluster; a
parallel database *service* runs many concurrent queries from several
tenants on one fabric.  :class:`ShuffleService` closes that gap:

* per-tenant arrival processes push :class:`~repro.service.jobs.Job`\\ s
  onto a :class:`~repro.service.jobs.JobQueue` (open loop, seeded
  exponential gaps — deterministic across runs);
* a scheduler sim-process admits jobs under a pluggable admission
  policy (:class:`FifoPolicy` / :class:`FairSharePolicy`) and a
  concurrency limit, optionally arbitrated by a
  :class:`~repro.service.quota.QuotaManager` (defer while a tenant's
  headroom is exhausted);
* each job is *planned* at admission from its tenant's ``design``
  (a design name, ``Design``, ``StagePlan`` or
  :class:`~repro.core.policy.AdaptivePolicy`) and a
  :class:`~repro.core.policy.StageContext` of the cluster and the
  tenant's caps: the plan names the design and clamps the endpoint
  count under the caps (an MQ tenant degrades toward SQ rather than
  monopolizing the NIC's context cache);
* each admitted job builds a tenant-tagged
  :class:`~repro.core.stage.ShuffleStage` from its plan, runs the §5.1
  repartition fragments, harvests per-tenant transport stats (bytes,
  credit stalls, QP-cache misses), and tears the stage down (PR 7
  dispose discipline) so the next job starts from clean NIC state.

Everything is simulated time; repeated runs with one seed reproduce the
same completion order and metrics bit-for-bit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.checks import count, validate
from repro.cluster import Cluster
from repro.core.endpoint import EndpointConfig
from repro.core.groups import TransmissionGroups
from repro.core.policy import StageContext, StagePlan, resolve_plan
from repro.core.synthetic import SyntheticShuffle
from repro.engine.fragment import run_fragments
from repro.sim import AllOf
from repro.telemetry.metrics import latency_summary

from repro.service.jobs import Job, JobQueue, TenantSpec
from repro.service.quota import (
    Footprint,
    QuotaExceededError,
    QuotaManager,
    TenantQuota,
    estimate_footprint,
)

__all__ = [
    "ServiceConfig",
    "FifoPolicy",
    "FairSharePolicy",
    "ShuffleService",
]


#: quiesce window between a job's last fragment completing and its
#: stage teardown: trailing completions (RC acks, credit write-backs)
#: must land while the job's QPs and MRs still exist.
TEARDOWN_GRACE_NS = 2_000_000


@dataclass(frozen=True)
class ServiceConfig:
    """Scheduler tunables."""

    #: jobs allowed in flight simultaneously (placement slots).
    max_concurrent: int = count(1, default=2)
    #: seed for the per-tenant arrival processes.
    seed: int = count(0, default=1)

    __post_init__ = validate


class FifoPolicy:
    """Strict arrival order; a blocked head of line blocks everyone."""

    name = "fifo"

    def pick(self, service: "ShuffleService",
             pending: List[Job]) -> Optional[Job]:
        if not pending:
            return None
        head = pending[0]
        return head if service.headroom_ok(head) else None


class FairSharePolicy:
    """Least-served tenant first, skipping quota-blocked jobs.

    "Served" counts admitted jobs; ties break on tenant name, then
    arrival order — fully deterministic.
    """

    name = "fair"

    def pick(self, service: "ShuffleService",
             pending: List[Job]) -> Optional[Job]:
        candidates = [job for job in pending if service.headroom_ok(job)]
        if not candidates:
            return None
        return min(candidates, key=lambda job: (
            service.started_by_tenant.get(job.tenant.name, 0),
            job.tenant.name,
            job.arrival_ns,
            job.index,
        ))


class ShuffleService:
    """Run N tenants' open-loop shuffle streams on one shared cluster."""

    def __init__(self, cluster: Cluster, tenants: List[TenantSpec],
                 policy: Optional[Any] = None,
                 quotas: Optional[QuotaManager] = None,
                 config: Optional[ServiceConfig] = None):
        names = [t.name for t in tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names: {names}")
        self.cluster = cluster
        self.sim = cluster.sim
        self.tenants = list(tenants)
        self.policy = policy if policy is not None else FifoPolicy()
        self.config = config or ServiceConfig()
        self.quotas = quotas
        if quotas is not None:
            cluster.enable_quotas(quotas)
        self.queue = JobQueue(self.sim)
        #: jobs in completion order (the determinism-regression surface).
        self.completed: List[Job] = []
        self.completion_order: List[str] = []
        self.failed: List[Job] = []
        self.started_by_tenant: Dict[str, int] = {}
        self.running = 0
        #: plans made, one per admitted job (harvested by callback below).
        self.policy_decisions = 0
        #: footprints reserved by admitted-but-unfinished jobs, so two
        #: concurrent admissions of one tenant cannot overshoot its cap.
        self._reserved: Dict[str, List[Footprint]] = {}
        # Context misses per QPN (QPNs are cluster-unique and never
        # reused, so per-job attribution is exact after the fact).
        cluster.telemetry.enable_qp_miss_map()
        callbacks = cluster.telemetry.callbacks
        callbacks["service.policy_decisions"] = lambda: self.policy_decisions
        callbacks["service_tenants"] = self._telemetry_callback

    # -- planning & quota headroom ------------------------------------------

    def stage_context(self, tenant: TenantSpec) -> StageContext:
        """The :class:`StageContext` a job of ``tenant`` plans against:
        cluster shape and the tenant's quota caps (the clamping
        inputs)."""
        quota = self.quotas.quota(tenant.name) \
            if self.quotas is not None else TenantQuota()
        return StageContext.from_cluster(
            self.cluster,
            bytes_per_node=tenant.bytes_per_job,
            max_qps=quota.max_qps,
        )

    def plan_for(self, tenant: TenantSpec) -> StagePlan:
        """Plan one job of ``tenant`` right now (clamping included)."""
        return resolve_plan(tenant.design, self.stage_context(tenant))

    def job_footprint(self, job: Job, plan: StagePlan) -> Footprint:
        return estimate_footprint(
            plan.design, self.cluster.num_nodes,
            self.cluster.threads_per_node,
            num_endpoints=plan.num_endpoints)

    def headroom_ok(self, job: Job) -> bool:
        """May ``job`` be admitted right now under its tenant's caps?"""
        if self.quotas is None:
            return True
        tenant = job.tenant.name
        plan = self.plan_for(job.tenant)
        if not plan.runnable:
            return False
        fp = self.job_footprint(job, plan)
        reserved = self._reserved.get(tenant, [])
        combined = Footprint(qps=fp.qps + sum(r.qps for r in reserved))
        ok = self.quotas.can_admit(tenant, combined)
        if not ok:
            job.deferrals += 1
        return ok

    # -- the sim processes --------------------------------------------------

    def run(self) -> Dict[str, Any]:
        """Drive the whole service run to completion; returns the report."""
        return self.cluster.run_process(self._main(), name="service")

    def _main(self):
        sim = self.sim
        arrivals = [
            sim.process(self._arrivals(idx, tenant),
                        name=f"arrivals-{tenant.name}")
            for idx, tenant in enumerate(self.tenants)
        ]
        scheduler = sim.process(self._scheduler(), name="scheduler")
        yield AllOf(sim, arrivals)
        self.queue.close()
        yield scheduler
        return self.report()

    def _arrivals(self, index: int, tenant: TenantSpec):
        # Seeded by tenant *index*, never by name hashes: str hashes vary
        # with PYTHONHASHSEED and would break run-to-run determinism.
        rng = random.Random(self.config.seed * 1_000_003 + index)
        for i in range(tenant.jobs):
            gap = max(1, int(rng.expovariate(
                1.0 / tenant.mean_interarrival_ns)))
            yield gap
            self.queue.push(Job(tenant=tenant, index=i))

    def _scheduler(self):
        cfg = self.config
        while True:
            while self.running < cfg.max_concurrent:
                job = self.policy.pick(self, self.queue.peek_all())
                if job is None:
                    break
                self.queue.remove(job)
                self._admit(job)
            if self.queue.closed and self.running == 0:
                if not len(self.queue):
                    return
                # Nothing running, nothing admissible, no more arrivals:
                # the remaining jobs can never run (caps below even a
                # clamped single-endpoint footprint).  Fail them loudly
                # rather than hanging the simulation.
                for job in self.queue.peek_all():
                    self.queue.remove(job)
                    job.meta["failed"] = 1
                    self.failed.append(job)
                return
            yield self.queue.wait()

    def _admit(self, job: Job) -> None:
        tenant = job.tenant.name
        job.admitted_ns = self.sim.now
        self.started_by_tenant[tenant] = \
            self.started_by_tenant.get(tenant, 0) + 1
        # Plan once at admission: the same plan backs the reservation,
        # the decision trace, and the stage the job runs.
        plan = self.plan_for(job.tenant)
        self._record_decision(job, plan)
        if self.quotas is not None:
            self._reserved.setdefault(tenant, []).append(
                self.job_footprint(job, plan))
        self.running += 1
        self.sim.process(self._run_job(job, plan), name=f"job-{job.name}")

    def _record_decision(self, job: Job, plan: StagePlan) -> None:
        """Policy-decision telemetry: a counter, job metadata, and a
        trace instant on the scheduler track."""
        self.policy_decisions += 1
        job.meta["design"] = plan.design.name
        tracer = self.cluster.telemetry.tracer
        if tracer is not None:
            tracer.instant(
                0, "scheduler", "policy-decision",
                args={"job": job.name, "design": plan.design.name,
                      "reason": plan.reason})

    def _run_job(self, job: Job, plan: StagePlan):
        cluster = self.cluster
        tenant = job.tenant
        stage = None
        try:
            if not plan.runnable:
                raise QuotaExceededError(
                    f"tenant {tenant.name!r} cannot fit any job under "
                    "its caps")
            config = EndpointConfig(tenant=tenant.name)
            if plan.clamped:
                job.meta["clamped_endpoints"] = plan.num_endpoints
            groups = TransmissionGroups.repartition(cluster.num_nodes)
            stage = cluster.shuffle_stage(plan, groups, config)
            yield from stage.setup()
            shuffle = SyntheticShuffle(cluster)
            elapsed = yield from run_fragments(
                self.sim,
                shuffle.fragments(stage, tenant.bytes_per_job, "svc-"))
            stats = stage.stats()
            job.finished_ns = self.sim.now
            job.meta["service_ns"] = elapsed
            job.qps_created = len(stats.qpns)
            job.bytes_received = sum(s.nbytes for s in shuffle.sinks)
            job.credit_wait_ns = stats.credit_wait_ns
            job.credit_stalls = stats.credit_stalls
            job.qp_cache_misses = self._misses_for(stats.qpns)
            self.completed.append(job)
            self.completion_order.append(job.name)
            yield TEARDOWN_GRACE_NS
        except QuotaExceededError:
            # Admission underestimated (should not happen: the estimator
            # is deliberately generous).  Record and release the job.
            job.meta["failed"] = 1
            job.meta["quota_error"] = 1
            self.failed.append(job)
        finally:
            if stage is not None:
                stage.dispose()
            if self.quotas is not None:
                reserved = self._reserved.get(tenant.name)
                if reserved:
                    reserved.pop()
            self.running -= 1
            self.queue.kick()

    def _misses_for(self, qpns) -> int:
        by_qpn = self.cluster.telemetry.qp_miss_by_qpn
        return sum(by_qpn.get(qpn, 0) for qpn in qpns)

    # -- reporting ----------------------------------------------------------

    def _telemetry_callback(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "completed": {
                t.name: sum(1 for j in self.completed
                            if j.tenant.name == t.name)
                for t in self.tenants
            },
            "pending": self.queue.pending_by_tenant(),
            "running": self.running,
        }
        if self.quotas is not None:
            out["usage"] = self.quotas.snapshot()
        return out

    def tenant_rollup(self) -> Dict[str, Dict[str, Any]]:
        """Per-tenant service metrics: p50/p99 job latency, bytes,
        credit stalls, QP-cache misses, quota counters."""
        rollup: Dict[str, Dict[str, Any]] = {}
        for spec in self.tenants:
            jobs = [j for j in self.completed if j.tenant.name == spec.name]
            latencies = [float(j.latency_ns) for j in jobs]
            entry: Dict[str, Any] = {
                "design": spec.design,
                "jobs_submitted": spec.jobs,
                "jobs_completed": len(jobs),
                "jobs_failed": sum(1 for j in self.failed
                                   if j.tenant.name == spec.name),
                "bytes_received": sum(j.bytes_received for j in jobs),
                "credit_wait_ns": sum(j.credit_wait_ns for j in jobs),
                "credit_stalls": sum(j.credit_stalls for j in jobs),
                "qp_cache_misses": sum(j.qp_cache_misses for j in jobs),
                "deferrals": sum(j.deferrals for j in jobs),
                "queue_wait_ns": sum(j.queue_wait_ns for j in jobs),
                "latency_ns": latency_summary(latencies),
            }
            if self.quotas is not None:
                entry["usage"] = self.quotas.snapshot().get(spec.name, {})
            rollup[spec.name] = entry
        return rollup

    def report(self) -> Dict[str, Any]:
        return {
            "policy": getattr(self.policy, "name", "custom"),
            "quotas": self.quotas is not None,
            "completion_order": list(self.completion_order),
            "tenants": self.tenant_rollup(),
            "failed": [j.name for j in self.failed],
        }
