"""Tenants, jobs, and the arrival queue of the shuffle service.

A *tenant* is a traffic class: a shuffle design (or a policy that
plans one per job), a per-job volume, and an open-loop arrival rate.
A *job* is one shuffle query submitted by a tenant — the unit the
scheduler admits, places, runs, and accounts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.checks import count, validate
from repro.core.policy import DesignLike
from repro.sim import Notify, Simulator

__all__ = ["TenantSpec", "Job", "JobQueue"]


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's traffic class."""

    name: str
    #: what plans this tenant's queries: a design name, a ``Design``, a
    #: ``StagePlan`` or an ``AdaptivePolicy`` (coerced per job through
    #: :func:`~repro.core.policy.resolve_plan`).
    design: DesignLike = "MESQ/SR"
    #: per-node shuffle volume of one job.
    bytes_per_job: int = count(1, default=2 << 20)
    #: open-loop mean inter-arrival gap (exponential); the offered-load
    #: knob of the svc-tenants ablation.
    mean_interarrival_ns: int = count(1, default=3_000_000)
    #: jobs this tenant submits over the run.
    jobs: int = count(0, default=4)

    __post_init__ = validate


@dataclass
class Job:
    """One shuffle query moving through the service."""

    tenant: TenantSpec
    #: per-tenant sequence number (0-based).
    index: int
    #: simulated timestamps, -1 until reached.
    arrival_ns: int = -1
    admitted_ns: int = -1
    finished_ns: int = -1
    #: times admission deferred this job (quota headroom exhausted).
    deferrals: int = 0
    #: harvested transport stats (filled at completion).
    bytes_received: int = 0
    credit_wait_ns: int = 0
    credit_stalls: int = 0
    qp_cache_misses: int = 0
    qps_created: int = 0
    #: extra bookkeeping policies may attach (counters, the executed
    #: plan's design/reason, failure flags).
    meta: Dict[str, Any] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return f"{self.tenant.name}/{self.index}"

    @property
    def latency_ns(self) -> int:
        """Arrival-to-completion time (queueing + service)."""
        if self.finished_ns < 0 or self.arrival_ns < 0:
            raise RuntimeError(f"job {self.name} has not completed")
        return self.finished_ns - self.arrival_ns

    @property
    def queue_wait_ns(self) -> int:
        if self.admitted_ns < 0 or self.arrival_ns < 0:
            raise RuntimeError(f"job {self.name} was never admitted")
        return self.admitted_ns - self.arrival_ns


class JobQueue:
    """Arrival-ordered queue of pending jobs with a wakeup signal.

    ``push`` never blocks (open-loop arrivals); the scheduler blocks on
    :meth:`wait` and drains via a policy's pick.  Arrival order is the
    deterministic tie-break every admission policy shares.
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._pending: List[Job] = []
        self._signal = Notify(sim)
        #: True once every tenant's arrival process has finished.
        self.closed = False

    def __len__(self) -> int:
        return len(self._pending)

    def push(self, job: Job) -> None:
        job.arrival_ns = self.sim.now
        self._pending.append(job)
        self._signal.notify_all()

    def close(self) -> None:
        """No further arrivals; wake the scheduler so it can drain."""
        self.closed = True
        self._signal.notify_all()

    def wait(self):
        """Event fired on the next arrival (or close)."""
        return self._signal.wait()

    def kick(self) -> None:
        """Wake the scheduler without an arrival (job completion may
        have freed quota headroom for a deferred job)."""
        self._signal.notify_all()

    def peek_all(self) -> List[Job]:
        """The pending jobs in arrival order (policies must not mutate)."""
        return list(self._pending)

    def remove(self, job: Job) -> None:
        self._pending.remove(job)

    def pending_by_tenant(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for job in self._pending:
            counts[job.tenant.name] = counts.get(job.tenant.name, 0) + 1
        return counts
