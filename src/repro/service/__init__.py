"""Multi-tenant shuffle service: scheduler, admission, quotas.

A job/scheduler layer above :class:`~repro.cluster.Cluster` that runs an
open-loop stream of shuffle jobs from N tenants on one shared fabric,
with pluggable admission policies and per-tenant QP quota caps
enforced through the verbs layer.
"""

from repro.service.jobs import Job, JobQueue, TenantSpec
from repro.service.quota import (
    Footprint,
    QuotaExceededError,
    QuotaManager,
    TenantUsage,
    estimate_footprint,
)
from repro.service.scheduler import (
    FairSharePolicy,
    FifoPolicy,
    ServiceConfig,
    ShuffleService,
)

__all__ = [
    "Job",
    "JobQueue",
    "TenantSpec",
    "Footprint",
    "QuotaExceededError",
    "QuotaManager",
    "TenantUsage",
    "estimate_footprint",
    "FairSharePolicy",
    "FifoPolicy",
    "ServiceConfig",
    "ShuffleService",
]
