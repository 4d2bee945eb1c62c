"""Per-tenant resource quotas for the multi-tenant shuffle service.

RDMA state is a shared, finite resource: QP contexts compete for the
NIC's context cache and registered buffers pin host memory (§2.2, Fig 2).
When several tenants share one fabric, a single tenant picking an
MQ-style design can create O(n·t) Queue Pairs and thrash the cache for
everyone (the Fig 10/11 degradation mechanism, now cross-tenant).  The
:class:`QuotaManager` makes that arbitration explicit:

* it is installed on the fabric via ``Cluster.enable_quotas()`` and
  called by the verbs layer (duck-typed, like the sanitizer hook) for
  every tenant-tagged QP creation/destruction and MR (de)registration;
* a hard QP cap turns an over-budget creation into a
  :class:`QuotaExceededError` *at the verbs layer* — the backstop;
* admission control uses :func:`estimate_footprint` — a deliberately
  generous over-approximation of a job's cluster-wide footprint — so an
  admitted job never trips the backstop mid-setup.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.core.policy import Footprint, plan_footprint

__all__ = [
    "Footprint",
    "QuotaExceededError",
    "TenantUsage",
    "QuotaManager",
    "estimate_footprint",
]


class QuotaExceededError(RuntimeError):
    """A tenant attempted to exceed its QP cap."""


@dataclass
class TenantUsage:
    """Live cluster-wide resource usage of one tenant."""

    qps: int = 0
    registered_bytes: int = 0
    #: high-water marks (reported by the per-tenant rollups).
    peak_qps: int = 0
    peak_registered_bytes: int = 0
    #: creations refused by the hard cap.
    qp_denials: int = 0


@dataclass
class TenantQuota:
    """Caps for one tenant; ``None`` means unlimited."""

    max_qps: Optional[int] = None


class QuotaManager:
    """Cluster-wide per-tenant QP and registered-memory accounting;
    only QPs are capped.

    Resources tagged with ``tenant=None`` (single-query benchmarks, the
    baselines) are never charged, so installing a manager on a fabric
    is free for non-service workloads.
    """

    def __init__(self):
        self._quotas: Dict[str, TenantQuota] = {}
        self._usage: Dict[str, TenantUsage] = {}

    # -- configuration -----------------------------------------------------

    def set_quota(self, tenant: str, max_qps: Optional[int] = None) -> None:
        """Cap ``tenant``'s cluster-wide QP count."""
        self._quotas[tenant] = TenantQuota(max_qps)

    def quota(self, tenant: str) -> TenantQuota:
        return self._quotas.get(tenant, TenantQuota())

    def usage(self, tenant: str) -> TenantUsage:
        account = self._usage.get(tenant)
        if account is None:
            account = self._usage[tenant] = TenantUsage()
        return account

    # -- admission ---------------------------------------------------------

    def can_admit(self, tenant: str, footprint: Footprint) -> bool:
        """Would ``footprint`` fit under ``tenant``'s caps right now?"""
        max_qps = self.quota(tenant).max_qps
        return max_qps is None or \
            self.usage(tenant).qps + footprint.qps <= max_qps

    # -- verbs-layer hooks (duck-typed; see repro.verbs.device) -------------

    def on_qp_created(self, node_id: int, tenant: Optional[str],
                      qp: Any) -> None:
        if tenant is None:
            return
        quota = self.quota(tenant)
        account = self.usage(tenant)
        if quota.max_qps is not None and account.qps + 1 > quota.max_qps:
            account.qp_denials += 1
            raise QuotaExceededError(
                f"tenant {tenant!r}: QP cap {quota.max_qps} reached "
                f"(node {node_id})")
        account.qps += 1
        account.peak_qps = max(account.peak_qps, account.qps)

    def on_qp_destroyed(self, node_id: int, tenant: Optional[str],
                        qp: Any) -> None:
        if tenant is None:
            return
        self.usage(tenant).qps -= 1

    def on_mr_registered(self, node_id: int, tenant: Optional[str],
                         mr: Any) -> None:
        if tenant is None:
            return
        account = self.usage(tenant)
        account.registered_bytes += mr.length
        account.peak_registered_bytes = max(
            account.peak_registered_bytes, account.registered_bytes)

    def on_mr_deregistered(self, node_id: int, tenant: Optional[str],
                           mr: Any) -> None:
        if tenant is None:
            return
        self.usage(tenant).registered_bytes -= mr.length

    # -- reporting ---------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, int]]:
        """JSON-ready per-tenant usage (telemetry callback payload)."""
        return {
            tenant: {
                "qps": account.qps,
                "registered_bytes": account.registered_bytes,
                "peak_qps": account.peak_qps,
                "peak_registered_bytes": account.peak_registered_bytes,
                "qp_denials": account.qp_denials,
            }
            for tenant, account in sorted(self._usage.items())
        }


#: the admission-side name of the one shared footprint formula.
estimate_footprint = plan_footprint
