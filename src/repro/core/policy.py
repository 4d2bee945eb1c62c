"""Per-stage shuffle policy: choosing an endpoint design from context.

The paper's central result is that *no single endpoint design wins
everywhere* (§5, Table 1): the MQ designs dominate while their Queue
Pair working set fits the NIC's context cache and collapse beyond it
(Fig 10/11), RC needs large messages to amortize round trips (Fig 9),
and a single UD Queue Pair serializes under thread contention.  This
module turns that choice into a first-class object:

* :class:`StageContext` — everything known about a stage before it
  runs: cluster shape, message-size estimate, tenant quota caps.
* :class:`StagePlan` — what a stage runs: the design (endpoint kind +
  endpoint count), whether the tenant's caps clamped or forbid it, and
  why.
* :class:`AdaptivePolicy` — ``plan(ctx) -> StagePlan``, the fig8–fig11
  measurement grid as a rule table, a function of the context alone.

A design name or :class:`Design` plans as itself: the fixed design
with the caller's endpoint count and the tenant's quota clamp.  How a
stage's traffic is scheduled is not an endpoint choice and lives with
the runners: the two-phase leaf-spine shuffle is
:func:`repro.bench.workloads.run_hierarchical`, two flat stages.

This module (with :mod:`repro.core.designs`) is the only place that
dispatches on raw design strings.  The boundary rule: public entry
points coerce whatever the caller named (string, :class:`Design`, plan,
policy) once, through :func:`resolve_plan`; below them only a
:class:`StagePlan` travels.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, NamedTuple, Optional, Tuple, Union

from repro.checks import count, validate
from repro.core.designs import DESIGNS, Design, resolve_design
from repro.core.endpoint import EndpointConfig

__all__ = [
    "StageContext",
    "StagePlan",
    "AdaptivePolicy",
    "DesignLike",
    "Footprint",
    "parse_policy",
    "plan_footprint",
    "resolve_plan",
]


# ---------------------------------------------------------------------------
# context
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StageContext:
    """Everything a policy may consult when planning one stage."""

    num_nodes: int
    threads: int
    #: expected transfer message size (the workload's EndpointConfig).
    message_size: int = 64 * 1024
    #: per-node shuffle volume estimate (0: unknown).
    bytes_per_node: int = 0
    #: network parameters the rule table keys on.
    mtu: int = 4096
    qp_cache_entries: int = 1024
    #: tenant quota caps (None: unlimited) — the clamping inputs that
    #: used to live in ``service/scheduler.py``.
    max_qps: Optional[int] = None
    #: caller's endpoint-count override (None: the design's natural k).
    num_endpoints: Optional[int] = None

    @classmethod
    def from_cluster(cls, cluster: Any, *,
                     bytes_per_node: int = 0,
                     config: Optional[EndpointConfig] = None,
                     num_endpoints: Optional[int] = None,
                     max_qps: Optional[int] = None,
                     ) -> "StageContext":
        """Build a context from a live :class:`~repro.cluster.Cluster`."""
        net = cluster.config.network
        return cls(
            num_nodes=cluster.num_nodes,
            threads=cluster.threads_per_node,
            message_size=(config or EndpointConfig()).message_size,
            bytes_per_node=bytes_per_node,
            mtu=net.mtu,
            qp_cache_entries=net.qp_cache_entries,
            max_qps=max_qps,
            num_endpoints=num_endpoints,
        )

    @property
    def capped(self) -> bool:
        return self.max_qps is not None


# ---------------------------------------------------------------------------
# plan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StagePlan:
    """What one stage runs.

    ``design`` is the resolved :class:`~repro.core.designs.Design` (the
    endpoint kind + endpoint-multiplicity pair); a registered name is
    accepted and resolved — eagerly, once — at construction.  The
    workload's :class:`EndpointConfig` travels beside the plan, never
    inside it.
    """

    design: Design
    #: endpoint count (None: the design's natural count).
    num_endpoints: Optional[int] = count(1, default=None)
    #: False: even a single-endpoint stage exceeds the tenant's caps.
    runnable: bool = True
    #: True: ``num_endpoints`` was clamped below the natural count to
    #: fit the tenant's quota (the svc-tenants isolation lever).
    clamped: bool = False
    #: human-readable why (trace events, job metadata, reports).
    reason: str = ""

    def __post_init__(self):
        object.__setattr__(self, "design", resolve_design(self.design))
        validate(self)


# ---------------------------------------------------------------------------
# footprint estimation (moved here from service/quota.py so admission,
# clamping, and planning share one formula)
# ---------------------------------------------------------------------------


class Footprint(NamedTuple):
    """Estimated cluster-wide resource footprint of one job."""

    qps: int


def plan_footprint(design: Union[str, Design], nodes: int, threads: int,
                   num_endpoints: Optional[int] = None) -> Footprint:
    """Generous cluster-wide footprint estimate for one shuffle job.

    The one formula admission (as ``service.estimate_footprint``),
    policy clamping and planning share: it counts the QPs of the
    endpoints the stage builds, then applies a 2x safety margin so
    admission — which compares this estimate against a tenant's
    remaining headroom — over-rejects rather than admitting a job the
    hard verbs-layer cap would kill halfway through setup.  The
    conformance test asserts estimate >= actual for every design.
    """
    d = resolve_design(design)
    k = num_endpoints or d.num_endpoints(threads)
    per_ep_qps = 1 if d.uses_ud else nodes
    qps = 2 * nodes * k * per_ep_qps
    return Footprint(qps=2 * qps)


def _clamp_plan(plan: StagePlan, ctx: StageContext) -> StagePlan:
    """Clamp a plan's endpoint count to fit the tenant's QP cap.

    The isolation lever of the svc-tenants ablation, moved here from
    ``ShuffleService._effective_endpoints``: under a quota the count is
    walked down toward single-endpoint until the estimated footprint of
    one job fits the cap *alone* (an MQ tenant degrades toward SQ
    instead of monopolizing the NIC context cache).  Marks the plan
    ``runnable=False`` when even a single-endpoint job cannot fit.
    """
    if not ctx.capped:
        return plan
    natural = plan.num_endpoints or plan.design.num_endpoints(ctx.threads)
    for candidate in range(natural, 0, -1):
        if plan_footprint(plan.design, ctx.num_nodes, ctx.threads,
                          num_endpoints=candidate).qps > ctx.max_qps:
            continue
        if candidate == natural and plan.num_endpoints is None:
            return plan
        return dataclasses.replace(
            plan, num_endpoints=candidate,
            clamped=candidate < natural,
            reason=(f"{plan.reason}; clamped to k={candidate} under "
                    f"tenant caps" if candidate < natural else plan.reason))
    return dataclasses.replace(
        plan, num_endpoints=1, runnable=False,
        reason=f"{plan.reason}; unrunnable: single-endpoint footprint "
               f"exceeds tenant caps")


# ---------------------------------------------------------------------------
# the policy
# ---------------------------------------------------------------------------


class AdaptivePolicy:
    """Rule-table design selection from the fig8–fig11 measurement grid.

    ``plan`` is a function of the context alone — the same context
    always yields the same plan, which the policy-determinism tests
    assert.  The predictive rules (applied in order; EXPERIMENTS.md
    records the measurements they are fitted to):

    1. *Datagram-sized messages* → ``MESQ/SR``.  At or below the MTU,
       RC pays a round trip per message with nothing to amortize it
       (fig9: the RC designs lose 25–40% of their 64 KiB throughput at
       4 KiB), while UD is built for exactly this message size.
    2. *Starved message windows* → ``MESQ/SR``.  When the per
       thread-destination flow (``bytes_per_node / (threads * nodes)``)
       cannot fill even one configured message, an RC design's deep
       message buffers drain as serialized partial flushes at EOS; UD
       clamps to the MTU and never starves.
    3. *QP-cache pressure* → ``MESQ/SR``.  An MQ design activates about
       ``2·n·t`` Queue Pair contexts per NIC (send + receive operator);
       once that working set reaches a quarter of the context cache,
       eviction churn sets in well before the cache nominally fills
       (aux QPs, both stages resident) and MQ throughput collapses —
       fig10's FDR n=16 cliff (MEMQ/SR 2.9 vs MESQ/SR 5.2 GiB/s) and
       fig11's EDR n=16 dip.  UD keeps one context per endpoint and is
       immune.
    4. otherwise → ``SEMQ/SR``: the cache-resident RC regime, where
       hardware flow control and big messages win (fig8/fig10 at EDR
       n≤8: 10.5–11.0 GiB/s, ahead of or tied with every alternative)
       at moderate resource cost (Table 1).
    """

    #: fraction of the QP context cache an MQ working set may use
    #: before the rules predict thrash.
    cache_pressure = 0.25

    def _rule_pick(self, ctx: StageContext) -> Tuple[str, str]:
        if ctx.message_size <= ctx.mtu:
            return "MESQ/SR", (
                f"rule: {ctx.message_size} B messages fit a UD datagram "
                f"(MTU {ctx.mtu}); RC round trips have nothing to amortize")
        if ctx.bytes_per_node:
            per_flow = ctx.bytes_per_node // (ctx.threads * ctx.num_nodes)
            if ctx.message_size > per_flow:
                return "MESQ/SR", (
                    f"rule: configured {ctx.message_size} B messages never "
                    f"fill (~{per_flow} B per thread-destination flow); an "
                    f"RC window this deep drains as serialized partial "
                    f"flushes while UD clamps to the MTU")
        working_set = 2 * ctx.num_nodes * ctx.threads
        budget = ctx.qp_cache_entries * self.cache_pressure
        if working_set >= budget:
            return "MESQ/SR", (
                f"rule: MQ working set ~{working_set} QPs >= "
                f"{self.cache_pressure:.0%} of the {ctx.qp_cache_entries}-"
                f"entry QP context cache; UD is immune to the thrash")
        return "SEMQ/SR", (
            f"rule: cache-resident RC regime ({working_set} QPs < "
            f"{budget:.0f}); hardware flow control at moderate cost")

    def plan(self, ctx: StageContext) -> StagePlan:
        design, reason = self._rule_pick(ctx)
        plan = StagePlan(design=resolve_design(design),
                         num_endpoints=ctx.num_endpoints, reason=reason)
        return _clamp_plan(plan, ctx)


# ---------------------------------------------------------------------------
# the API-boundary resolver and CLI parsing
# ---------------------------------------------------------------------------

#: what the public entry points accept as a design selector.
DesignLike = Union[str, Design, StagePlan, AdaptivePolicy]


def resolve_plan(selector: DesignLike, ctx: StageContext) -> StagePlan:
    """Coerce a design selector to the :class:`StagePlan` it means.

    The single coercion behind ``Cluster.shuffle_stage``, the workload
    runners, ``run_query`` and the service's tenants: a ready plan is
    taken as is (the caller's endpoint count fills in only where the
    plan names none), the policy plans against ``ctx``, and a design
    name or :class:`Design` plans as itself — only the caller's endpoint
    count and the tenant's quota clamp.  An unknown design name raises
    :class:`UnknownDesignError` here.
    """
    if isinstance(selector, AdaptivePolicy):
        return selector.plan(ctx)
    if isinstance(selector, StagePlan):
        if selector.num_endpoints is None and ctx.num_endpoints is not None:
            return dataclasses.replace(
                selector, num_endpoints=ctx.num_endpoints)
        return selector
    design = resolve_design(selector)
    return _clamp_plan(StagePlan(
        design, num_endpoints=ctx.num_endpoints,
        reason=f"static: fixed design {design.name}"), ctx)


def parse_policy(spec: str) -> Union[str, AdaptivePolicy]:
    """Turn a ``--policy`` argument into a design selector.

    Accepts ``adaptive`` (a fresh :class:`AdaptivePolicy`), or
    ``static:<DESIGN>`` or a bare design name (the design name).
    """
    if spec == "adaptive":
        return AdaptivePolicy()
    name = spec[len("static:"):] if spec.startswith("static:") else spec
    if name in DESIGNS:
        return name
    raise ValueError(
        f"unknown policy {spec!r}; expected adaptive, static:<DESIGN> "
        f"or a design name ({', '.join(sorted(DESIGNS))})")
