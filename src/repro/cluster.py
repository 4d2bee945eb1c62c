"""Convenience bundle: simulator + fabric + verbs contexts + registry.

Most examples, tests and benchmarks start from a :class:`Cluster`:

>>> from repro import Cluster, ClusterConfig, EDR
>>> cluster = Cluster(ClusterConfig(network=EDR, num_nodes=8))
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.fabric.config import ClusterConfig
from repro.fabric.network import Fabric, Node
from repro.sim import Simulator
from repro.telemetry.core import Telemetry
from repro.telemetry.session import current_session
from repro.telemetry.trace import Tracer
from repro.verbs.cm import EndpointRegistry
from repro.verbs.device import VerbsContext

__all__ = ["Cluster"]


class Cluster:
    """A ready-to-use simulated cluster."""

    def __init__(self, config: ClusterConfig):
        self.config = config
        self.sim = Simulator()
        # When a telemetry session is active (e.g. repro-bench --metrics /
        # --trace), every cluster built under it reports automatically.
        session = current_session()
        if session is not None:
            self.telemetry = session.attach(self.sim, config.num_nodes)
        else:
            self.telemetry = Telemetry(self.sim, config.num_nodes)
        self.fabric = Fabric(self.sim, config, telemetry=self.telemetry)
        self.contexts: List[VerbsContext] = [
            VerbsContext(self.sim, self.fabric, i)
            for i in range(config.num_nodes)
        ]
        self.registry = EndpointRegistry()
        self._disposed = False
        if session is not None and session.sanitize:
            self.enable_sanitizer()

    def enable_sanitizer(self, strict: bool = False):
        """Attach the runtime protocol sanitizer to this cluster.

        Idempotent.  With ``strict=True`` the first violation raises
        :class:`~repro.analysis.sanitizer.ProtocolViolationError`; the
        default records violations for inspection via
        ``cluster.sanitizer.report()``.
        """
        telemetry = self.telemetry
        if telemetry.sanitizer is None:
            # Imported lazily: clusters that never sanitize pay nothing.
            from repro.analysis.sanitizer import Sanitizer
            telemetry.enable_sanitizer(
                Sanitizer(self.sim, telemetry=telemetry, strict=strict))
            active = current_session()
            if active is not None:
                active.register_sanitizer(telemetry.sanitizer)
        return telemetry.sanitizer

    @property
    def sanitizer(self):
        """The runtime sanitizer, or ``None`` until enable_sanitizer()."""
        return self.telemetry.sanitizer

    def enable_quotas(self, manager):
        """Install a per-tenant resource arbiter on this cluster's fabric.

        ``manager`` is duck-typed (see :class:`repro.service.QuotaManager`):
        the verbs layer calls its ``on_qp_created`` / ``on_qp_destroyed`` /
        ``on_mr_registered`` / ``on_mr_deregistered`` hooks for every
        tenant-tagged resource.  Idempotent for the same manager;
        installing a different one replaces it.
        """
        self.fabric.quotas = manager
        return manager

    @property
    def disposed(self) -> bool:
        return self._disposed

    @property
    def num_nodes(self) -> int:
        return self.config.num_nodes

    @property
    def threads_per_node(self) -> int:
        return self.config.threads_per_node

    @property
    def nodes(self) -> List[Node]:
        return self.fabric.nodes

    def dispose(self) -> None:
        """Release this cluster's object graph after a finished run.

        A live cluster is one strongly-connected component — QPs hold
        their context, the context its fabric, the fabric every node, CQ
        subscribers their endpoints — so left alone it is freed only by
        a cyclic collection that traverses all of it (tens of seconds at
        1024 nodes), and ``Simulator._drain`` keeps the collector paused
        for most of a process's life.  This cuts the hub edges, in time
        that does not grow with the number of messages the run carried.

        Zero-remainder contract: after ``dispose()``, once the caller
        drops the cluster, reference counting alone frees everything
        built on it — ``gc.collect()`` finds 0 unreachable objects for
        every design (``tests/test_cluster_dispose.py``,
        ``tests/test_collector_free.py``).  An edge that closes a cycle
        ``dispose()`` cannot see is a bug in the object that holds it,
        fixed by removing the back-pointer, not by a walk here.  The
        cluster is unusable afterwards.

        Idempotent: the scheduler tears down many short-lived clusters
        and error paths may dispose twice.  Running a disposed cluster
        raises :class:`RuntimeError` (see :meth:`run` / :meth:`run_process`).
        """
        if self._disposed:
            return
        self._disposed = True
        self.telemetry.seal()
        for ctx in self.contexts:
            ctx.dispose()
        self.contexts.clear()
        self.registry.dispose()
        self.fabric.dispose()
        self.sim.dispose()

    def enable_tracing(self) -> Tracer:
        """Record trace events for this cluster's run (Chrome trace JSON).

        Idempotent: returns the live tracer, also when a ``--trace``
        session already enabled it.  Export with
        ``cluster.telemetry.tracer.export(path)``.
        """
        return self.telemetry.enable_tracing()

    def enable_reporting(self):
        """Record causal link records so :meth:`run_report` can attribute
        this cluster's time (see repro.obs).  Idempotent.
        """
        return self.telemetry.enable_links()

    def run_report(self) -> Dict[str, Any]:
        """Build this cluster's RunReport over ``[0, sim.now)`` (requires
        enable_reporting())."""
        from repro.obs.report import build_run_report
        return build_run_report(self.telemetry)

    def metrics_snapshot(self) -> Dict[str, Any]:
        """Harvest a JSON-ready metrics snapshot of the whole cluster."""
        return self.telemetry.snapshot()

    def shuffle_stage(self, design, groups, config=None):
        """Build a :class:`~repro.core.stage.ShuffleStage` on this cluster,
        wired to the cluster-wide endpoint registry.

        This is the API boundary for stage construction: ``design`` may
        be a design name, a :class:`~repro.core.designs.Design`, a
        :class:`~repro.core.policy.StagePlan`, or an
        :class:`~repro.core.policy.AdaptivePolicy`, and is coerced here,
        once, to the plan the stage runs (a policy plans against a
        context built from this cluster; an endpoint-count override rides
        on the plan).  Validation is *eager*:
        an unknown design name raises here, naming the known designs
        and endpoint kinds.
        """
        from repro.core.policy import StageContext, resolve_plan
        from repro.core.stage import ShuffleStage
        plan = resolve_plan(design,
                            StageContext.from_cluster(self, config=config))
        return ShuffleStage(self.fabric, plan, groups, config,
                            registry=self.registry)

    def _check_usable(self) -> None:
        if self._disposed:
            raise RuntimeError(
                "cluster has been disposed; build a new Cluster for a "
                "fresh run")

    def run(self, until=None) -> int:
        self._check_usable()
        return self.sim.run(until)

    def run_process(self, generator, name: str = ""):
        self._check_usable()
        return self.sim.run_process(generator, name=name)
