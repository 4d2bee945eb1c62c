"""The seven ladder workloads, driven through the repo's public API.

Each workload is an object with four phases the child process times
separately: ``setup()`` (input generation and ``Cluster`` construction,
part of ``setup_s``), ``run()`` (the measured call(s), each timed on its
own: ``wall_s``), ``harvest()`` (counters and output checks, untimed) and
``dispose()``.

Inputs come from ``--seed`` only: it is passed to ``ClusterConfig.seed``
and ``tpch.generate(seed=)``, and it nudges every shuffle volume by up to
+0.4 % (whole tuples), so that two seeds are two inputs even on the RC
designs, whose model has no randomness.

Base volumes sit half a message away from a message boundary (a sender
flushes ``volume / threads / destinations`` bytes to each destination in
``message_size`` pieces), so the seed's nudge never adds a message: on
a boundary it would, and the event count would jump by half.

``scale`` multiplies every volume; 1.0 is what BENCHMARK.json measures
and ``--selftest`` runs at 1/16.
"""

from __future__ import annotations

import gc
import random
import time
from functools import partial
from typing import Any, Callable, Dict, List, Optional

from repro import EDR, FDR, LEAF_SPINE, Cluster, ClusterConfig, EndpointConfig
from repro.bench.workloads import R_DTYPE, run_repartition
from repro.service import (
    FairSharePolicy,
    QuotaManager,
    ServiceConfig,
    ShuffleService,
    TenantSpec,
    estimate_footprint,
)
from repro.tpch import generate, reference_answer, run_query

KIB = 1 << 10
MIB = 1 << 20
#: the synthetic source never serves less than one template batch per thread.
TEMPLATE_BYTES = 16 * 1024 * R_DTYPE.itemsize


class Checks:
    """Output checks: how many were attempted and which failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed: List[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(what)


def seeded_volume(name: str, seed: int, base: int, scale: float,
                  threads: int) -> int:
    """``base * scale`` bytes per node (at least one template batch per
    thread) plus a seed-chosen 0..0.4 %, kept a whole number of tuples per
    thread so the expected byte count is exact."""
    base = max(TEMPLATE_BYTES * threads, int(base * scale))
    unit = R_DTYPE.itemsize * threads
    extra = random.Random(f"{name}:{seed}").randrange(0, max(1, base // 256))
    return (base + extra) // unit * unit


# -- counters ----------------------------------------------------------------

#: additive raw quantities summed over nodes and clusters.
_NODE_SUMS = {
    "hits": "nic.qp_cache.hits", "misses": "nic.qp_cache.misses",
    "pcie_stall_ns": "nic.pcie_stall_ns",
    "nic_busy_ns": "nic.processor_busy_ns",
    "egress_busy_ns": "link.egress_busy_ns",
    "sends": "verbs.sends_posted", "recvs": "verbs.recvs_posted",
    "cqes": "verbs.cqes_polled", "qps": "verbs.qps_created",
    "reg_peak_bytes": "verbs.peak_registered_bytes",
    "mr_register_ns": "verbs.mr_register_ns",
    "rnr": "verbs.rnr_events", "ud_drops": "verbs.ud_drops",
    "ep_messages": "ep.messages_sent", "credit_stalls": "ep.credit_stalls",
    "credit_wait_ns": "ep.credit_wait_ns", "free_wait_ns": "ep.free_wait_ns",
    "data_wait_ns": "ep.data_wait_ns",
}
_FABRIC_SUMS = {
    "events": "sim.events_dispatched", "wakeups": "sim.process_wakeups",
    "processes": "sim.processes_started",
    "messages": "fabric.delivered_messages",
}


def raw_counters(snapshot: Dict[str, Any], sim_time_ns: int) -> Dict[str, float]:
    """Fold one cluster's ``metrics_snapshot()`` into additive raws."""
    fabric, nodes = snapshot["fabric"], snapshot["nodes"]
    raw: Dict[str, float] = {
        key: fabric.get(src, 0) for key, src in _FABRIC_SUMS.items()}
    for key, src in _NODE_SUMS.items():
        raw[key] = sum(node.get(src, 0) for node in nodes.values())
    raw["max_queue_depth"] = fabric.get("sim.max_queue_depth", 0)
    raw["node_time_ns"] = len(nodes) * sim_time_ns
    ports = fabric.get("topology.ports", {})
    raw["trunk_busy_share"] = max(
        (port["busy_ns"] / max(1, sim_time_ns) for port in ports.values()),
        default=0.0)
    return raw


def fold_counters(raws: List[Dict[str, float]],
                  extra: Optional[Dict[str, float]] = None) -> Dict[str, float]:
    """The declared counter metrics from the clusters' raws (sums, except
    peaks and shares) plus workload-specific ``extra`` values."""
    def total(key: str) -> float:
        return sum(raw[key] for raw in raws)

    def peak(key: str) -> float:
        return max(raw[key] for raw in raws)

    touches = total("hits") + total("misses")
    out = {
        "sim.events": total("events"),
        "sim.wakeups": total("wakeups"),
        "sim.processes": total("processes"),
        "sim.max_queue_depth": peak("max_queue_depth"),
        "fabric.messages": total("messages"),
        "fabric.link_busy_share":
            total("egress_busy_ns") / max(1, total("node_time_ns")),
        "fabric.trunk_busy_share": peak("trunk_busy_share"),
        "nic.qp_cache_hits": total("hits"),
        "nic.qp_cache_misses": total("misses"),
        "nic.qp_cache_miss_rate": total("misses") / max(1, touches),
        "nic.pcie_stall_ms": total("pcie_stall_ns") / 1e6,
        "nic.busy_ms": total("nic_busy_ns") / 1e6,
        "verbs.sends_posted": total("sends"),
        "verbs.recvs_posted": total("recvs"),
        "verbs.cqes": total("cqes"),
        "verbs.qps_created": total("qps"),
        "verbs.registered_mib_peak": peak("reg_peak_bytes") / MIB,
        "verbs.mr_register_ms": total("mr_register_ns") / 1e6,
        "verbs.rnr_events": total("rnr"),
        "verbs.ud_drops": total("ud_drops"),
        "ep.messages_sent": total("ep_messages"),
        "ep.credit_stalls": total("credit_stalls"),
        "ep.credit_wait_ms": total("credit_wait_ns") / 1e6,
        "ep.free_wait_ms": total("free_wait_ns") / 1e6,
        "ep.data_wait_ms": total("data_wait_ns") / 1e6,
        "stage.sim_setup_ms": 0.0,
        "service.jobs_completed": 0, "service.deferrals": 0,
        "service.queue_wait_ms": 0.0, "service.p99_job_ms": 0.0,
        "obs.trace_events": 0, "obs.link_records": 0,
        "obs.report_build_s": 0.0, "analysis.sanitizer_violations": 0,
    }
    out.update(extra or {})
    return out


def check_shuffle(checks: Checks, label: str, snapshot: Dict[str, Any],
                  result, bytes_per_node: int) -> None:
    """Every destination received exactly what the senders sent it, and
    the cluster as a whole received the whole volume as whole tuples."""
    nodes = snapshot["nodes"]
    for dest, node in nodes.items():
        sent_to = sum(src.get("ep.bytes_by_dest", {}).get(dest, 0)
                      for src in nodes.values())
        checks.check(node.get("ep.bytes_received") == sent_to,
                     f"{label}: node {dest} received "
                     f"{node.get('ep.bytes_received')} of {sent_to} B sent")
    expected = bytes_per_node * len(nodes)
    checks.check(result.total_received_bytes == expected,
                 f"{label}: {result.total_received_bytes} B received, "
                 f"expected {expected}")
    checks.check(
        result.total_received_rows * R_DTYPE.itemsize
        == result.total_received_bytes,
        f"{label}: {result.total_received_rows} rows do not make "
        f"{result.total_received_bytes} B")


# -- the workloads -----------------------------------------------------------


class Workload:
    """Base: one repartition on one cluster (the three plain shuffles)."""

    name = ""
    network = EDR
    nodes = 8
    threads = 0
    design = ""
    base_bytes = 0
    message_size: Optional[int] = None
    topology = None

    def __init__(self, seed: int, scale: float):
        self.seed = seed
        self.scale = scale
        self.checks = Checks()
        #: wall-clock of each measured call of run(), in call order.
        self.calls_s: List[float] = []

    def measured(self, call: Callable[[], Any]) -> Any:
        """Run one measured call of the workload and time it."""
        started = time.perf_counter()
        result = call()
        self.calls_s.append(time.perf_counter() - started)
        return result

    # phases -------------------------------------------------------------

    def setup(self) -> None:
        config = ClusterConfig(network=self.network, num_nodes=self.nodes,
                               threads_per_node=self.threads, seed=self.seed)
        if self.topology is not None:
            config = config.with_topology(self.topology)
        self.cluster = Cluster(config)
        self.bytes_per_node = seeded_volume(
            self.name, self.seed, self.base_bytes, self.scale,
            self.cluster.threads_per_node)

    def endpoint_config(self) -> Optional[EndpointConfig]:
        if self.message_size is None:
            return None
        return EndpointConfig(message_size=self.message_size)

    def run(self) -> None:
        self.result = self.measured(partial(
            run_repartition, self.cluster, self.design,
            bytes_per_node=self.bytes_per_node,
            config=self.endpoint_config()))

    def harvest(self) -> Dict[str, Any]:
        snapshot = self.cluster.metrics_snapshot()
        result = self.result
        check_shuffle(self.checks, self.design, snapshot, result,
                      self.bytes_per_node)
        counters = fold_counters(
            [raw_counters(snapshot, result.elapsed_ns)],
            {"stage.sim_setup_ms": result.setup_ns / 1e6})
        return {"sim_time_ns": result.elapsed_ns,
                "bytes_delivered": result.total_received_bytes,
                "nodes": self.nodes, "counters": counters}

    def dispose(self) -> None:
        self.cluster.dispose()


class RcStream(Workload):
    name = "rc_stream"
    network, nodes, design = EDR, 8, "SEMQ/SR"
    base_bytes, message_size = 30 * MIB, 64 * KIB


class UdMtu(Workload):
    name = "ud_mtu"
    network, nodes, threads, design = FDR, 16, 4, "MESQ/SR"
    base_bytes, message_size = 1152 * KIB, 4 * KIB


class RdThrash(Workload):
    name = "rd_thrash"
    network, nodes, design = FDR, 16, "MEMQ/RD"
    base_bytes = 4 * MIB


class Scaleout64(Workload):
    """The first point of ``fig10_scaleout``: 64 nodes on a 2:1 leaf-spine
    fabric in four leaves, one thread per node, the experiment's endpoint
    configuration.

    State grows with nodes squared, so ``scale`` shrinks the node count by
    its square root (``--selftest`` runs 16 nodes).
    """

    name = "scaleout_64"
    network, nodes, threads, design = EDR, 64, 1, "MESQ/SR"
    base_bytes = 384 * KIB

    def setup(self) -> None:
        # The experiment pauses the cyclic collector for the whole point:
        # a generation-2 pass over a mesoscale object graph costs seconds.
        gc.disable()
        self.nodes = max(16, int(self.nodes * min(1.0, self.scale) ** 0.5))
        self.topology = LEAF_SPINE(oversubscription=2,
                                   nodes_per_leaf=self.nodes // 4)
        super().setup()

    def endpoint_config(self) -> EndpointConfig:
        return EndpointConfig(message_size=4096, buffers_per_connection=2,
                              credit_frequency=2, ud_window_factor=1)

    def dispose(self) -> None:
        super().dispose()
        gc.enable()


class TpchMix(Workload):
    name = "tpch_mix"
    network, nodes, threads = EDR, 8, 4
    scale_factor = 0.06
    queries = ("Q3", "Q4", "Q10")
    designs = ("MESQ/SR", "MPI")

    def setup(self) -> None:
        self.data = generate(self.scale_factor * self.scale, self.nodes,
                             seed=self.seed)
        self.plan = [(query, design) for query in self.queries
                     for design in self.designs]
        self.clusters = [
            Cluster(ClusterConfig(network=self.network, num_nodes=self.nodes,
                                  threads_per_node=self.threads,
                                  seed=self.seed))
            for _ in self.plan]

    def run(self) -> None:
        self.results = [
            self.measured(partial(run_query, cluster, query, self.data,
                                  design=design))
            for cluster, (query, design) in zip(self.clusters, self.plan)]

    def harvest(self) -> Dict[str, Any]:
        references = {q: reference_answer(q, self.data) for q in self.queries}
        raws = []
        for cluster, result in zip(self.clusters, self.results):
            ok, why = answers_equal(result.answer, references[result.query])
            self.checks.check(ok, f"{result.query} on {result.design}: {why}")
            raws.append(raw_counters(cluster.metrics_snapshot(),
                                     result.response_time_ns))
        counters = fold_counters(raws, {
            "stage.sim_setup_ms":
                sum(r.setup_ns for r in self.results) / 1e6})
        return {"sim_time_ns": sum(r.response_time_ns for r in self.results),
                "bytes_delivered": 0, "nodes": self.nodes,
                "counters": counters}

    def dispose(self) -> None:
        for cluster in self.clusters:
            cluster.dispose()


def answers_equal(answer: Dict, reference: Dict, tol: float = 1e-6):
    """Same group keys, aggregates equal to a relative ``tol`` (the
    distributed plan sums floats in another order than the reference)."""
    if set(answer) != set(reference):
        return False, f"{len(set(answer) ^ set(reference))} group keys differ"
    for key, value in reference.items():
        if abs(answer[key] - value) > tol * max(1.0, abs(value)):
            return False, f"group {key}: {answer[key]} != {value}"
    return True, "ok"


class SvcChurn(Workload):
    name = "svc_churn"
    network, nodes, threads = FDR, 8, 4
    qp_cache_entries = 64
    jobs_per_tenant = 3
    base_bytes = 1088 * KIB
    mean_gap_ns = 15_000_000
    #: the arrival schedule is pinned: the makespan of a dozen open-loop
    #: arrivals moves by +-30 % with the arrival seed, which no bound the
    #: driver accepts can hold.  --seed still reaches ClusterConfig.seed
    #: (UD jitter) and the job volume.
    arrival_seed = 2017
    tenants = (("tenant-a", "MESQ/SR"), ("tenant-b", "MEMQ/SR"),
               ("tenant-c", "SEMQ/RD"))

    def setup(self) -> None:
        config = ClusterConfig(
            network=self.network, num_nodes=self.nodes,
            threads_per_node=self.threads, seed=self.seed,
        ).with_network(qp_cache_entries=self.qp_cache_entries)
        self.cluster = Cluster(config)
        self.bytes_per_job = seeded_volume(
            self.name, self.seed, self.base_bytes, self.scale, self.threads)
        jobs = max(2, round(self.jobs_per_tenant * min(1.0, self.scale * 4)))
        self.specs = [
            TenantSpec(name=name, design=design,
                       bytes_per_job=self.bytes_per_job,
                       mean_interarrival_ns=self.mean_gap_ns, jobs=jobs)
            for name, design in self.tenants]
        # tenant-b is capped at the footprint of a single-endpoint job, so
        # its multi-endpoint design is clamped at every admission.
        self.quotas = QuotaManager()
        self.quotas.set_quota("tenant-b", max_qps=estimate_footprint(
            "MEMQ/SR", self.nodes, self.threads, num_endpoints=1).qps)
        self.service = ShuffleService(
            self.cluster, self.specs, policy=FairSharePolicy(),
            quotas=self.quotas,
            config=ServiceConfig(max_concurrent=4, seed=self.arrival_seed))

    def run(self) -> None:
        self.report = self.measured(self.service.run)
        self.sim_time_ns = self.cluster.sim.now

    def harvest(self) -> Dict[str, Any]:
        report, checks = self.report, self.checks
        checks.check(not report["failed"], f"failed jobs: {report['failed']}")
        for spec in self.specs:
            tenant = report["tenants"][spec.name]
            checks.check(
                tenant["jobs_completed"] == spec.jobs,
                f"{spec.name}: {tenant['jobs_completed']} of {spec.jobs} jobs")
            expected = spec.jobs * self.bytes_per_job * self.nodes
            checks.check(
                tenant["bytes_received"] == expected,
                f"{spec.name}: {tenant['bytes_received']} B, "
                f"expected {expected}")
            usage = self.quotas.usage(spec.name)
            checks.check(usage.qps == 0 and usage.registered_bytes == 0,
                         f"{spec.name}: {usage.qps} QPs and "
                         f"{usage.registered_bytes} B still held")
        tenants = report["tenants"].values()
        counters = fold_counters(
            [raw_counters(self.cluster.metrics_snapshot(), self.sim_time_ns)],
            {"service.jobs_completed":
                 sum(t["jobs_completed"] for t in tenants),
             "service.deferrals": sum(t["deferrals"] for t in tenants),
             "service.queue_wait_ms":
                 sum(t["queue_wait_ns"] for t in tenants) / 1e6,
             "service.p99_job_ms":
                 max(t["latency_ns"].get("p99", 0.0) for t in tenants) / 1e6})
        return {"sim_time_ns": self.sim_time_ns,
                "bytes_delivered":
                    sum(t["bytes_received"] for t in tenants),
                "nodes": self.nodes, "counters": counters}


class ObservedPair(Workload):
    name = "observed_pair"
    network, nodes = EDR, 8
    #: (design, bytes per node, message size) run one after the other.
    legs = (("SEMQ/SR", 6 * MIB, 64 * KIB), ("MESQ/SR", 1664 * KIB, 4 * KIB))

    def setup(self) -> None:
        self.clusters = []
        self.volumes = []
        for design, base, _message_size in self.legs:
            cluster = Cluster(ClusterConfig(
                network=self.network, num_nodes=self.nodes, seed=self.seed))
            self.volumes.append(seeded_volume(
                f"{self.name}:{design}", self.seed, base, self.scale,
                cluster.threads_per_node))
            self.clusters.append(cluster)

    def run(self) -> None:
        self.results, self.reports, self.snapshots = [], [], []
        self.report_build_s = 0.0
        for cluster, volume, (design, _base, message_size) in zip(
                self.clusters, self.volumes, self.legs):
            self.measured(partial(self.observed_leg, cluster, design, volume,
                                  message_size))

    def observed_leg(self, cluster: Cluster, design: str, volume: int,
                     message_size: int) -> None:
        cluster.enable_tracing()
        cluster.enable_reporting()
        cluster.enable_sanitizer()
        self.results.append(run_repartition(
            cluster, design, bytes_per_node=volume,
            config=EndpointConfig(message_size=message_size)))
        started = time.perf_counter()
        self.reports.append(cluster.run_report())
        self.report_build_s += time.perf_counter() - started
        self.snapshots.append(cluster.metrics_snapshot())

    def harvest(self) -> Dict[str, Any]:
        raws = []
        trace_events = link_records = violations = 0
        for cluster, volume, result, report, snapshot in zip(
                self.clusters, self.volumes, self.results, self.reports,
                self.snapshots):
            check_shuffle(self.checks, result.design, snapshot, result, volume)
            self.checks.check(
                not cluster.sanitizer.violations,
                f"{result.design}: {cluster.sanitizer.report()}")
            attribution = report["attribution"]
            self.checks.check(
                attribution["conserved"]
                and sum(attribution["categories"].values())
                == attribution["total_ns"] == cluster.sim.now,
                f"{result.design}: attribution does not conserve its window")
            raws.append(raw_counters(snapshot, result.elapsed_ns))
            trace_events += len(cluster.telemetry.tracer.events)
            records = report["records"]
            link_records += (records["flows"] + records["pipe_intervals"]
                             + records["stalls"])
            violations += len(cluster.sanitizer.violations)
        counters = fold_counters(raws, {
            "stage.sim_setup_ms":
                sum(r.setup_ns for r in self.results) / 1e6,
            "obs.trace_events": trace_events,
            "obs.link_records": link_records,
            "obs.report_build_s": self.report_build_s,
            "analysis.sanitizer_violations": violations})
        return {"sim_time_ns": sum(r.elapsed_ns for r in self.results),
                "bytes_delivered":
                    sum(r.total_received_bytes for r in self.results),
                "nodes": self.nodes, "counters": counters}

    def dispose(self) -> None:
        for cluster in self.clusters:
            cluster.dispose()


BY_NAME: Dict[str, Callable[[int, float], Workload]] = {
    cls.name: cls for cls in (RcStream, UdMtu, RdThrash, TpchMix, SvcChurn,
                              Scaleout64, ObservedPair)}
